// Request-scoped serve tracing: per-request stage timestamps recorded into a
// lock-free ring buffer, with tail retention for the slowest requests.
//
// Design (DESIGN.md §14): every admitted query gets a monotonically-assigned
// id from a RequestTracer. A uniform sample (1-in-sample_every) of requests is
// *traced*: the engine stamps a timeline of stage timestamps into a
// RequestContext as the query moves admit -> enqueue -> batch-form -> scan ->
// reply, and Finish() publishes the completed record into a fixed-size ring
// of recent records. The ring is written lock-free (fetch_add slot claim +
// per-slot seqlock so readers detect torn records and skip them); a small
// mutex-guarded side table additionally retains the slowest N requests ever
// seen so the tail survives ring wrap-around (tail sampling).
//
// The stage model telescopes: the five reported stages are consecutive
// timestamp deltas covering [admit, replied] with no gaps, so per-stage
// attribution sums to exactly the end-to-end latency by construction.
//
// Cost contract (mirrors trace.h): when tracing is disabled — sample_every=0
// or the context was sampled out — every RequestContext::Mark* call is a
// branch on a bool already in the object; the only shared-state touch on the
// sampled-out path is one relaxed fetch_add per request for id assignment,
// which the serve path already performs for its own bookkeeping. Tracing
// never changes query results: it only reads the clock and writes
// tracer-owned memory (pinned by the serve bitwise-identity test).

#ifndef SARN_OBS_REQUEST_TRACE_H_
#define SARN_OBS_REQUEST_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sarn::obs {

/// The five named stages a traced request's latency is attributed to.
/// Values index RequestRecord::StageNanos.
enum class RequestStage {
  kAdmission = 0,  // admit -> enqueued: admission checks + queue push.
  kQueue = 1,      // enqueued -> batch_formed: waiting for a batch slot.
  kCache = 2,      // batch_formed -> scan_begin: resolve + cache lookup.
  kScan = 3,       // scan_begin -> scan_end: index scan (0 for cache hits).
  kReply = 4,      // scan_end -> replied: result copy + promise fulfilment.
};
inline constexpr int kRequestStageCount = 5;
const char* RequestStageName(RequestStage stage);

/// One completed traced request. Timestamps are monotonic-clock nanoseconds;
/// stages telescope: admit <= enqueued <= batch_formed <= scan_begin <=
/// scan_end <= replied, so StageNanos sums exactly to TotalNanos.
struct RequestRecord {
  uint64_t id = 0;
  uint64_t admit_ns = 0;
  uint64_t enqueued_ns = 0;
  uint64_t batch_formed_ns = 0;
  uint64_t scan_begin_ns = 0;
  uint64_t scan_end_ns = 0;
  uint64_t replied_ns = 0;
  bool cache_hit = false;
  bool ok = true;  // False when the request resolved to an error reply.

  uint64_t TotalNanos() const { return replied_ns - admit_ns; }
  uint64_t StageNanos(RequestStage stage) const;
};

class RequestTracer;

/// Per-request handle stamped by the serve path. Movable, not copyable.
/// Default-constructed or sampled-out contexts are inert: Mark*/Finish are a
/// single predictable branch. Stamping order must follow the stage model;
/// Finish() fills any unstamped trailing timestamps from the reply time (an
/// error rejected at admission still telescopes — its scan stage is 0).
class RequestContext {
 public:
  RequestContext() = default;
  RequestContext(RequestContext&& other) noexcept { *this = std::move(other); }
  RequestContext& operator=(RequestContext&& other) noexcept {
    record_ = other.record_;
    tracer_ = other.tracer_;
    traced_ = other.traced_;
    other.tracer_ = nullptr;
    other.traced_ = false;
    return *this;
  }
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// The request id (assigned even when sampled out; 0 for a
  /// default-constructed context).
  uint64_t id() const { return record_.id; }
  /// True when this request's timeline is being recorded.
  bool traced() const { return traced_; }
  /// The timeline as stamped so far (complete right after Finish(), which
  /// the serve path uses to feed the per-stage histograms).
  const RequestRecord& record() const { return record_; }

  void MarkEnqueued() {
    if (traced_) record_.enqueued_ns = Now();
  }
  void MarkBatchFormed() {
    if (traced_) record_.batch_formed_ns = Now();
  }
  void MarkScanBegin() {
    if (traced_) record_.scan_begin_ns = Now();
  }
  void MarkScanEnd() {
    if (traced_) record_.scan_end_ns = Now();
  }
  void MarkCacheHit() {
    if (traced_) record_.cache_hit = true;
  }

  /// Stamps the reply time, back-fills unstamped timestamps so stages
  /// telescope, publishes the record to the tracer, and returns end-to-end
  /// nanoseconds (0 when untraced). Idempotent via the traced_ flag.
  uint64_t Finish(bool ok);

 private:
  friend class RequestTracer;
  static uint64_t Now();

  RequestRecord record_;
  RequestTracer* tracer_ = nullptr;
  bool traced_ = false;
};

/// Owns the ring buffer + slowest-N table. One per QueryEngine (serve) —
/// the instance is engine-owned so hot-swapping an index never resets ids.
/// Thread-safe: Admit/publish are called from admission + worker threads
/// concurrently with Snapshot readers.
class RequestTracer {
 public:
  struct Options {
    /// Uniform sampling period: every sample_every-th admitted request is
    /// traced. 1 = trace everything, 0 = tracing disabled (Admit still
    /// assigns ids; contexts are inert).
    uint32_t sample_every = 16;
    /// Ring capacity (recent traced records); rounded up to a power of two.
    uint32_t ring_capacity = 256;
    /// How many all-time-slowest records to retain past ring wrap.
    uint32_t slowest_capacity = 8;
  };

  explicit RequestTracer(const Options& options);

  /// True when any request may be traced (sample_every > 0). A relaxed
  /// member read — the disabled fast path the PR 3 invariant requires.
  bool enabled() const { return sample_every_ != 0; }
  uint32_t sample_every() const { return sample_every_; }

  /// Assigns the next request id and decides sampling. The returned context
  /// has admit stamped when traced.
  RequestContext Admit();

  /// Point-in-time view for statsz: recent ring records (torn slots skipped,
  /// newest last) and the slowest-N table (slowest first).
  struct TraceSnapshot {
    uint64_t admitted = 0;  // Requests admitted (ids assigned).
    uint64_t traced = 0;    // Requests whose timeline was recorded.
    uint64_t dropped = 0;   // Traced records lost to a busy ring slot.
    std::vector<RequestRecord> recent;
    std::vector<RequestRecord> slowest;
  };
  TraceSnapshot Snapshot() const;

 private:
  friend class RequestContext;

  // A ring slot guarded by a seqlock: odd sequence = write in progress. The
  // record payload is stored as relaxed atomic words (not a plain struct) so
  // a torn read is detected by the sequence check, never a data race — the
  // ring stays TSan-clean by construction.
  static constexpr int kSlotWords = 8;
  // CAS attempts a writer makes on a busy slot before dropping its record.
  static constexpr int kClaimAttempts = 64;
  struct Slot {
    std::atomic<uint64_t> sequence{0};
    std::atomic<uint64_t> words[kSlotWords] = {};
  };
  static void EncodeRecord(const RequestRecord& record, uint64_t* words);
  static RequestRecord DecodeRecord(const uint64_t* words);

  void Publish(const RequestRecord& record);

  uint32_t sample_every_ = 0;
  uint32_t ring_mask_ = 0;  // capacity - 1 (capacity is a power of two).
  std::unique_ptr<Slot[]> ring_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> dropped_{0};

  uint32_t slowest_capacity_ = 0;
  mutable std::mutex slowest_mu_;
  std::vector<RequestRecord> slowest_;  // Sorted slowest-first.
  // Cheap pre-filter: requests faster than this can't enter the table, so
  // the mutex is only taken for genuine tail candidates once it fills.
  std::atomic<uint64_t> slowest_floor_ns_{0};
};

}  // namespace sarn::obs

#endif  // SARN_OBS_REQUEST_TRACE_H_
