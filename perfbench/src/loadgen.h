// Seeded request streams and the two load loops the serve stage runs
// against a live serve::QueryEngine:
//  * open loop: requests are sent on a Poisson schedule regardless of
//    replies (independent users), each timed from its *due* time, so a
//    stall in the engine is charged to every request it delays;
//  * closed loop: one sender keeps a fixed number of requests outstanding
//    (callers that each wait for a reply) and counts completions, while a
//    snapshot hot-swap (QueryEngine::PublishAsync) runs beside the reads;
//    a fixed probe set is re-sent after every swap so its replies can be
//    checked against the swapped-in index.
// Load comes from at most two benchmark threads, a sender and a reply
// collector.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "geo/point.h"
#include "serve/query_engine.h"
#include "tasks/embedding_index.h"

namespace perfbench {

/// What a request stream is made of. Fractions not spent on by-point and
/// by-vector queries are by-id queries.
struct QueryMix {
  double by_point = 0.0;   // Segment midpoint + jitter, resolved by the locator.
  double by_vector = 0.0;  // A stored row plus noise (never a cache hit).
  double zipf_s = 0.0;     // Zipf exponent of the id popularity; 0 = uniform.
  std::vector<int> ks = {10};  // k drawn uniformly from this list.
};

/// Rows the stream draws from: segment midpoints and the [n, d] embedding
/// matrix (by-vector queries are perturbed rows).
struct StreamSource {
  std::span<const sarn::geo::LatLng> midpoints;
  std::span<const float> rows;
  int64_t dim = 0;
};

/// Arrival times (seconds from the start) of a Poisson process at
/// `rate_qps` over `duration_s`. Same seed, same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_qps, double duration_s);

/// `count` requests drawn from `mix`. Same seed, same stream.
std::vector<sarn::serve::ServeRequest> MakeQueryStream(uint64_t seed, size_t count,
                                                       const QueryMix& mix,
                                                       const StreamSource& source);

/// Neighbours a correct reply to `request` carries on an index of n rows.
size_t ExpectedNeighbors(const sarn::serve::ServeRequest& request, int64_t n);

/// Loads the index for the i-th hot-swap; runs on the engine's loader
/// thread. Returns null when the load failed.
using SwapLoader = std::function<std::shared_ptr<const sarn::tasks::EmbeddingIndex>(int)>;

/// Issues snapshot hot-swaps (QueryEngine::PublishAsync) from whichever
/// thread is sending load: Request() asks for one, the next Poll() starts
/// it, and a later Poll() notices its completion without blocking. At most
/// one swap is in flight. Not thread-safe: one caller at a time.
class HotSwapper {
 public:
  /// An empty `load` makes every call a no-op.
  HotSwapper(sarn::serve::QueryEngine& engine, SwapLoader load);
  /// Waits for a swap still in flight: its loader refers to this object.
  ~HotSwapper();
  HotSwapper(const HotSwapper&) = delete;
  HotSwapper& operator=(const HotSwapper&) = delete;

  /// Asks for a swap; the next Poll() with no swap in flight starts it.
  void Request() { requested_ = static_cast<bool>(load_); }
  /// Starts a requested swap, or notices a finished one. True when a swap
  /// completed during this call (the caller re-sends the probe set).
  bool Poll();
  /// Waits for the swap in flight, if any. True when one completed.
  bool Finish();

  const std::vector<double>& reload_ms() const { return reload_ms_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The epoch and index of the last swap that published (0 / null before
  /// the first), so replies can be checked against the index that answered.
  uint64_t last_epoch() const { return last_epoch_; }
  const std::shared_ptr<const sarn::tasks::EmbeddingIndex>& last_index() const {
    return last_index_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool Complete();

  sarn::serve::QueryEngine& engine_;
  const SwapLoader load_;
  bool requested_ = false;
  Clock::time_point called_at_;
  std::future<uint64_t> pending_;
  std::shared_ptr<std::shared_ptr<const sarn::tasks::EmbeddingIndex>> slot_;
  std::vector<double> reload_ms_;  // PublishAsync call -> new epoch visible.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t last_epoch_ = 0;
  std::shared_ptr<const sarn::tasks::EmbeddingIndex> last_index_;
};

/// A probe reply with the request it answered.
struct ProbeReply {
  size_t probe = 0;  // Index into the probe set.
  sarn::serve::ServeResponse response;
};

struct OpenLoopResult {
  /// Per scheduled request: due -> reply (ms), -1 when it failed.
  std::vector<double> latency_ms;
  /// Per scheduled request: how late the sender issued it (ms).
  std::vector<double> late_ms;
  /// Per scheduled request: requests in flight right after it was sent.
  std::vector<double> in_flight;
  uint64_t failed = 0;  // Not ok, or the wrong number of neighbours.
};

struct ClosedLoopResult {
  uint64_t completed = 0;  // Within the measured interval.
  uint64_t failed = 0;
  double seconds = 0.0;
  std::vector<ProbeReply> probes;
};

/// Starts one request; normally QueryEngine::Submit.
using Submitter =
    std::function<std::future<sarn::serve::ServeResponse>(const sarn::serve::ServeRequest&)>;

/// Sends `requests[i]` at `due_s[i]` seconds after the start (sender
/// thread) and collects replies (collector thread). Each reply is stamped
/// when it completes, whatever its place in the submission order, so a
/// slow batch does not delay the stamps of later batches that finished
/// first. `n` is the index size used to check replies.
OpenLoopResult RunOpenLoop(const Submitter& submit,
                           std::span<const sarn::serve::ServeRequest> requests,
                           std::span<const double> due_s, int64_t n);

/// Keeps `outstanding` requests in flight for `duration_s`, cycling through
/// `requests` from `*cursor` (advanced past what was sent). A swap the
/// caller requested from `swaps` starts during the block; when it
/// completes, the probe set is sent. It is waited for before returning.
ClosedLoopResult RunClosedLoop(sarn::serve::QueryEngine& engine,
                               std::span<const sarn::serve::ServeRequest> requests,
                               size_t* cursor, size_t outstanding, double duration_s,
                               int64_t n, HotSwapper& swaps,
                               std::span<const sarn::serve::ServeRequest> probes);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
