#include "obs/request_trace.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"

namespace sarn::obs {
namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* RequestStageName(RequestStage stage) {
  switch (stage) {
    case RequestStage::kAdmission:
      return "admission";
    case RequestStage::kQueue:
      return "queue";
    case RequestStage::kCache:
      return "cache";
    case RequestStage::kScan:
      return "scan";
    case RequestStage::kReply:
      return "reply";
  }
  return "unknown";
}

uint64_t RequestRecord::StageNanos(RequestStage stage) const {
  switch (stage) {
    case RequestStage::kAdmission:
      return enqueued_ns - admit_ns;
    case RequestStage::kQueue:
      return batch_formed_ns - enqueued_ns;
    case RequestStage::kCache:
      return scan_begin_ns - batch_formed_ns;
    case RequestStage::kScan:
      return scan_end_ns - scan_begin_ns;
    case RequestStage::kReply:
      return replied_ns - scan_end_ns;
  }
  return 0;
}

uint64_t RequestContext::Now() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t RequestContext::Finish(bool ok) {
  if (!traced_) return 0;
  traced_ = false;
  record_.ok = ok;
  record_.replied_ns = Now();
  // Back-fill timestamps the serve path never reached (admission rejection,
  // cache hit resolved before a scan) so the stage deltas telescope: an
  // unstamped stage collapses to zero rather than going negative.
  if (record_.enqueued_ns == 0) record_.enqueued_ns = record_.replied_ns;
  if (record_.batch_formed_ns < record_.enqueued_ns) {
    record_.batch_formed_ns = record_.enqueued_ns;
  }
  if (record_.scan_begin_ns < record_.batch_formed_ns) {
    record_.scan_begin_ns = record_.batch_formed_ns;
  }
  if (record_.scan_end_ns < record_.scan_begin_ns) {
    record_.scan_end_ns = record_.scan_begin_ns;
  }
  if (record_.replied_ns < record_.scan_end_ns) {
    record_.replied_ns = record_.scan_end_ns;
  }
  if (tracer_ != nullptr) tracer_->Publish(record_);
  return record_.TotalNanos();
}

RequestTracer::RequestTracer(const Options& options)
    : sample_every_(options.sample_every),
      slowest_capacity_(options.slowest_capacity) {
  uint32_t capacity = RoundUpPow2(std::max<uint32_t>(options.ring_capacity, 2));
  ring_mask_ = capacity - 1;
  ring_ = std::make_unique<Slot[]>(capacity);
  slowest_.reserve(slowest_capacity_);
}

RequestContext RequestTracer::Admit() {
  RequestContext ctx;
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.record_.id = id;
  if (sample_every_ != 0 && (id % sample_every_) == 0) {
    ctx.traced_ = true;
    ctx.tracer_ = this;
    ctx.record_.admit_ns = RequestContext::Now();
  }
  return ctx;
}

void RequestTracer::EncodeRecord(const RequestRecord& record,
                                 uint64_t* words) {
  words[0] = record.id;
  words[1] = record.admit_ns;
  words[2] = record.enqueued_ns;
  words[3] = record.batch_formed_ns;
  words[4] = record.scan_begin_ns;
  words[5] = record.scan_end_ns;
  words[6] = record.replied_ns;
  words[7] = (record.cache_hit ? 1u : 0u) | (record.ok ? 2u : 0u);
}

RequestRecord RequestTracer::DecodeRecord(const uint64_t* words) {
  RequestRecord record;
  record.id = words[0];
  record.admit_ns = words[1];
  record.enqueued_ns = words[2];
  record.batch_formed_ns = words[3];
  record.scan_begin_ns = words[4];
  record.scan_end_ns = words[5];
  record.replied_ns = words[6];
  record.cache_hit = (words[7] & 1u) != 0;
  record.ok = (words[7] & 2u) != 0;
  return record;
}

void RequestTracer::Publish(const RequestRecord& record) {
  // Ring write: take a ticket, then claim its slot by moving the sequence
  // from even to odd with a CAS, so exactly one writer owns the slot while
  // its words are stored and a concurrent reader detects the torn window.
  // Two writers whose tickets lap onto the same slot race for that CAS; the
  // loser retries while the winner writes and, if the slot stays busy,
  // drops its record and counts the drop instead of corrupting the slot.
  uint64_t ticket = published_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[ticket & ring_mask_];
  bool claimed = false;
  uint64_t seq = slot.sequence.load(std::memory_order_relaxed);
  for (int attempt = 0; attempt < kClaimAttempts; ++attempt) {
    if ((seq & 1) == 0 &&
        slot.sequence.compare_exchange_weak(seq, seq + 1, std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      // Acquire pairs with the previous owner's even store, so its word
      // stores are ordered before ours and the two never interleave.
      claimed = true;
      break;
    }
    if (seq & 1) {
      std::this_thread::yield();  // Another writer holds the slot.
      seq = slot.sequence.load(std::memory_order_relaxed);
    }
  }
  if (claimed) {
    // Orders the odd sequence before the word stores: a reader that sees any
    // new word also sees the odd (or a later) sequence and retries.
    std::atomic_thread_fence(std::memory_order_release);
    uint64_t words[kSlotWords];
    EncodeRecord(record, words);
    for (int i = 0; i < kSlotWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.sequence.store(seq + 2, std::memory_order_release);  // Even: stable.
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  // Slowest-N tail retention. The relaxed floor read keeps the common case
  // (request faster than the current table minimum) lock-free.
  if (slowest_capacity_ == 0) return;
  uint64_t total = record.TotalNanos();
  if (total <= slowest_floor_ns_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(slowest_mu_);
  auto pos = std::upper_bound(
      slowest_.begin(), slowest_.end(), total,
      [](uint64_t t, const RequestRecord& r) { return t > r.TotalNanos(); });
  if (slowest_.size() < slowest_capacity_) {
    slowest_.insert(pos, record);
  } else if (pos != slowest_.end()) {
    slowest_.insert(pos, record);
    slowest_.pop_back();
  }
  if (slowest_.size() == slowest_capacity_) {
    slowest_floor_ns_.store(slowest_.back().TotalNanos(),
                            std::memory_order_relaxed);
  }
}

RequestTracer::TraceSnapshot RequestTracer::Snapshot() const {
  TraceSnapshot snapshot;
  snapshot.admitted = next_id_.load(std::memory_order_relaxed) - 1;
  uint64_t published = published_.load(std::memory_order_acquire);
  snapshot.traced = published;
  snapshot.dropped = dropped_.load(std::memory_order_relaxed);
  uint32_t capacity = ring_mask_ + 1;
  uint64_t begin = published > capacity ? published - capacity : 0;
  snapshot.recent.reserve(static_cast<size_t>(published - begin));
  for (uint64_t ticket = begin; ticket < published; ++ticket) {
    const Slot& slot = ring_[ticket & ring_mask_];
    // Seqlock read: retry a few times on a torn slot, then skip it — a
    // statsz dump tolerates a missing record, never a half-written one.
    for (int attempt = 0; attempt < 4; ++attempt) {
      uint64_t before = slot.sequence.load(std::memory_order_acquire);
      if (before & 1) continue;  // Write in progress.
      uint64_t words[kSlotWords];
      for (int i = 0; i < kSlotWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      uint64_t after = slot.sequence.load(std::memory_order_relaxed);
      if (before == after && before != 0) {
        snapshot.recent.push_back(DecodeRecord(words));
        break;
      }
      if (before == 0 && after == 0) break;  // Never written (early startup).
    }
  }
  {
    std::lock_guard<std::mutex> lock(slowest_mu_);
    snapshot.slowest = slowest_;
  }
  return snapshot;
}

}  // namespace sarn::obs
