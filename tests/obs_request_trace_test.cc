// Tests for the request-scoped serve tracer (src/obs/request_trace.h) and
// the SLO watchdog's windowed evaluation (src/obs/slo.h).
//
// The concurrent publish+snapshot test doubles as the TSan surface for the
// seqlock ring (tools/verify.sh runs this binary under -fsanitize=thread).

#include "obs/request_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/slo.h"

namespace sarn::obs {
namespace {

RequestRecord MakeRecord(uint64_t id, uint64_t base_ns, uint64_t total_ns) {
  RequestRecord r;
  r.id = id;
  r.admit_ns = base_ns;
  r.enqueued_ns = base_ns + total_ns / 5;
  r.batch_formed_ns = base_ns + 2 * total_ns / 5;
  r.scan_begin_ns = base_ns + 3 * total_ns / 5;
  r.scan_end_ns = base_ns + 4 * total_ns / 5;
  r.replied_ns = base_ns + total_ns;
  return r;
}

TEST(RequestRecordTest, StagesTelescopeToTotal) {
  RequestRecord r = MakeRecord(7, 1000, 550);
  uint64_t sum = 0;
  for (int s = 0; s < kRequestStageCount; ++s) {
    sum += r.StageNanos(static_cast<RequestStage>(s));
  }
  EXPECT_EQ(sum, r.TotalNanos());
  EXPECT_EQ(r.TotalNanos(), 550u);
}

TEST(RequestRecordTest, StageNamesAreDistinct) {
  std::vector<std::string> names;
  for (int s = 0; s < kRequestStageCount; ++s) {
    names.push_back(RequestStageName(static_cast<RequestStage>(s)));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(RequestTracerTest, AssignsMonotonicIdsAndSamplesUniformly) {
  RequestTracer::Options options;
  options.sample_every = 4;
  RequestTracer tracer(options);
  ASSERT_TRUE(tracer.enabled());

  uint64_t prev_id = 0;
  int traced = 0;
  for (int i = 0; i < 16; ++i) {
    RequestContext ctx = tracer.Admit();
    EXPECT_GT(ctx.id(), prev_id);
    prev_id = ctx.id();
    if (ctx.traced()) ++traced;
    ctx.Finish(true);
  }
  // Ids start at 1, so of 1..16 exactly 4, 8, 12, 16 are sampled.
  EXPECT_EQ(traced, 4);

  RequestTracer::TraceSnapshot snap = tracer.Snapshot();
  EXPECT_EQ(snap.admitted, 16u);
  EXPECT_EQ(snap.traced, 4u);
  EXPECT_EQ(snap.recent.size(), 4u);
}

TEST(RequestTracerTest, DisabledTracerIsInert) {
  RequestTracer::Options options;
  options.sample_every = 0;
  RequestTracer tracer(options);
  EXPECT_FALSE(tracer.enabled());

  for (int i = 0; i < 8; ++i) {
    RequestContext ctx = tracer.Admit();
    EXPECT_GT(ctx.id(), 0u);  // Ids are still assigned.
    EXPECT_FALSE(ctx.traced());
    ctx.MarkEnqueued();
    ctx.MarkScanBegin();
    EXPECT_EQ(ctx.Finish(true), 0u);
  }
  RequestTracer::TraceSnapshot snap = tracer.Snapshot();
  EXPECT_EQ(snap.admitted, 8u);
  EXPECT_EQ(snap.traced, 0u);
  EXPECT_TRUE(snap.recent.empty());
  EXPECT_TRUE(snap.slowest.empty());
}

TEST(RequestTracerTest, DefaultConstructedContextIsInert) {
  RequestContext ctx;
  EXPECT_EQ(ctx.id(), 0u);
  EXPECT_FALSE(ctx.traced());
  ctx.MarkBatchFormed();
  EXPECT_EQ(ctx.Finish(false), 0u);
}

TEST(RequestTracerTest, FinishBackFillsUnstampedStages) {
  RequestTracer::Options options;
  options.sample_every = 1;
  RequestTracer tracer(options);

  // Stamp only enqueued: later stages must collapse to zero, never go
  // negative, and the telescoping invariant must hold.
  RequestContext ctx = tracer.Admit();
  ASSERT_TRUE(ctx.traced());
  ctx.MarkEnqueued();
  uint64_t total = ctx.Finish(true);
  const RequestRecord& r = ctx.record();
  EXPECT_EQ(r.replied_ns - r.admit_ns, total);
  EXPECT_LE(r.admit_ns, r.enqueued_ns);
  EXPECT_LE(r.enqueued_ns, r.batch_formed_ns);
  EXPECT_LE(r.batch_formed_ns, r.scan_begin_ns);
  EXPECT_LE(r.scan_begin_ns, r.scan_end_ns);
  EXPECT_LE(r.scan_end_ns, r.replied_ns);
  uint64_t sum = 0;
  for (int s = 0; s < kRequestStageCount; ++s) {
    sum += r.StageNanos(static_cast<RequestStage>(s));
  }
  EXPECT_EQ(sum, total);
}

TEST(RequestTracerTest, FinishIsIdempotent) {
  RequestTracer::Options options;
  options.sample_every = 1;
  RequestTracer tracer(options);
  RequestContext ctx = tracer.Admit();
  ctx.Finish(true);
  EXPECT_EQ(ctx.Finish(true), 0u);  // Second call is a no-op.
  EXPECT_EQ(tracer.Snapshot().traced, 1u);
}

TEST(RequestTracerTest, RecordsOkFlagAndCacheHit) {
  RequestTracer::Options options;
  options.sample_every = 1;
  RequestTracer tracer(options);

  RequestContext hit = tracer.Admit();
  hit.MarkCacheHit();
  hit.Finish(true);
  RequestContext err = tracer.Admit();
  err.Finish(false);

  RequestTracer::TraceSnapshot snap = tracer.Snapshot();
  ASSERT_EQ(snap.recent.size(), 2u);
  EXPECT_TRUE(snap.recent[0].cache_hit);
  EXPECT_TRUE(snap.recent[0].ok);
  EXPECT_FALSE(snap.recent[1].cache_hit);
  EXPECT_FALSE(snap.recent[1].ok);
}

TEST(RequestTracerTest, RingWrapsKeepingNewestRecords) {
  RequestTracer::Options options;
  options.sample_every = 1;
  options.ring_capacity = 8;  // Already a power of two.
  options.slowest_capacity = 2;
  RequestTracer tracer(options);

  for (int i = 0; i < 20; ++i) {
    tracer.Admit().Finish(true);
  }
  RequestTracer::TraceSnapshot snap = tracer.Snapshot();
  EXPECT_EQ(snap.traced, 20u);
  EXPECT_EQ(snap.recent.size(), 8u);
  // The ring keeps the newest 8 records, oldest first.
  for (size_t i = 0; i < snap.recent.size(); ++i) {
    EXPECT_EQ(snap.recent[i].id, 13 + i);
  }
}

TEST(RequestTracerTest, RingCapacityRoundsUpToPowerOfTwo) {
  RequestTracer::Options options;
  options.sample_every = 1;
  options.ring_capacity = 5;  // Rounds up to 8.
  RequestTracer tracer(options);
  for (int i = 0; i < 8; ++i) tracer.Admit().Finish(true);
  EXPECT_EQ(tracer.Snapshot().recent.size(), 8u);
}

TEST(RequestTracerTest, SlowestTableSurvivesRingWrap) {
  RequestTracer::Options options;
  options.sample_every = 1;
  options.ring_capacity = 4;
  options.slowest_capacity = 3;
  RequestTracer tracer(options);

  // Publish synthetic records directly through the context path is clock
  // driven, so drive Publish via the snapshot invariants instead: every
  // traced record lands in the slowest table until it fills, after which
  // only slower records displace entries. With a busy-wait making one
  // request clearly slower, it must survive a full ring wrap.
  RequestContext slow = tracer.Admit();
  ASSERT_TRUE(slow.traced());
  // Burn enough clock to dominate the near-instant requests below.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(20);
  while (std::chrono::steady_clock::now() < until) {
  }
  slow.Finish(true);
  const uint64_t slow_id = slow.id();

  for (int i = 0; i < 16; ++i) {
    tracer.Admit().Finish(true);
  }

  RequestTracer::TraceSnapshot snap = tracer.Snapshot();
  EXPECT_EQ(snap.recent.size(), 4u);  // The slow request aged out of the ring.
  ASSERT_FALSE(snap.slowest.empty());
  EXPECT_LE(snap.slowest.size(), 3u);
  // Slowest-first ordering, and the deliberately slow request leads.
  EXPECT_EQ(snap.slowest[0].id, slow_id);
  for (size_t i = 1; i < snap.slowest.size(); ++i) {
    EXPECT_GE(snap.slowest[i - 1].TotalNanos(), snap.slowest[i].TotalNanos());
  }
}

TEST(RequestTracerTest, ConcurrentPublishAndSnapshotStaysConsistent) {
  RequestTracer::Options options;
  options.sample_every = 1;
  options.ring_capacity = 16;
  options.slowest_capacity = 4;
  RequestTracer tracer(options);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      RequestTracer::TraceSnapshot snap = tracer.Snapshot();
      // Every decoded record must be internally consistent — a torn read
      // would violate the telescoping invariant (ids are stamped with
      // strictly increasing timestamps by the writers).
      for (const RequestRecord& r : snap.recent) {
        EXPECT_GT(r.id, 0u);
        EXPECT_LE(r.admit_ns, r.replied_ns);
        uint64_t sum = 0;
        for (int s = 0; s < kRequestStageCount; ++s) {
          sum += r.StageNanos(static_cast<RequestStage>(s));
        }
        EXPECT_EQ(sum, r.TotalNanos());
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) {
        RequestContext ctx = tracer.Admit();
        ctx.MarkEnqueued();
        ctx.MarkBatchFormed();
        ctx.MarkScanBegin();
        ctx.MarkScanEnd();
        ctx.Finish(true);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  RequestTracer::TraceSnapshot snap = tracer.Snapshot();
  EXPECT_EQ(snap.admitted, uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(snap.traced, uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(snap.recent.size(), 16u);
}

TEST(RequestTracerTest, LappingWritersLeaveEverySlotReadable) {
  // Capacity 2 with many more writer threads than cores: tickets lap onto
  // the same slot constantly, and a writer is often descheduled mid-write.
  // Every slot must still decode once all writers have joined — a slot
  // left with an odd sequence, or holding words from two writers, fails.
  RequestTracer::Options options;
  options.sample_every = 1;
  options.ring_capacity = 2;
  options.slowest_capacity = 0;
  RequestTracer tracer(options);

  constexpr int kWriters = 32;
  constexpr int kPerWriter = 20000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) {
        RequestContext ctx = tracer.Admit();
        ctx.MarkEnqueued();
        ctx.MarkBatchFormed();
        ctx.MarkScanBegin();
        ctx.MarkScanEnd();
        ctx.Finish(true);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  RequestTracer::TraceSnapshot snap = tracer.Snapshot();
  EXPECT_EQ(snap.traced, uint64_t{kWriters} * kPerWriter);
  EXPECT_LT(snap.dropped, snap.traced);
  ASSERT_EQ(snap.recent.size(), 2u);
  for (const RequestRecord& r : snap.recent) {
    EXPECT_GT(r.id, 0u);
    EXPECT_TRUE(r.ok);
    uint64_t sum = 0;
    for (int s = 0; s < kRequestStageCount; ++s) {
      sum += r.StageNanos(static_cast<RequestStage>(s));
    }
    EXPECT_EQ(sum, r.TotalNanos());
  }
}

// --- SloWatchdog::Evaluate (pure windowed math, no threads) ---

TEST(SloEvaluateTest, EmptyWindowHasNoSamples) {
  std::vector<double> bounds = {0.001, 0.01, 0.1};
  std::vector<uint64_t> counts(bounds.size() + 1, 0);
  SloWatchdog::Evaluation eval =
      SloWatchdog::Evaluate(bounds, counts, counts, 50.0);
  EXPECT_FALSE(eval.has_samples);
  EXPECT_EQ(eval.window_count, 0u);
  EXPECT_FALSE(eval.breached);
}

TEST(SloEvaluateTest, IdenticalSnapshotsHaveEmptyDelta) {
  std::vector<double> bounds = {0.001, 0.01, 0.1};
  std::vector<uint64_t> cumulative = {5, 10, 2, 0};
  SloWatchdog::Evaluation eval =
      SloWatchdog::Evaluate(bounds, cumulative, cumulative, 50.0);
  EXPECT_FALSE(eval.has_samples);
  EXPECT_FALSE(eval.breached);
}

TEST(SloEvaluateTest, DetectsBreachFromWindowDelta) {
  std::vector<double> bounds = {0.001, 0.01, 0.1};  // Seconds.
  std::vector<uint64_t> oldest = {100, 0, 0, 0};
  // 100 fast samples before the window; in-window: 50 fast + 1 in
  // (0.01, 0.1] s. The p99 rank (0.99 * 51 = 50.49) falls past the 50 fast
  // samples, so the windowed p99 lands in the slow bucket.
  std::vector<uint64_t> newest = {150, 0, 1, 0};
  SloWatchdog::Evaluation eval =
      SloWatchdog::Evaluate(bounds, oldest, newest, 50.0);
  EXPECT_TRUE(eval.has_samples);
  EXPECT_EQ(eval.window_count, 51u);
  EXPECT_GT(eval.p99_ms, 10.0);  // In the (10ms, 100ms] bucket.
  EXPECT_TRUE(eval.breached);

  // A generous budget is not breached by the same window.
  SloWatchdog::Evaluation ok_eval =
      SloWatchdog::Evaluate(bounds, oldest, newest, 1000.0);
  EXPECT_TRUE(ok_eval.has_samples);
  EXPECT_FALSE(ok_eval.breached);
}

TEST(SloEvaluateTest, ReportsMilliseconds) {
  std::vector<double> bounds = {0.010, 0.020};  // 10ms, 20ms.
  std::vector<uint64_t> oldest = {0, 0, 0};
  std::vector<uint64_t> newest = {1, 0, 0};  // One sample <= 10ms.
  SloWatchdog::Evaluation eval =
      SloWatchdog::Evaluate(bounds, oldest, newest, 50.0);
  EXPECT_TRUE(eval.has_samples);
  // Single sample: bucket midpoint of [0, 10ms] = 5ms.
  EXPECT_NEAR(eval.p99_ms, 5.0, 1e-9);
}

}  // namespace
}  // namespace sarn::obs
