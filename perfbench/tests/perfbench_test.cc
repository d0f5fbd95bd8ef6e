// Tests of the benchmark itself: its statistics, its seeded inputs, the
// train phase-sum rule, and a small traced run whose trace must pass
// `sarn check-json`. Run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "obs/trace.h"
#include "roadnet/synthetic_city.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sarn::serve::ServeRequest;

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values are statistics.quantiles(values, n=4) in CPython.
  auto expect = [](std::vector<double> values, std::array<double, 3> want) {
    const std::array<double, 3> got = Quartiles(std::move(values));
    for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(got[i], want[i]) << "quartile " << i;
  };
  expect({1.0, 2.0}, {0.75, 1.5, 2.25});
  expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25});
  expect({3.0, 1.0, 4.0, 1.5, 9.0}, {1.25, 3.0, 6.5});
  expect({5.0, 5.0, 5.0}, {5.0, 5.0, 5.0});
}

TEST(StatsTest, NearestRankPercentile) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
}

TEST(StatsTest, HighestPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(0), 0.0);
}

TEST(LoadgenTest, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(7, 2000.0, 3.0);
  const std::vector<double> b = PoissonSchedule(7, 2000.0, 3.0);
  const std::vector<double> c = PoissonSchedule(8, 2000.0, 3.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 3.0);
  // 6000 expected arrivals; Poisson sd ~77.
  EXPECT_NEAR(static_cast<double>(a.size()), 6000.0, 400.0);
}

TEST(LoadgenTest, OpenLoopStampsRepliesInCompletionOrder) {
  // Request 0 takes 80 ms; request 1, sent 1 ms later, takes 2 ms. Stamped
  // in submission order, request 1 would wait for request 0's reply.
  std::vector<ServeRequest> requests(2);
  for (ServeRequest& request : requests) request.k = 1;
  const std::vector<double> due = {0.0, 0.001};
  int sent = 0;
  const Submitter submit = [&sent](const ServeRequest&) {
    const auto delay = std::chrono::milliseconds(sent++ == 0 ? 80 : 2);
    return std::async(std::launch::async, [delay] {
      std::this_thread::sleep_for(delay);
      sarn::serve::ServeResponse response;
      response.ok = true;
      response.neighbors.resize(1);
      return response;
    });
  };
  const OpenLoopResult result = RunOpenLoop(submit, requests, due, 100);
  ASSERT_EQ(result.failed, 0u);
  EXPECT_GE(result.latency_ms[0], 80.0);
  EXPECT_LT(result.latency_ms[1], 40.0);
  EXPECT_LT(result.latency_ms[1], result.latency_ms[0]);
}

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    city_ = sarn::roadnet::GenerateSyntheticCity(sarn::roadnet::ChengduLikeConfig(0.02));
    midpoints_ = city_.Midpoints();
    rows_.assign(midpoints_.size() * 4, 0.5f);
    source_ = {midpoints_, rows_, 4};
  }
  sarn::roadnet::RoadNetwork city_;
  std::vector<sarn::geo::LatLng> midpoints_;
  std::vector<float> rows_;
  StreamSource source_;
};

bool SameRequest(const ServeRequest& a, const ServeRequest& b) {
  return a.kind == b.kind && a.id == b.id && a.vector == b.vector && a.k == b.k &&
         a.point.lat == b.point.lat && a.point.lng == b.point.lng;
}

TEST_F(StreamTest, SameSeedSameQueryStream) {
  QueryMix mix;
  mix.by_point = 0.2;
  mix.by_vector = 0.1;
  mix.zipf_s = 1.0;
  mix.ks = {5, 10, 50};
  const auto a = MakeQueryStream(3, 2000, mix, source_);
  const auto b = MakeQueryStream(3, 2000, mix, source_);
  const auto c = MakeQueryStream(4, 2000, mix, source_);
  ASSERT_EQ(a.size(), 2000u);
  bool all_same = true;
  bool any_different = false;
  std::map<ServeRequest::Kind, int> kinds;
  for (size_t i = 0; i < a.size(); ++i) {
    all_same &= SameRequest(a[i], b[i]);
    any_different |= !SameRequest(a[i], c[i]);
    ++kinds[a[i].kind];
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_different);
  EXPECT_NEAR(kinds[ServeRequest::Kind::kByPoint], 400, 80);
  EXPECT_NEAR(kinds[ServeRequest::Kind::kByVector], 200, 60);
}

TEST_F(StreamTest, ZipfSkewsIdsAndUniformDoesNot) {
  QueryMix zipf;
  zipf.zipf_s = 1.0;
  QueryMix uniform;
  auto top_share = [](const std::vector<ServeRequest>& stream) {
    std::map<int64_t, int> counts;
    int best = 0;
    for (const ServeRequest& r : stream) best = std::max(best, ++counts[r.id]);
    return static_cast<double>(best) / static_cast<double>(stream.size());
  };
  EXPECT_GT(top_share(MakeQueryStream(1, 5000, zipf, source_)), 0.05);
  EXPECT_LT(top_share(MakeQueryStream(1, 5000, uniform, source_)), 0.02);
}

TEST(PhaseRowsTest, PhasesPlusUntrackedSumToWall) {
  std::vector<EpochSample> epochs = {
      {2.0, {{"forward", 0.5}, {"backward", 1.0}}},
      {3.0, {{"forward", 0.7}, {"backward", 1.3}}},
  };
  const auto rows = PhaseRows(epochs);
  std::map<std::string, double> by_name(rows.begin(), rows.end());
  EXPECT_DOUBLE_EQ(by_name["forward"], 0.6);
  EXPECT_DOUBLE_EQ(by_name["backward"], 1.15);
  EXPECT_DOUBLE_EQ(by_name["wall"], 2.5);
  EXPECT_NEAR(by_name["untracked"], 0.75, 1e-12);
  EXPECT_NEAR(by_name["forward"] + by_name["backward"] + by_name["untracked"], by_name["wall"],
              1e-12);
}

// A miniature pipeline workload: small enough for a unit test, but it runs
// every stage and every gate of the real ones.
WorkloadSpec TinySpec() {
  WorkloadSpec spec;
  spec.name = "tiny";
  spec.train_scale = 0.02;
  spec.serve_scale = 0.02;
  spec.epochs_per_second = 0.0;
  spec.min_steady_epochs = 2;
  spec.setup_reps = 2;
  spec.mix.by_point = 0.2;
  spec.mix.by_vector = 0.2;
  spec.mix.ks = {5, 10};
  spec.open_rate_qps = 1500.0;
  spec.base_qps = 3000.0;
  spec.hot_swaps = true;
  spec.cold_starts = 6;
  spec.open_share = 1.0;
  spec.closed_share = 0.5;
  return spec;
}

TEST(TracedRunTest, TrainPhasesSumAndTraceFilePassesCheckJson) {
  const std::string dir = "perfbench_test_run";
  std::filesystem::create_directories(dir);
  RunOptions options;
  options.seed = 5;
  options.seconds = 2.0;
  options.traced = true;
  options.workdir = dir;
  sarn::obs::Tracer& tracer = sarn::obs::Tracer::Instance();
  tracer.Drain();
  tracer.SetEnabled(true);
  const RunResult result = RunWorkload(TinySpec(), options);
  tracer.SetEnabled(false);
  const std::string trace_path = dir + "/trace.json";
  ASSERT_TRUE(sarn::obs::Tracer::WriteChromeTrace(trace_path, tracer.Drain()));

  for (const std::string& failure : result.gate_failures) ADD_FAILURE() << failure;
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.attempted, 0u);

  // Train sum rule on the real trainer telemetry.
  double phases = 0.0;
  const Metric* wall = result.per_layer.Find("core.epoch_wall_s");
  const Metric* untracked = result.per_layer.Find("core.untracked_s");
  ASSERT_NE(wall, nullptr);
  ASSERT_NE(untracked, nullptr);
  for (const Metric& metric : result.per_layer.items()) {
    const bool phase = metric.name.rfind("core.", 0) == 0 && metric.unit == "s" &&
                       metric.name != "core.epoch_wall_s" &&
                       metric.name != "core.model_build_s";
    if (phase) phases += metric.value;
  }
  EXPECT_GE(untracked->value, 0.0);
  EXPECT_NEAR(phases, wall->value, 1e-9);
  EXPECT_GT(result.per_layer.Find("serve.swaps")->value, 0.0);
  EXPECT_EQ(result.per_layer.Find("plan.replays")->value, 0.0);

  const std::string command = std::string(PERFBENCH_SARN_CLI) + " check-json --in " +
                              trace_path + " > /dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
