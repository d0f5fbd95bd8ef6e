#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/rng.h"

namespace perfbench {

using sarn::serve::QueryEngine;
using sarn::serve::ServeRequest;
using sarn::serve::ServeResponse;
using Clock = std::chrono::steady_clock;

namespace {

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

bool ReplyOk(const ServeRequest& request, const ServeResponse& response, int64_t n) {
  return response.ok && response.neighbors.size() == ExpectedNeighbors(request, n);
}

}  // namespace

HotSwapper::HotSwapper(QueryEngine& engine, SwapLoader load)
    : engine_(engine), load_(std::move(load)) {}

HotSwapper::~HotSwapper() {
  if (pending_.valid()) pending_.wait();
}

bool HotSwapper::Poll() {
  if (!pending_.valid()) {
    if (!requested_) return false;
    requested_ = false;
    slot_ = std::make_shared<std::shared_ptr<const sarn::tasks::EmbeddingIndex>>();
    auto slot = slot_;
    const int number = static_cast<int>(attempted_++);
    const SwapLoader& load = load_;
    called_at_ = Clock::now();
    pending_ = engine_.PublishAsync([slot, number, &load] {
      *slot = load(number);
      return *slot;
    });
    return false;
  }
  if (pending_.wait_for(std::chrono::seconds(0)) != std::future_status::ready) return false;
  return Complete();
}

bool HotSwapper::Finish() {
  if (!pending_.valid()) return false;
  pending_.wait();
  return Complete();
}

bool HotSwapper::Complete() {
  const Clock::time_point now = Clock::now();
  const uint64_t epoch = pending_.get();
  if (epoch == 0) {
    ++failed_;
  } else {
    reload_ms_.push_back(MillisBetween(called_at_, now));
    last_epoch_ = epoch;
    last_index_ = *slot_;
  }
  return epoch != 0;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_qps, double duration_s) {
  sarn::Rng rng(seed ^ 0x5c4ed01eULL);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate_qps;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<ServeRequest> MakeQueryStream(uint64_t seed, size_t count, const QueryMix& mix,
                                          const StreamSource& source) {
  sarn::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const int64_t n = static_cast<int64_t>(source.midpoints.size());
  // Zipf popularity over a seeded permutation of the ids, so which segments
  // are hot changes with the seed.
  std::vector<double> cdf;
  std::vector<int64_t> by_rank;
  if (mix.zipf_s > 0.0) {
    by_rank.resize(static_cast<size_t>(n));
    std::iota(by_rank.begin(), by_rank.end(), 0);
    rng.Shuffle(by_rank);
    cdf.resize(static_cast<size_t>(n));
    double total = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), mix.zipf_s);
      cdf[static_cast<size_t>(r)] = total;
    }
    for (double& c : cdf) c /= total;
  }
  auto draw_id = [&]() -> int64_t {
    if (cdf.empty()) return rng.UniformInt(0, n - 1);
    const double u = rng.Uniform();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return by_rank[std::min(rank, by_rank.size() - 1)];
  };

  std::vector<ServeRequest> stream(count);
  for (ServeRequest& request : stream) {
    const double kind = rng.Uniform();
    const int64_t id = draw_id();
    request.k = mix.ks[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mix.ks.size()) - 1))];
    if (kind < mix.by_point) {
      request.kind = ServeRequest::Kind::kByPoint;
      const sarn::geo::LatLng& mid = source.midpoints[static_cast<size_t>(id)];
      request.point = {mid.lat + rng.Uniform(-4e-5, 4e-5),
                       mid.lng + rng.Uniform(-4e-5, 4e-5)};
    } else if (kind < mix.by_point + mix.by_vector) {
      request.kind = ServeRequest::Kind::kByVector;
      request.vector.resize(static_cast<size_t>(source.dim));
      for (int64_t j = 0; j < source.dim; ++j) {
        request.vector[static_cast<size_t>(j)] =
            source.rows[static_cast<size_t>(id * source.dim + j)] +
            static_cast<float>(rng.Normal(0.0, 0.05));
      }
    } else {
      request.kind = ServeRequest::Kind::kById;
      request.id = id;
    }
  }
  return stream;
}

size_t ExpectedNeighbors(const ServeRequest& request, int64_t n) {
  const int64_t candidates = request.kind == ServeRequest::Kind::kByVector ? n : n - 1;
  return static_cast<size_t>(std::max<int64_t>(0, std::min<int64_t>(request.k, candidates)));
}

OpenLoopResult RunOpenLoop(const Submitter& submit, std::span<const ServeRequest> requests,
                           std::span<const double> due_s, int64_t n) {
  // How long the collector blocks on the oldest outstanding reply before it
  // sweeps the others: the most a reply that overtook it is stamped late.
  constexpr auto kSweepInterval = std::chrono::microseconds(50);
  const size_t count = std::min(requests.size(), due_s.size());
  OpenLoopResult result;
  result.latency_ms.assign(count, -1.0);
  result.late_ms.assign(count, 0.0);
  result.in_flight.assign(count, 0.0);

  struct Item {
    size_t index = 0;
    std::future<ServeResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;
  bool sending_done = false;
  std::atomic<uint64_t> completed{0};

  // Leave the threads a moment to start before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };

  std::thread collector([&] {
    std::vector<Item> pending;  // In submission order.
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) cv.wait(lock, [&] { return !queue.empty() || sending_done; });
        for (; !queue.empty(); queue.pop_front()) pending.push_back(std::move(queue.front()));
        if (pending.empty()) return;  // Sending is done and every reply is in.
      }
      if (pending.front().future.wait_for(kSweepInterval) == std::future_status::timeout &&
          pending.size() == 1) {
        continue;
      }
      const Clock::time_point replied = Clock::now();
      auto ready = [](Item& item) {
        return item.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      };
      auto stamp = [&](Item& item) {
        if (!ready(item)) return false;
        const ServeResponse response = item.future.get();
        if (ReplyOk(requests[item.index], response, n)) {
          result.latency_ms[item.index] = MillisBetween(due_at(item.index), replied);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        return true;
      };
      pending.erase(std::remove_if(pending.begin(), pending.end(), stamp), pending.end());
    }
  });

  std::thread sender([&] {
    for (size_t i = 0; i < count; ++i) {
      const Clock::time_point due = due_at(i);
      Clock::time_point now = Clock::now();
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
      }
      result.late_ms[i] = MillisBetween(due, now);
      std::future<ServeResponse> future = submit(requests[i]);
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back({i, std::move(future)});
      }
      cv.notify_one();
      result.in_flight[i] =
          static_cast<double>(i + 1 - completed.load(std::memory_order_relaxed));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      sending_done = true;
    }
    cv.notify_one();
  });
  sender.join();
  collector.join();

  for (size_t i = 0; i < count; ++i) {
    if (result.latency_ms[i] < 0.0) ++result.failed;
  }
  return result;
}

ClosedLoopResult RunClosedLoop(QueryEngine& engine, std::span<const ServeRequest> requests,
                               size_t* cursor, size_t outstanding, double duration_s,
                               int64_t n, HotSwapper& swaps,
                               std::span<const ServeRequest> probes) {
  ClosedLoopResult result;
  struct InFlight {
    size_t index = 0;
    std::future<ServeResponse> future;
  };
  std::deque<InFlight> in_flight;
  auto submit = [&] {
    const size_t index = (*cursor)++ % requests.size();
    in_flight.push_back({index, engine.Submit(requests[index])});
  };
  auto send_probes = [&] {
    for (size_t p = 0; p < probes.size(); ++p) {
      result.probes.push_back({p, engine.Query(probes[p])});
    }
  };
  auto check = [&](InFlight& item) {
    if (!ReplyOk(requests[item.index], item.future.get(), n)) ++result.failed;
  };

  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(duration_s));
  while (in_flight.size() < outstanding) submit();
  for (;;) {
    check(in_flight.front());
    in_flight.pop_front();
    ++result.completed;
    if (Clock::now() >= end) break;
    if (swaps.Poll()) send_probes();
    submit();
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  // Replies still in flight are checked but not counted as throughput:
  // they complete after the measured interval.
  while (!in_flight.empty()) {
    check(in_flight.front());
    in_flight.pop_front();
  }
  if (swaps.Finish()) send_probes();
  return result;
}

}  // namespace perfbench
