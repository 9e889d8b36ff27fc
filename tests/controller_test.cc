// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests for the shedding controller (ShedRunner) and the hybrid
// strategy's control behaviour.

#include "src/shed/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/runtime/shard_step.h"
#include "src/shed/baselines.h"
#include "src/shed/hybrid.h"
#include "src/shed/offline_estimator.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : schema_(MakeDs1Schema()) {}

  EventStream MakeStream(uint64_t seed, size_t n = 6000) {
    Ds1Options opts;
    opts.num_events = n;
    opts.seed = seed;
    return GenerateDs1(schema_, opts);
  }

  std::shared_ptr<const Nfa> CompileQ1() {
    auto nfa = Nfa::Compile(*queries::Q1(), &schema_);
    EXPECT_TRUE(nfa.ok());
    return *nfa;
  }

  Schema schema_;
};

TEST_F(ControllerTest, NoShedRunCountsEverything) {
  auto nfa = CompileQ1();
  Engine engine(nfa, EngineOptions{});
  NoShedder none;
  ShedRunner runner(&engine, &none, LatencyMonitor::Options{});
  const EventStream stream = MakeStream(1);
  const RunResult r = runner.Run(stream);
  EXPECT_EQ(r.total_events, stream.size());
  EXPECT_EQ(r.processed_events, stream.size());
  EXPECT_EQ(r.dropped_events, 0u);
  EXPECT_GT(r.avg_latency, 0.0);
  EXPECT_GE(r.p95_latency, r.avg_latency * 0.1);
  EXPECT_GE(r.p99_latency, r.p95_latency);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST_F(ControllerTest, DroppedEventsCostAlmostNothing) {
  auto nfa = CompileQ1();
  Engine engine(nfa, EngineOptions{});
  RandomInputShedder drop_all(/*fraction=*/1.0, /*seed=*/1);
  ShedRunner runner(&engine, &drop_all, LatencyMonitor::Options{});
  const RunResult r = runner.Run(MakeStream(2));
  EXPECT_EQ(r.dropped_events, r.total_events);
  EXPECT_EQ(r.processed_events, 0u);
  EXPECT_LE(r.avg_latency, ShardStep::kDroppedEventCost + 1e-9);
  EXPECT_TRUE(r.matches.empty());
}

TEST_F(ControllerTest, PmSeriesSampling) {
  auto nfa = CompileQ1();
  Engine engine(nfa, EngineOptions{});
  NoShedder none;
  ShedRunner runner(&engine, &none, LatencyMonitor::Options{});
  const RunResult r = runner.Run(MakeStream(3, 1000), /*pm_sample_stride=*/100);
  EXPECT_EQ(r.pm_series.size(), 10u);
  EXPECT_EQ(r.pm_series_stride, 100u);
  // The state fills up within the window.
  EXPECT_GT(r.pm_series.back(), 0u);
}

TEST_F(ControllerTest, ExactPercentilesUseTheFloorRankConvention) {
  // The run's exact p95/p99 must equal element floor(q * (n-1)) of the
  // sorted per-event latencies — the HistogramSnapshot::Quantile
  // convention — computed on one working copy. The regression this pins:
  // a second nth_element on an already-partitioned copy once selected the
  // wrong rank, and a ceil-style rank overstated small-sample tails.
  auto nfa = CompileQ1();
  const EventStream stream = MakeStream(9, 3000);

  Engine measured(nfa, EngineOptions{});
  NoShedder none;
  ShedRunner runner(&measured, &none, LatencyMonitor::Options{});
  const RunResult r = runner.Run(stream);

  // Reference: replay the identical deterministic run, collect every
  // per-event cost, and take the sorted floor-rank elements directly.
  Engine reference(nfa, EngineOptions{});
  std::vector<Match> sink;
  std::vector<double> costs;
  costs.reserve(stream.size());
  for (const EventPtr& e : stream) costs.push_back(reference.Process(e, &sink));
  std::sort(costs.begin(), costs.end());
  const size_t n = costs.size();
  const size_t i95 = std::min(n - 1, static_cast<size_t>(0.95 * double(n - 1)));
  const size_t i99 = std::min(n - 1, static_cast<size_t>(0.99 * double(n - 1)));
  EXPECT_DOUBLE_EQ(r.p95_latency, costs[i95]);
  EXPECT_DOUBLE_EQ(r.p99_latency, costs[i99]);
  EXPECT_LE(r.p95_latency, r.p99_latency);
}

TEST_F(ControllerTest, ExactPercentilesOnTinySamples) {
  // With 10 samples both ranks floor to index 8: the second selection must
  // cope with i95 == i99 (a degenerate suffix partition).
  auto nfa = CompileQ1();
  const EventStream stream = MakeStream(10, 10);
  Engine measured(nfa, EngineOptions{});
  NoShedder none;
  ShedRunner runner(&measured, &none, LatencyMonitor::Options{});
  const RunResult r = runner.Run(stream);

  Engine reference(nfa, EngineOptions{});
  std::vector<Match> sink;
  std::vector<double> costs;
  for (const EventPtr& e : stream) costs.push_back(reference.Process(e, &sink));
  std::sort(costs.begin(), costs.end());
  ASSERT_EQ(costs.size(), 10u);
  EXPECT_DOUBLE_EQ(r.p95_latency, costs[8]);
  EXPECT_DOUBLE_EQ(r.p99_latency, costs[8]);
}

TEST_F(ControllerTest, ViolationAccountingAgainstTheta) {
  auto nfa = CompileQ1();
  Engine engine(nfa, EngineOptions{});
  // A strategy that never sheds but advertises an unreachable bound: every
  // post-warmup event violates.
  class Advertiser : public NoShedder {
   public:
    double theta() const override { return 1e-6; }
  };
  Advertiser shedder;
  LatencyMonitor::Options lat;
  lat.window = 100;
  ShedRunner runner(&engine, &shedder, lat);
  const RunResult r = runner.Run(MakeStream(4, 2000));
  EXPECT_EQ(r.bound_checked, 2000u - 99u);
  EXPECT_EQ(r.bound_violations, r.bound_checked);
}

TEST_F(ControllerTest, HybridReleasesFiltersAfterRecovery) {
  auto nfa = CompileQ1();
  auto stats = EstimateOffline(nfa, MakeStream(5, 10000), 4, true);
  ASSERT_TRUE(stats.ok());
  CostModel model(nfa, CostModelOptions{});
  Rng rng(1);
  ASSERT_TRUE(model.Train(*stats, &rng).ok());

  HybridOptions opts;
  opts.theta = 1e9;  // never violated
  HybridShedder shedder(&model, opts);
  Engine engine(nfa, EngineOptions{});
  shedder.Bind(&engine);
  std::vector<Match> out;
  const EventStream stream = MakeStream(6, 2000);
  for (const EventPtr& e : stream) {
    ASSERT_FALSE(shedder.FilterEvent(*e));  // never active without violation
    engine.Process(e, &out);
    shedder.AfterEvent(e->timestamp(), 1.0);
  }
  EXPECT_EQ(shedder.pms_shed(), 0u);
  EXPECT_EQ(shedder.triggers(), 0u);
  EXPECT_FALSE(shedder.input_filter_active());
}

TEST_F(ControllerTest, HybridTriggersUnderViolation) {
  auto nfa = CompileQ1();
  auto stats = EstimateOffline(nfa, MakeStream(7, 10000), 4, true);
  ASSERT_TRUE(stats.ok());
  CostModel model(nfa, CostModelOptions{});
  Rng rng(2);
  ASSERT_TRUE(model.Train(*stats, &rng).ok());

  HybridOptions opts;
  opts.theta = 1.0;  // always violated
  opts.trigger_delay = 100;
  HybridShedder shedder(&model, opts);
  Engine engine(nfa, EngineOptions{});
  engine.set_classifier([&](const PartialMatch& pm) { return model.Classify(pm); });
  shedder.Bind(&engine);
  std::vector<Match> out;
  const EventStream stream = MakeStream(8, 2000);
  for (const EventPtr& e : stream) {
    (void)shedder.FilterEvent(*e);
    engine.Process(e, &out);
    shedder.AfterEvent(e->timestamp(), /*mu=*/100.0);
  }
  EXPECT_GT(shedder.triggers(), 5u);
  EXPECT_GT(shedder.pms_shed() + shedder.events_dropped(), 0u);
}

}  // namespace
}  // namespace cepshed
