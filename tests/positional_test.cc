// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Tests for the eSPICE-style positional input shedder (related work §VII).

#include "src/shed/positional.h"

#include <gtest/gtest.h>

#include "src/workload/citibike.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"
#include "src/runtime/metrics.h"
#include "src/shed/controller.h"
#include "src/shed/offline_estimator.h"

namespace cepshed {
namespace {

/// Trains `utility` from one offline replay of `history`, as the harness
/// does.
Status TrainFromReplay(PositionalUtility* utility, const std::shared_ptr<const Nfa>& nfa,
                       const EventStream& history) {
  CEPSHED_ASSIGN_OR_RETURN(OfflineStats stats,
                           EstimateOffline(nfa, history, /*num_slices=*/4,
                                           /*use_resource_cost=*/true));
  return utility->Train(stats, history);
}

TEST(PositionalUtilityTest, LearnsTypeLevelUtilities) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 8000;
  gen.seed = 61;
  const EventStream history = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());

  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  ASSERT_TRUE(TrainFromReplay(&utility, *nfa, history).ok());
  // D never participates in Q1; A does.
  EXPECT_DOUBLE_EQ(utility.Utility(schema.EventTypeId("D"), 0), 0.0);
  double a_any = 0.0;
  for (int b = 0; b < 8; ++b) {
    a_any += utility.Utility(schema.EventTypeId("A"), b * Millis(1));
  }
  EXPECT_GT(a_any, 0.0);
}

TEST(PositionalUtilityTest, ParticipationFlagsMatchAnIndependentReplay) {
  // The table reads OfflineStats::event_participates instead of replaying
  // the stream itself; the flags must mark exactly the events a plain
  // engine binds into complete matches.
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 4000;
  gen.seed = 60;
  const EventStream history = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  auto stats = EstimateOffline(*nfa, history, 4, true);
  ASSERT_TRUE(stats.ok());

  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> matches;
  for (const EventPtr& e : history) engine.Process(e, &matches);
  ASSERT_FALSE(matches.empty());
  std::vector<uint8_t> expected(history.size(), 0);
  for (const Match& m : matches) {
    for (const EventPtr& e : m.events) expected[static_cast<size_t>(e->seq())] = 1;
  }
  EXPECT_EQ(stats->event_participates, expected);
  EXPECT_DOUBLE_EQ(stats->replay_cost, engine.stats().total_cost);
}

TEST(PositionalUtilityTest, RejectsStatsFromAnotherStream) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 2000;
  gen.seed = 59;
  const EventStream history = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  auto stats = EstimateOffline(*nfa, history.Prefix(1000), 4, true);
  ASSERT_TRUE(stats.ok());
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  EXPECT_FALSE(utility.Train(*stats, history).ok());
}

TEST(PositionalUtilityTest, CapturesPeriodicStructure) {
  // Citibike rush hours recur cyclically; hot-ending trips concentrate in
  // the rush buckets, so positional utilities must vary across buckets.
  const Schema schema = MakeCitibikeSchema();
  CitibikeOptions gen;
  gen.num_events = 12000;
  gen.seed = 62;
  const EventStream history = GenerateCitibike(schema, gen);
  auto nfa = Nfa::Compile(*queries::CitibikeHotPaths(3, 6), &schema);
  ASSERT_TRUE(nfa.ok());

  // Buckets over the rush period (3h), not the 1h window, to align with
  // the generator's cycle.
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 6,
                            gen.rush_period);
  ASSERT_TRUE(TrainFromReplay(&utility, *nfa, history).ok());
  const int trip = schema.EventTypeId("BikeTrip");
  double lo = 1.0;
  double hi = 0.0;
  for (int b = 0; b < 6; ++b) {
    const double u = utility.Utility(trip, b * gen.rush_period / 6);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_GT(hi, lo * 1.2) << "expected positional variation across the cycle";
}

TEST(PositionalShedderTest, FixedRatioDropsApproximateFraction) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 10000;
  gen.seed = 63;
  const EventStream history = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  ASSERT_TRUE(TrainFromReplay(&utility, *nfa, history).ok());

  PositionalInputShedder shedder(&utility, /*fraction=*/0.25, /*seed=*/3);
  size_t dropped = 0;
  for (const EventPtr& e : history) {
    if (shedder.FilterEvent(*e)) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / static_cast<double>(history.size()), 0.25,
              0.12);
}

TEST(PositionalShedderTest, BeatsRandomInputAtEqualRatio) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 12000;
  gen.seed = 64;
  const EventStream train = GenerateDs1(schema, gen);
  gen.seed = 65;
  const EventStream test = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  ASSERT_TRUE(TrainFromReplay(&utility, *nfa, train).ok());

  auto run = [&](Shedder* shedder) {
    Engine engine(*nfa, EngineOptions{});
    ShedRunner runner(&engine, shedder, LatencyMonitor::Options{});
    return runner.Run(test);
  };
  NoShedder none;
  const GroundTruth truth(run(&none).matches);

  PositionalInputShedder pi(&utility, 0.25, 4);
  RandomInputShedder ri(0.25, 4);
  const auto pi_quality = ComputeQuality(run(&pi).matches, truth);
  const auto ri_quality = ComputeQuality(run(&ri).matches, truth);
  // PI at least drops the useless D events before anything else.
  EXPECT_GT(pi_quality.recall, ri_quality.recall);
}

TEST(PositionalShedderTest, LatencyBoundModeActivatesUnderOverload) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 6000;
  gen.seed = 66;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  ASSERT_TRUE(TrainFromReplay(&utility, *nfa, stream).ok());

  PositionalInputShedder shedder(&utility, /*theta=*/1.0, /*trigger_delay=*/100,
                                 /*seed=*/5);
  Engine engine(*nfa, EngineOptions{});
  ShedRunner runner(&engine, &shedder, LatencyMonitor::Options{});
  const RunResult r = runner.Run(stream);
  EXPECT_GT(r.dropped_events, 0u);  // bound is unreachable: must shed
}

}  // namespace
}  // namespace cepshed
