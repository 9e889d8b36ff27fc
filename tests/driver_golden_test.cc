// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Golden oracle for every per-event driver: ShedRunner (through
// ExperimentHarness::RunBoundSpec), MultiQueryRunner::Run,
// ShardRuntime::RunSequential under the overload guard and injected
// faults, and the soak harness. FNV-1a fingerprints fold each driver's
// matches, counters and latency statistics, plus the obs series the
// driver publishes: routed, processed, both drop counts, lost, matches,
// pms_shed and the event_cost histogram's count and sum. A refactor of
// the per-event step must keep these byte-identical; a moved fingerprint
// means some driver now sheds, charges or counts differently. Regenerate
// only for an intended behaviour change; the EXPECT failures print
// actual vs pinned.
//
// One series is left out on purpose: the soak's event_cost. A soak guard
// drop is meant to charge the dropped-event cost to mu and to event_cost,
// as a runtime guard drop does, so that histogram moves wherever the
// guard drops; every other soak output must not.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/fault_injector.h"
#include "src/runtime/experiment.h"
#include "src/runtime/multi_query.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/baselines.h"
#include "src/workload/ds1.h"
#include "src/workload/lab/soak.h"
#include "src/workload/queries.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

using cepshed::testing::FoldMatches;
using cepshed::testing::FoldStats;
using cepshed::testing::Fnv;

/// The series every driver already published before the per-event step
/// was shared, slot by slot.
void FoldObs(const obs::MetricsRegistry& metrics, bool with_event_cost, Fnv* f) {
  const obs::RegistrySnapshot snap = metrics.Snapshot();
  f->U64(snap.shards.size());
  for (const obs::ShardObsSnapshot& s : snap.shards) {
    f->U64(s.events_routed);
    f->U64(s.events_processed);
    f->U64(s.events_dropped_shedder);
    f->U64(s.events_dropped_guard);
    f->U64(s.events_lost);
    f->U64(s.matches_emitted);
    f->U64(s.pms_shed);
    if (with_event_cost) {
      f->U64(s.event_cost.count);
      f->F64(s.event_cost.sum);
    }
  }
}

class DriverGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    schema_ = new Schema(MakeDs1Schema());
    Ds1Options train;
    train.num_events = 5000;
    train.seed = 135;
    train_ = new EventStream(GenerateDs1(*schema_, train));
    Ds1Options test;
    test.num_events = 8000;
    test.seed = 136;
    test_ = new EventStream(GenerateDs1(*schema_, test));
  }

  static void TearDownTestSuite() {
    delete test_;
    delete train_;
    delete schema_;
  }

  static Schema* schema_;
  static EventStream* train_;
  static EventStream* test_;
};

Schema* DriverGoldenTest::schema_ = nullptr;
EventStream* DriverGoldenTest::train_ = nullptr;
EventStream* DriverGoldenTest::test_ = nullptr;

TEST_F(DriverGoldenTest, MultiQueryRun) {
  MultiQueryRunner runner(schema_, {{*queries::Q1(), 1.0}, {*queries::Q4(), 2.0}});
  ASSERT_TRUE(runner.Prepare(*train_).ok());
  const double budget = 0.5 * (runner.BaselineCost(0) + runner.BaselineCost(1));
  struct Case {
    const char* spec;
    double theta;
    uint64_t pinned;
  };
  const Case kCases[] = {
      {"", 0.0, 0x93412e88f8677efdULL},
      {"", budget, 0xf5fe77e67ea154a6ULL},
      {"rs", 0.0, 0x93412e88f8677efdULL},
      {"rs", budget, 0x0a43ae2d99ccbf03ULL},
      {"pspice", 0.0, 0x93412e88f8677efdULL},
      {"pspice", budget, 0x1cd4d87e26d7bda3ULL},
      {"hybrid", 0.0, 0x93412e88f8677efdULL},
      {"hybrid", budget, 0xc60e31092bde6e35ULL},
  };
  for (const Case& c : kCases) {
    obs::MetricsRegistry metrics;
    runner.set_metrics(&metrics);
    runner.set_shedder_spec(c.spec);
    auto r = runner.Run(*test_, c.theta);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    Fnv f;
    for (const PerQueryResult& q : r->queries) {
      f.Str(q.name);
      FoldMatches(q.matches, &f);
      f.F64(q.avg_latency);
      f.U64(q.dropped_events);
      f.U64(q.shed_pms);
    }
    f.F64(r->total_avg_latency);
    FoldObs(metrics, /*with_event_cost=*/true, &f);
    EXPECT_EQ(f.value(), c.pinned)
        << "spec '" << c.spec << "' theta " << c.theta << ": 0x" << std::hex
        << f.value();
  }
  runner.set_metrics(nullptr);
}

TEST_F(DriverGoldenTest, ShedRunnerBoundSpecs) {
  ExperimentHarness harness(schema_, *queries::Q1(), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(*train_, *test_).ok());
  struct Case {
    const char* spec;
    uint64_t pinned;
  };
  const Case kCases[] = {
      {"hybrid", 0x7d82d2a9f2570c3fULL},
      {"ri", 0x5d08771081d612a7ULL},
      {"rs", 0xabab1846559a25fdULL},
      {"pspice", 0xc8a1539b71fbdfc7ULL},
  };
  for (const Case& c : kCases) {
    obs::MetricsRegistry metrics;
    harness.mutable_options()->metrics = &metrics;
    auto r = harness.RunBoundSpec(c.spec, 0.5, LatencyStat::kP95, 64);
    harness.mutable_options()->metrics = nullptr;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const RunResult& raw = r->raw;
    Fnv f;
    FoldMatches(raw.matches, &f);
    f.U64(raw.total_events);
    f.U64(raw.dropped_events);
    f.U64(raw.processed_events);
    f.U64(raw.shed_pms);
    f.U64(raw.pms_created);
    f.F64(raw.avg_latency);
    f.F64(raw.p95_latency);
    f.F64(raw.p99_latency);
    f.U64(raw.bound_violations);
    f.U64(raw.bound_checked);
    f.U64(raw.pm_series.size());
    for (size_t n : raw.pm_series) f.U64(n);
    f.U64(raw.pm_series_stride);
    FoldStats(raw.engine_stats, &f);
    FoldObs(metrics, /*with_event_cost=*/true, &f);
    EXPECT_EQ(f.value(), c.pinned) << c.spec << ": 0x" << std::hex << f.value();
  }
}

TEST_F(DriverGoldenTest, SequentialRuntimeWithGuardAndFaults) {
  auto nfa = Nfa::Compile(*queries::Q1(), schema_);
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  auto faults = FaultInjector::Parse(
      "burst:shard=1,at=500,count=2000,factor=8;skew:at=100,count=300,us=-500");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  const ShardRuntime::ShedderFactory rs = [](int shard) {
    LatencyBoundMode mode;
    mode.theta = 30.0;
    return std::make_unique<RandomStateShedder>(mode,
                                                1000 + static_cast<uint64_t>(shard));
  };
  struct Case {
    int shards;
    uint64_t pinned;
  };
  const Case kCases[] = {{1, 0xc052fdb7b85cc252ULL}, {2, 0xbcd9249593be1bb7ULL}};
  for (const Case& c : kCases) {
    obs::MetricsRegistry metrics;
    ShardRuntimeOptions opts;
    opts.num_shards = c.shards;
    opts.partition_attr = schema_->AttributeIndex("ID");
    opts.guard.enabled = true;
    opts.guard.theta = 40.0;
    opts.guard.memory_budget_bytes = 1u << 20;
    opts.faults = &*faults;
    opts.metrics = &metrics;
    auto runtime = ShardRuntime::Create(*nfa, opts);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    auto r = (*runtime)->RunSequential(*test_, rs);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    Fnv f;
    FoldMatches(r->matches, &f);
    FoldStats(r->stats, &f);
    f.U64(r->total_events);
    f.U64(r->routed_events);
    f.U64(r->dropped_events);
    f.U64(r->shed_pms);
    f.U64(r->lost_events);
    f.U64(r->guard_input_drops);
    f.U64(r->guard_trims);
    f.U64(r->guard_evictions);
    for (const ShardResult& s : r->shards) {
      f.U64(s.events_routed);
      f.U64(s.events_dropped);
      f.U64(s.events_processed);
      f.U64(s.shed_pms);
      f.F64(s.avg_latency);
      f.U64(s.bound_violations);
      f.U64(s.bound_checked);
      f.U64(s.events_lost);
      f.U64(s.events_rejected);
      f.U64(s.worker_restarts);
      f.U64(s.abandoned ? 1 : 0);
      f.U64(s.guard_input_drops);
      f.U64(s.guard_trims);
      f.U64(s.guard_evictions);
      f.U64(s.guard_escalations);
      f.I64(s.guard_final_level);
      f.I64(s.guard_peak_level);
      f.U64(s.guard_peak_state_bytes);
      FoldStats(s.stats, &f);
    }
    FoldObs(metrics, /*with_event_cost=*/true, &f);
    EXPECT_EQ(f.value(), c.pinned)
        << c.shards << " shards: 0x" << std::hex << f.value();
  }
}

TEST(DriverGoldenSoakTest, SoakRuns) {
  struct Case {
    const char* schedule;
    uint64_t pinned;
  };
  const Case kCases[] = {{"", 0x5921033807ba1756ULL},
                         {"3:4;5:2", 0x3a66cedc02bf246cULL}};
  for (const Case& c : kCases) {
    lab::SoakOptions options;
    options.num_shards = 2;
    options.cycles = 8;
    options.warmup_cycles = 2;
    options.events_per_cycle = 1500;
    options.memory_budget_bytes = 4u << 20;
    options.scale_schedule = c.schedule;
    lab::SoakRunner runner(options);
    auto r = runner.Run();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    Fnv f;
    f.U64(r->bounded ? 1 : 0);
    f.Str(r->violation);
    f.U64(r->truncated ? 1 : 0);
    f.U64(r->total_events);
    f.U64(r->total_matches);
    for (const lab::SoakCycleStats& s : r->cycles) {
      f.I64(s.cycle);
      f.Str(s.workload);
      f.U64(s.events);
      f.U64(s.matches);
      f.U64(s.guard_drops);
      f.U64(s.evictions);
      f.U64(s.state_bytes_peak);
      f.U64(s.arena_live_bytes_peak);
      f.U64(s.arena_capacity_bytes_end);
      f.U64(s.flat_cache_peak);
      f.I64(s.live_shards);
      f.U64(s.resized ? 1 : 0);
      f.U64(s.migrated_pms);
      f.U64(s.legacy_arena_bytes_end);
    }
    FoldObs(runner.metrics(), /*with_event_cost=*/false, &f);
    EXPECT_EQ(f.value(), c.pinned)
        << "schedule '" << c.schedule << "': 0x" << std::hex << f.value();
  }
}

}  // namespace
}  // namespace cepshed
