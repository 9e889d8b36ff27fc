// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Golden oracle for ExperimentHarness::Prepare and MultiQueryRunner::Prepare:
// FNV-1a fingerprints over everything the set-up trains or measures — the
// cost model's class tables, its event classifiers and utilities, the
// positional and pSPICE/hSPICE tables, the ground truth — and over the
// outcome of a latency-bound run of every strategy that consumes them.
// Set-up optimizations must keep these byte-identical: a moved fingerprint
// means some trained value (or a shedding decision built on it) changed.
// Regenerate only for an intended behaviour change; the EXPECT failures
// print actual vs pinned.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/runtime/experiment.h"
#include "src/runtime/multi_query.h"
#include "src/workload/ds1.h"
#include "src/workload/ds2.h"
#include "src/workload/queries.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

using cepshed::testing::Fnv;

/// Fingerprints of one prepared harness, one per trained ingredient.
struct PrepareFingerprint {
  uint64_t model = 0;       // class tables, offline per-type/per-state stats
  uint64_t events = 0;      // ClassifyEvent + EventUtility over the test stream
  uint64_t positional = 0;  // positional utility table + its calibration
  uint64_t learned = 0;     // pSPICE leaf values + hSPICE table
  uint64_t truth = 0;       // baseline latencies + truth size
};

PrepareFingerprint Fingerprint(const ExperimentHarness& h, const Schema& schema,
                               const EventStream& test) {
  PrepareFingerprint fp;
  const CostModel& model = h.model();
  {
    Fnv f;
    for (int s = 0; s < model.num_states(); ++s) {
      f.U64(static_cast<uint64_t>(model.NumClasses(s)));
      for (int32_t c = 0; c < model.NumClasses(s); ++c) {
        for (int slice = 0; slice < model.num_slices(); ++slice) {
          f.F64(model.Contribution(s, c, slice));
          f.F64(model.Consumption(s, c, slice));
          f.F64(model.ContributionMax(s, c, slice));
        }
      }
    }
    const OfflineStats& off = h.offline();
    f.U64(off.records.size());
    f.U64(off.num_matches);
    for (double u : off.type_utility) f.F64(u);
    for (double u : off.type_share) f.F64(u);
    for (double u : off.state_completion) f.F64(u);
    const ShedderContext ctx = h.MakeContext(-1.0, -1.0, 0);
    for (double u : *ctx.utility_samples) f.F64(u);
    fp.model = f.value();
  }
  {
    Fnv f;
    for (const EventPtr& e : test) {
      for (int s = 0; s < model.num_states(); ++s) {
        f.U64(static_cast<uint64_t>(model.ClassifyEvent(*e, s)));
      }
      f.F64(model.EventUtility(*e));
    }
    fp.events = f.value();
  }
  {
    Fnv f;
    const PositionalUtility& pos = h.positional();
    for (int t = 0; t < static_cast<int>(schema.num_event_types()); ++t) {
      for (int b = 0; b < pos.buckets(); ++b) {
        f.F64(pos.Utility(t, b * h.nfa()->window() / pos.buckets()));
      }
    }
    for (const EventPtr& e : test) f.F64(pos.Utility(e->type(), e->timestamp()));
    for (double u : pos.sorted_utilities()) f.F64(u);
    fp.positional = f.value();
  }
  {
    Fnv f;
    const PspiceModel& ps = h.pspice();
    for (int s = 0; s < ps.num_states(); ++s) {
      f.U64(ps.NumLeaves(s));
      for (size_t l = 0; l < ps.NumLeaves(s); ++l) {
        f.F64(ps.LeafValue(s, static_cast<int>(l)));
      }
    }
    for (int t = 0; t < static_cast<int>(schema.num_event_types()); ++t) {
      for (int s = 0; s < model.num_states(); ++s) f.F64(h.hspice().Utility(t, s));
    }
    fp.learned = f.value();
  }
  {
    Fnv f;
    f.F64(h.BaselineLatency(LatencyStat::kAverage));
    f.F64(h.BaselineLatency(LatencyStat::kP95));
    f.F64(h.BaselineLatency(LatencyStat::kP99));
    f.U64(h.truth().size());
    fp.truth = f.value();
  }
  return fp;
}

/// Fingerprint of a latency-bound run at half the unshed latency.
uint64_t RunFingerprint(ExperimentHarness* h, const std::string& spec) {
  Result<ExperimentResult> r = h->RunBoundSpec(spec, 0.5);
  EXPECT_TRUE(r.ok()) << spec << ": " << r.status().ToString();
  if (!r.ok()) return 0;
  Fnv f;
  f.F64(r->quality.recall);
  f.U64(r->raw.dropped_events);
  f.U64(r->raw.shed_pms);
  f.F64(r->raw.engine_stats.total_cost);
  return f.value();
}

void ExpectFingerprint(const PrepareFingerprint& got, const PrepareFingerprint& want) {
  EXPECT_EQ(got.model, want.model) << std::hex << "model 0x" << got.model;
  EXPECT_EQ(got.events, want.events) << std::hex << "events 0x" << got.events;
  EXPECT_EQ(got.positional, want.positional)
      << std::hex << "positional 0x" << got.positional;
  EXPECT_EQ(got.learned, want.learned) << std::hex << "learned 0x" << got.learned;
  EXPECT_EQ(got.truth, want.truth) << std::hex << "truth 0x" << got.truth;
}

struct SpecGolden {
  const char* spec;
  uint64_t fingerprint;
};

TEST(PrepareGoldenTest, Ds1Q1) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 5000;
  gen.seed = 131;
  const EventStream train = GenerateDs1(schema, gen);
  gen.num_events = 10000;
  gen.seed = 132;
  const EventStream test = GenerateDs1(schema, gen);

  ExperimentHarness harness(&schema, *queries::Q1("8ms"), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(train, test).ok());
  ExpectFingerprint(Fingerprint(harness, schema, test),
                    {0xe6345bb936710bc3ULL, 0x3aade63f52db06f0ULL, 0x2661196259ec7326ULL,
                     0xd09be2dcf285dbeaULL, 0x2db8fc16e25ebfcdULL});

  const SpecGolden runs[] = {
      {"hybrid", 0xbeb21f3ed4537438ULL}, {"pi", 0x70692349629e8670ULL},
      {"hspice", 0x02322f97fd9e5ad9ULL}, {"pspice", 0xa242aead9c88fbb2ULL},
      {"hyi", 0x555b22621cd902ecULL},    {"hys", 0x6fcc62b5e8aaefadULL},
      {"si", 0xf5e62e2575e9577cULL},     {"ss", 0x1e580af306a169a2ULL},
  };
  for (const SpecGolden& g : runs) {
    const uint64_t got = RunFingerprint(&harness, g.spec);
    EXPECT_EQ(got, g.fingerprint) << g.spec << std::hex << " 0x" << got;
  }
}

TEST(PrepareGoldenTest, Ds2Q3) {
  // A second query shape: DS2's wider attribute set feeds more tree
  // features per state than Q1's ID/V pair.
  const Schema schema = MakeDs2Schema();
  Ds2Options gen;
  gen.num_events = 6000;
  gen.seed = 133;
  const EventStream train = GenerateDs2(schema, gen);
  gen.seed = 134;
  const EventStream test = GenerateDs2(schema, gen);

  ExperimentHarness harness(&schema, *queries::Q3(), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(train, test).ok());
  ExpectFingerprint(Fingerprint(harness, schema, test),
                    {0x579955ccf59fededULL, 0xf780521d24f3861dULL, 0x4c7070cb05e4f90fULL,
                     0xcad89de01c91f38cULL, 0xade4672c3e44091fULL});
  const uint64_t hybrid = RunFingerprint(&harness, "hybrid");
  EXPECT_EQ(hybrid, 0x7229d47beadc2032ULL) << std::hex << "hybrid 0x" << hybrid;
}

TEST(PrepareGoldenTest, MultiQueryBaselineCosts) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 5000;
  gen.seed = 135;
  const EventStream train = GenerateDs1(schema, gen);
  MultiQueryRunner runner(&schema, {{*queries::Q1("8ms"), 1.0}, {*queries::Q4("8ms"), 2.0}});
  ASSERT_TRUE(runner.Prepare(train).ok());
  Fnv f;
  f.F64(runner.BaselineCost(0));
  f.F64(runner.BaselineCost(1));
  EXPECT_EQ(f.value(), 0xc89023cab4715e84ULL) << std::hex << "baseline costs 0x" << f.value();
}

}  // namespace
}  // namespace cepshed
