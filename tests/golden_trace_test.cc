// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Golden-trace regression tests: the workload generators are documented as
// deterministic, portable functions of their options (the Rng is a
// fixed-algorithm xoshiro256**, not std::mt19937), and everything
// downstream leans on that — recorded traces, differential runs, the
// paper-figure benches, and the adversarial lab all assume a seed pins a
// stream forever. These tests freeze that contract: an FNV-1a checksum
// over a canonical byte serialization of the first N events of every
// generator, per seed. If a generator change breaks the encoding of
// history, the checksum here moves and the change must be called out as a
// stream-format break (and recorded traces regenerated) rather than slip
// in silently.

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/cep/stream.h"
#include "src/workload/citibike.h"
#include "src/workload/ds1.h"
#include "src/workload/ds2.h"
#include "src/workload/google_trace.h"
#include "src/workload/lab/hostile.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

// --- canonical event checksum ------------------------------------------

/// Checksums the first `n` events (or all, if fewer) byte-canonically:
/// every field is folded in a fixed little-endian order, so the value is
/// identical on any platform the Rng is stable on.
uint64_t ChecksumStream(const EventStream& stream, size_t n) {
  cepshed::testing::Fnv f;
  const size_t limit = std::min(n, stream.size());
  for (size_t i = 0; i < limit; ++i) cepshed::testing::FoldEvent(*stream[i], &f);
  return f.value();
}

constexpr size_t kGoldenEvents = 2000;

// --- the pinned values --------------------------------------------------
// Regenerate with: the EXPECT failures below print actual vs pinned.

struct Golden {
  uint64_t seed;
  uint64_t checksum;
};

TEST(GoldenTraceTest, Ds1) {
  const Schema schema = MakeDs1Schema();
  const Golden golden[] = {
      {1, 0x025fa653de502b92ULL},
      {7, 0xc59f4b77932f3aedULL},
  };
  for (const Golden& g : golden) {
    Ds1Options options;
    options.num_events = kGoldenEvents;
    options.seed = g.seed;
    const EventStream stream = GenerateDs1(schema, options);
    EXPECT_EQ(ChecksumStream(stream, kGoldenEvents), g.checksum)
        << "ds1 seed " << g.seed;
  }
}

TEST(GoldenTraceTest, Ds2) {
  const Schema schema = MakeDs2Schema();
  const Golden golden[] = {
      {2, 0x5ff9fb81b892bef6ULL},
      {9, 0x6f510b61afba70d1ULL},
  };
  for (const Golden& g : golden) {
    Ds2Options options;
    options.num_events = kGoldenEvents;
    options.seed = g.seed;
    const EventStream stream = GenerateDs2(schema, options);
    EXPECT_EQ(ChecksumStream(stream, kGoldenEvents), g.checksum)
        << "ds2 seed " << g.seed;
  }
}

TEST(GoldenTraceTest, Citibike) {
  const Schema schema = MakeCitibikeSchema();
  const Golden golden[] = {
      {3, 0x8b47cf96afa49f31ULL},
      {12, 0x5a83c6c0f053b403ULL},
  };
  for (const Golden& g : golden) {
    CitibikeOptions options;
    options.num_events = kGoldenEvents;
    options.seed = g.seed;
    const EventStream stream = GenerateCitibike(schema, options);
    EXPECT_EQ(ChecksumStream(stream, kGoldenEvents), g.checksum)
        << "citibike seed " << g.seed;
  }
}

TEST(GoldenTraceTest, GoogleTrace) {
  const Schema schema = MakeGoogleTraceSchema();
  const Golden golden[] = {
      {4, 0x597164f5287eae09ULL},
      {21, 0xb7a3b0e505bc61d6ULL},
  };
  for (const Golden& g : golden) {
    GoogleTraceOptions options;
    options.num_events = kGoldenEvents;
    options.seed = g.seed;
    const EventStream stream = GenerateGoogleTrace(schema, options);
    EXPECT_EQ(ChecksumStream(stream, kGoldenEvents), g.checksum)
        << "google_trace seed " << g.seed;
  }
}

TEST(GoldenTraceTest, HostileGenerators) {
  const Schema schema = MakeDs1Schema();
  {
    lab::DriftOptions options;
    options.num_events = kGoldenEvents;
    const EventStream stream = lab::GenerateDriftStream(schema, options);
    EXPECT_EQ(ChecksumStream(stream, kGoldenEvents), 0xf2d474de5bf5500fULL)
        << "drift";
  }
  {
    lab::BurstOptions options;
    options.num_events = kGoldenEvents;
    options.anchor_schedule = "burst:at=500,count=600,factor=8";
    const auto stream = lab::GenerateBurstStream(schema, options);
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ(ChecksumStream(*stream, kGoldenEvents), 0x739f0b46b0fff561ULL)
        << "burst";
  }
  {
    lab::KleeneBombOptions options;
    options.num_events = kGoldenEvents;
    const EventStream stream = lab::GenerateKleeneBomb(schema, options);
    EXPECT_EQ(ChecksumStream(stream, kGoldenEvents), 0x17d252a7fe9a4062ULL)
        << "kleene";
  }
}

/// Distinct seeds must yield distinct streams — a collapsed generator
/// would make every per-seed golden value above vacuous.
TEST(GoldenTraceTest, SeedsProduceDistinctStreams) {
  const Schema schema = MakeDs1Schema();
  Ds1Options a, b;
  a.num_events = b.num_events = 500;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(ChecksumStream(GenerateDs1(schema, a), 500),
            ChecksumStream(GenerateDs1(schema, b), 500));
}

}  // namespace
}  // namespace cepshed
