// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Sequential-equivalence differential harness for the sharded runtime.
// Every seeded, generator-driven stream is replayed three ways:
//
//   1. the plain sequential engine (via ShedRunner) — the semantic ground
//      truth f_Q of the paper;
//   2. ShardRuntime::Run — N worker threads behind ring queues;
//   3. ShardRuntime::RunSequential — the identical sharded plan replayed
//      on one thread.
//
// For exact plans (hash routing over partition-correlated queries; window
// slicing for any-match time-window queries) 1 and 2 must produce the same
// match set and consistent stats; 2 and 3 must agree byte for byte — any
// divergence there is nondeterminism introduced by the parallel path
// itself. 1 and 3 are also pinned: a fingerprint of each (matches, every
// engine counter, total cost) must equal the grid's golden table. The grid
// covers queries × selection policies × shard counts {1,2,4,8} × shedding
// on/off.
//
// Shedding runs use a content-hash shedder: rho_I drops an event iff a
// hash of its stream sequence number falls under a threshold, and rho_S
// kills a partial match iff a hash folded over its bound events' sequence
// numbers does. Such decisions are pure functions of content, so they
// commute with any partitioning — sharded-with-shedding must equal
// sequential-with-shedding exactly.

#include "src/runtime/shard_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <cstdio>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/cep/stream.h"
#include "src/query/parser.h"
#include "src/shed/controller.h"
#include "src/shed/shedder.h"
#include "src/workload/ds1.h"
#include "src/workload/google_trace.h"
#include "src/workload/lab/trace.h"
#include "src/workload/queries.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

using cepshed::testing::FoldMatches;
using cepshed::testing::FoldStats;
using cepshed::testing::Fnv;

constexpr int kShardCounts[] = {1, 2, 4, 8};

uint64_t MixSeq(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic content-hash shedder (see file header). Decisions depend
/// only on event sequence numbers, never on shard-local state, so N
/// instances with the same seed behave as one global shedder.
class HashDropShedder : public Shedder {
 public:
  HashDropShedder(uint64_t seed, double event_drop_frac, double pm_drop_frac)
      : seed_(seed), event_cut_(Cut(event_drop_frac)), pm_cut_(Cut(pm_drop_frac)) {}

  std::string Name() const override { return "HashDrop"; }

  bool FilterEvent(const Event& event) override {
    if (event_cut_ != 0 && MixSeq(seed_ ^ event.seq()) < event_cut_) {
      return DropEvent();
    }
    return false;
  }

  void AfterEvent(Timestamp, double) override {
    if (pm_cut_ == 0) return;
    engine_->store().ForEachAlive([&](PartialMatch* pm) {
      // The hash folds event seqs in stream order, so flatten the chain
      // first — walking it newest-first would change every decision.
      pm->FlattenTo(&scratch_);
      uint64_t h = seed_ ^ 0x5bf03635aca73f4cULL;
      for (const Event* e : scratch_) h = MixSeq(h ^ e->seq());
      if (h < pm_cut_) KillPm(pm);
    });
  }

 private:
  static uint64_t Cut(double frac) {
    if (frac <= 0.0) return 0;
    return static_cast<uint64_t>(
        frac * static_cast<double>(std::numeric_limits<uint64_t>::max()));
  }

  uint64_t seed_;
  uint64_t event_cut_;
  uint64_t pm_cut_;
  std::vector<const Event*> scratch_;
};

constexpr uint64_t kShedSeed = 17;
constexpr double kEventDropFrac = 0.12;
constexpr double kPmDropFrac = 0.10;

/// One cell of the differential grid.
struct DiffConfig {
  std::string name;
  const Schema* schema = nullptr;
  const EventStream* stream = nullptr;
  Query query;
  ShardRouting routing = ShardRouting::kHashPartition;
  std::string partition_attr;  // resolved against `schema`
  Duration slice_stride = 0;
};

/// Matches in the merge's canonical order: (detection time, identity).
struct CanonMatch {
  Timestamp ts;
  std::string key;
  bool operator==(const CanonMatch& o) const = default;
  bool operator<(const CanonMatch& o) const {
    if (ts != o.ts) return ts < o.ts;
    return key < o.key;
  }
};

std::vector<CanonMatch> Canon(const std::vector<Match>& matches) {
  std::vector<CanonMatch> out;
  out.reserve(matches.size());
  for (const Match& m : matches) out.push_back({m.detected_at, m.Key()});
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectStatsEqual(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.pms_created, b.pms_created);
  EXPECT_EQ(a.witnesses_created, b.witnesses_created);
  EXPECT_EQ(a.matches_emitted, b.matches_emitted);
  EXPECT_EQ(a.matches_vetoed, b.matches_vetoed);
  EXPECT_EQ(a.pms_evicted, b.pms_evicted);
  EXPECT_EQ(a.predicate_evals, b.predicate_evals);
  EXPECT_EQ(a.candidates_scanned, b.candidates_scanned);
  EXPECT_EQ(a.index_probes, b.index_probes);
  EXPECT_EQ(a.peak_pms, b.peak_pms);
  EXPECT_EQ(a.total_cost, b.total_cost);
}

/// Byte-for-byte equality of two sharded runs (everything but wall time).
void ExpectRunsIdentical(const ShardRunResult& a, const ShardRunResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.routed_events, b.routed_events);
  EXPECT_EQ(a.dropped_events, b.dropped_events);
  EXPECT_EQ(a.shed_pms, b.shed_pms);
  ExpectStatsEqual(a.stats, b.stats);

  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].detected_at, b.matches[i].detected_at);
    EXPECT_EQ(a.matches[i].Key(), b.matches[i].Key());
  }

  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(a.shards[i].events_routed, b.shards[i].events_routed);
    EXPECT_EQ(a.shards[i].events_dropped, b.shards[i].events_dropped);
    EXPECT_EQ(a.shards[i].events_processed, b.shards[i].events_processed);
    EXPECT_EQ(a.shards[i].shed_pms, b.shards[i].shed_pms);
    EXPECT_EQ(a.shards[i].avg_latency, b.shards[i].avg_latency);
    ExpectStatsEqual(a.shards[i].stats, b.shards[i].stats);
  }
}

/// Pinned fingerprints of one grid row, keyed by DiffConfig::name.
/// pinned[shed][0] is the sequential reference (matches, every EngineStats
/// field, drops, shed matches); pinned[shed][1 + k] is RunSequential at
/// kShardCounts[k] shards (matches, merged and per-shard stats, per-shard
/// routing counters and avg_latency). They pin the engine's expiry,
/// strict-contiguity and predicate paths across the whole grid; a moved
/// value means some path now matches, charges or counts differently.
/// Regenerate only for an intended behaviour change; the EXPECT failures
/// print actual vs pinned.
struct GridGolden {
  const char* config;
  uint64_t pinned[2][5];
};

constexpr GridGolden kGridGoldens[] = {
    {"Q1/any/hash",
     {{0x19fded4e088fdb52ULL, 0x9e82eaf83be4901fULL, 0x2db4a6c677f732dcULL,
       0x47d9113196c0e770ULL, 0x6334564d7d69e1a0ULL},
      {0xe4faea3c8f32e4f7ULL, 0x5e957b2a585d16c0ULL, 0x10cf97a48b4188c7ULL,
       0x8b59b1dcd2c60647ULL, 0xcebb39a1fa5fc007ULL}}},
    {"Q1/next/hash",
     {{0x8bbbcefa533a234cULL, 0xd3e7f5120d01e2a2ULL, 0x5b0c4a0215d62347ULL,
       0x8def881d4cf7192dULL, 0xd7971b40e4760e98ULL},
      {0x7c4ab11339ef794cULL, 0x33d6586bbf332e2eULL, 0x4ab7a2065d9af3faULL,
       0x7e71b0b566a8d422ULL, 0xf68b99704405fbe6ULL}}},
    {"Kleene/any/hash",
     {{0x0be71c18960567c7ULL, 0x7d395b66853973f5ULL, 0x61c271298e090be1ULL,
       0x3f0d842562539ceaULL, 0xe77356fd54374f18ULL},
      {0x8d8417e7845fba61ULL, 0xd5d195035034ee85ULL, 0xe3ac146faca36d12ULL,
       0x57510e3c76385187ULL, 0x8dd912c91349f65cULL}}},
    {"Kleene/next/hash",
     {{0x3ac600a095d58a70ULL, 0xcb884dfb3dd3c8c0ULL, 0x43d62274af6b02bfULL,
       0xae41c0cbc0afc0eaULL, 0xe468c0eb04f5d87bULL},
      {0x18670e3eb1e2d7a2ULL, 0x6ef6803aa74affcfULL, 0xd94db37ed17acc05ULL,
       0xdf7c2e6faa587991ULL, 0x4089d8104b12b07fULL}}},
    {"LiteralFilter/any/hash",
     {{0x4b36ec514bd9759fULL, 0x6e8360c9e3bcc303ULL, 0x5db39710b415547eULL,
       0xfcb19bd4667ab44eULL, 0x6fca30646756cd97ULL},
      {0x1932e7978df014a2ULL, 0x8d11cca38608e262ULL, 0xa7e4cef7c83c5576ULL,
       0x5a4925ddd623e1adULL, 0x4538918d192cb06cULL}}},
    {"Q4/any/hash",
     {{0xccde4b9394c072cdULL, 0xf72d299e8009f16dULL, 0xdd2ef5fcba0199e6ULL,
       0xcb17da4acbe95ceeULL, 0xb7f50075dc741e09ULL},
      {0x35817d8efcf3a7d5ULL, 0x14bf0529e4712a75ULL, 0x3fdd9c4755b4073cULL,
       0x97377889da1084edULL, 0xb31af4728122a60cULL}}},
    {"Q1/count/any/hash",
     {{0x637d3a50e194954bULL, 0xe0fab42f93bf9d82ULL, 0x8939400a3e71832dULL,
       0x461837a241d941b2ULL, 0xa570fd5db682145eULL},
      {0x2b38b49af38cc6dcULL, 0xd64dbccb7f046530ULL, 0xafc7d2803e9cb543ULL,
       0xd44d10e0000cb3f7ULL, 0xe69665c2f9facb8dULL}}},
    {"GoogleChurn/any/hash",
     {{0xd2259c28f23c508dULL, 0x90ad0e7418848574ULL, 0xfc417de17ea71185ULL,
       0x9d0ab6a0addd906cULL, 0xb948ac69d55f3f4dULL},
      {0xe008a199847e5deaULL, 0xb1a7ab5b81ee1d30ULL, 0x7d146ccc620ba7bfULL,
       0xcb2815d5bdf0656dULL, 0x1b404a495bd8e02eULL}}},
    {"KleeneNeg/any/hash/replayed",
     {{0x3067deef2c013aceULL, 0x99f6f578f93437bcULL, 0x79a33a8bbb8dbeeeULL,
       0xa48cd63a03532f0dULL, 0xbcc7e8e08b0c6ed0ULL},
      {0x9cdd54ac91db6b75ULL, 0x784f863170afaaa8ULL, 0x7e117ce0cfed62bcULL,
       0x15c3560296673376ULL, 0x98b32ebbcd9a0e12ULL}}},
    {"Q1/any/slice",
     {{0x19fded4e088fdb52ULL, 0x9e82eaf83be4901fULL, 0x65b7b99a32e3527fULL,
       0x4559b42c46b433baULL, 0xe1992838ab4ef50dULL},
      {0xe4faea3c8f32e4f7ULL, 0x5e957b2a585d16c0ULL, 0x94c6144edf4b812eULL,
       0xd8fee60e6befe2c7ULL, 0xcb6096a029a237edULL}}},
    {"Kleene/any/slice",
     {{0x0be71c18960567c7ULL, 0x7d395b66853973f5ULL, 0x57ffce2abd228eccULL,
       0xa9296c005f7a1149ULL, 0x0c25a5bebae17a64ULL},
      {0x8d8417e7845fba61ULL, 0xd5d195035034ee85ULL, 0x181f2457eda808a8ULL,
       0x2f08e8c4cde54347ULL, 0x11a4a2df2ff5c5b9ULL}}},
    {"Q4/any/slice",
     {{0xccde4b9394c072cdULL, 0xf72d299e8009f16dULL, 0xc64d7f9289413d0aULL,
       0xad98ce4c0621c62cULL, 0x44fe79c63421b9e4ULL},
      {0x35817d8efcf3a7d5ULL, 0x14bf0529e4712a75ULL, 0xe1d6214839e55499ULL,
       0x2f414c0e0cbdaff4ULL, 0xf05f6a7ddf7a4f1cULL}}},
};

uint64_t ReferenceFingerprint(const RunResult& r) {
  Fnv f;
  FoldMatches(r.matches, &f);
  FoldStats(r.engine_stats, &f);
  f.U64(r.total_events);
  f.U64(r.dropped_events);
  f.U64(r.processed_events);
  f.U64(r.shed_pms);
  return f.value();
}

uint64_t ShardedFingerprint(const ShardRunResult& r) {
  Fnv f;
  FoldMatches(r.matches, &f);
  FoldStats(r.stats, &f);
  f.U64(r.total_events);
  f.U64(r.routed_events);
  f.U64(r.dropped_events);
  f.U64(r.shed_pms);
  f.U64(r.shards.size());
  for (const ShardResult& s : r.shards) {
    f.U64(s.events_routed);
    f.U64(s.events_dropped);
    f.U64(s.events_processed);
    f.U64(s.shed_pms);
    f.F64(s.avg_latency);
    FoldStats(s.stats, &f);
  }
  return f.value();
}

void ExpectGridGolden(const std::string& name, const uint64_t (&got)[2][5]) {
  const GridGolden* golden = nullptr;
  for (const GridGolden& g : kGridGoldens) {
    if (name == g.config) golden = &g;
  }
  ASSERT_NE(golden, nullptr) << "no pinned fingerprints for " << name;
  for (int shed = 0; shed < 2; ++shed) {
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(got[shed][k], golden->pinned[shed][k])
          << name << (shed ? " shed" : " no-shed")
          << (k == 0 ? " reference" : " shards=" + std::to_string(kShardCounts[k - 1]))
          << std::hex << ": 0x" << got[shed][k];
    }
  }
}

/// Ground-truth run on one global engine with one (optional) shedder.
RunResult SequentialReference(const std::shared_ptr<const Nfa>& nfa,
                              const EventStream& stream, bool shed) {
  Engine engine(nfa, EngineOptions{});
  NoShedder none;
  HashDropShedder drop(kShedSeed, kEventDropFrac, kPmDropFrac);
  Shedder* shedder = shed ? static_cast<Shedder*>(&drop) : &none;
  ShedRunner runner(&engine, shedder, LatencyMonitor::Options{});
  return runner.Run(stream);
}

void RunDifferential(const DiffConfig& config) {
  auto nfa = Nfa::Compile(config.query, config.schema);
  ASSERT_TRUE(nfa.ok()) << nfa.status().message();

  const int attr = config.partition_attr.empty()
                       ? -1
                       : config.schema->AttributeIndex(config.partition_attr);

  uint64_t fingerprints[2][5] = {};
  for (const bool shed : {false, true}) {
    const RunResult expected = SequentialReference(*nfa, *config.stream, shed);
    fingerprints[shed][0] = ReferenceFingerprint(expected);
    // A degenerate reference would make the equivalence vacuous.
    ASSERT_GT(expected.matches.size(), 0u)
        << config.name << ": reference run produced no matches";
    const std::vector<CanonMatch> expected_canon = Canon(expected.matches);

    for (size_t k = 0; k < std::size(kShardCounts); ++k) {
      const int num_shards = kShardCounts[k];
      SCOPED_TRACE(config.name + " shards=" + std::to_string(num_shards) +
                   (shed ? " shed" : " no-shed"));

      ShardRuntimeOptions opts;
      opts.num_shards = num_shards;
      opts.routing = config.routing;
      opts.partition_attr = attr;
      opts.slice_stride = config.slice_stride;
      auto runtime = ShardRuntime::Create(*nfa, opts);
      ASSERT_TRUE(runtime.ok()) << runtime.status().message();

      ShardRuntime::ShedderFactory factory;
      if (shed) {
        factory = [](int) {
          return std::make_unique<HashDropShedder>(kShedSeed, kEventDropFrac,
                                                   kPmDropFrac);
        };
      }

      auto parallel = (*runtime)->Run(*config.stream, factory);
      ASSERT_TRUE(parallel.ok()) << parallel.status().message();
      auto replay = (*runtime)->RunSequential(*config.stream, factory);
      ASSERT_TRUE(replay.ok()) << replay.status().message();

      // (B) The parallel path is deterministic: Run == RunSequential.
      ExpectRunsIdentical(*parallel, *replay);
      fingerprints[shed][1 + k] = ShardedFingerprint(*replay);

      // Routing accounting is consistent.
      EXPECT_EQ(parallel->total_events, config.stream->size());
      uint64_t routed = 0;
      for (const ShardResult& s : parallel->shards) {
        EXPECT_EQ(s.events_routed, s.events_processed + s.events_dropped);
        routed += s.events_routed;
      }
      EXPECT_EQ(routed, parallel->routed_events);
      if (config.routing == ShardRouting::kHashPartition) {
        EXPECT_EQ(parallel->routed_events, config.stream->size());
      } else {
        EXPECT_GE(parallel->routed_events, config.stream->size());
      }

      // (A) The sharded plan is exact: same match set as the sequential
      // engine, with or without (content-deterministic) shedding.
      EXPECT_EQ(Canon(parallel->matches), expected_canon);
      // The merge emits matches already in canonical order.
      EXPECT_EQ(Canon(parallel->matches), Canon(std::vector<Match>(parallel->matches)));

      if (config.routing == ShardRouting::kHashPartition) {
        // Each event is processed exactly once, so summed engine counters
        // must reproduce the global engine's.
        EXPECT_EQ(parallel->stats.matches_emitted,
                  expected.engine_stats.matches_emitted);
        EXPECT_EQ(parallel->stats.pms_created, expected.engine_stats.pms_created);
        EXPECT_EQ(parallel->stats.witnesses_created,
                  expected.engine_stats.witnesses_created);
        EXPECT_EQ(parallel->stats.events_processed,
                  expected.engine_stats.events_processed);
        EXPECT_EQ(parallel->dropped_events, expected.dropped_events);
        EXPECT_EQ(parallel->shed_pms, expected.shed_pms);
      } else {
        // Slice routing replicates events, so raw counters differ; after
        // dedup the emitted-match counter must still agree.
        EXPECT_EQ(parallel->stats.matches_emitted,
                  expected.engine_stats.matches_emitted);
      }
    }
  }
  // (C) Every fingerprint equals the pinned one.
  ExpectGridGolden(config.name, fingerprints);
}

// ---------------------------------------------------------------------------
// Fixtures: seeded generator streams shared across the grid.

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds1_schema_ = new Schema(MakeDs1Schema());
    Ds1Options ds1;
    ds1.num_events = 3000;
    ds1.event_gap = 10;
    ds1.seed = 7;
    ds1_stream_ = new EventStream(GenerateDs1(*ds1_schema_, ds1));

    google_schema_ = new Schema(MakeGoogleTraceSchema());
    GoogleTraceOptions gt;
    gt.num_events = 8000;
    gt.seed = 4;
    google_stream_ = new EventStream(GenerateGoogleTrace(*google_schema_, gt));
  }

  static void TearDownTestSuite() {
    delete ds1_stream_;
    delete ds1_schema_;
    delete google_stream_;
    delete google_schema_;
  }

  static Query ParseOrDie(const std::string& text) {
    auto q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return *q;
  }

  /// A fully ID-correlated Kleene query (unlike the paper's Q2, whose last
  /// element is only value-correlated and therefore not hash-shardable).
  static Query CorrelatedKleene() {
    return ParseOrDie(
        "PATTERN SEQ(A a, A+{1,3} b[], B c, C d) "
        "WHERE a.ID = b[i].ID AND a.ID = c.ID AND a.ID = d.ID "
        "AND a.V + c.V = d.V WITHIN 2ms");
  }

  static DiffConfig Ds1Config(std::string name, Query query,
                              ShardRouting routing = ShardRouting::kHashPartition) {
    DiffConfig c;
    c.name = std::move(name);
    c.schema = ds1_schema_;
    c.stream = ds1_stream_;
    c.query = std::move(query);
    c.routing = routing;
    if (routing == ShardRouting::kHashPartition) c.partition_attr = "ID";
    return c;
  }

  static Schema* ds1_schema_;
  static EventStream* ds1_stream_;
  static Schema* google_schema_;
  static EventStream* google_stream_;
};

Schema* DifferentialTest::ds1_schema_ = nullptr;
EventStream* DifferentialTest::ds1_stream_ = nullptr;
Schema* DifferentialTest::google_schema_ = nullptr;
EventStream* DifferentialTest::google_stream_ = nullptr;

// --- hash partitioning, one test per (query, policy) grid row ---

TEST_F(DifferentialTest, HashQ1AnyMatch) {
  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  RunDifferential(Ds1Config("Q1/any/hash", *q));
}

TEST_F(DifferentialTest, HashQ1NextMatch) {
  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  q->policy = SelectionPolicy::kSkipTillNextMatch;
  RunDifferential(Ds1Config("Q1/next/hash", *q));
}

TEST_F(DifferentialTest, HashKleeneAnyMatch) {
  RunDifferential(Ds1Config("Kleene/any/hash", CorrelatedKleene()));
}

TEST_F(DifferentialTest, HashKleeneNextMatch) {
  Query q = CorrelatedKleene();
  q.policy = SelectionPolicy::kSkipTillNextMatch;
  RunDifferential(Ds1Config("Kleene/next/hash", q));
}

TEST_F(DifferentialTest, HashLiteralFilterAnyMatch) {
  // Attr-vs-literal predicates on the current event (single fused
  // compares against a constant): Run's PopBatch worker loop, RunSequential
  // and the sequential reference must all agree exactly, and the row's
  // goldens pin the reference and 1/2/4/8 shards, shedding off and on.
  RunDifferential(Ds1Config(
      "LiteralFilter/any/hash",
      ParseOrDie("PATTERN SEQ(A a, B b, C c) "
                 "WHERE a.V > 3 AND c.V <= 9 AND a.ID = b.ID AND a.ID = c.ID "
                 "WITHIN 8ms")));
}

TEST_F(DifferentialTest, HashNegationAnyMatch) {
  auto q = queries::Q4();
  ASSERT_TRUE(q.ok());
  RunDifferential(Ds1Config("Q4/any/hash", *q));
}

TEST_F(DifferentialTest, HashCountWindowAnyMatch) {
  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  // Count windows expire by absolute stream position, which events carry
  // with them into the shards — hash plans stay exact.
  q->count_window = 256;
  RunDifferential(Ds1Config("Q1/count/any/hash", *q));
}

TEST_F(DifferentialTest, HashGoogleChurnAnyMatch) {
  auto q = queries::GoogleTaskChurn();
  ASSERT_TRUE(q.ok());
  DiffConfig c;
  c.name = "GoogleChurn/any/hash";
  c.schema = google_schema_;
  c.stream = google_stream_;
  c.query = *q;
  c.routing = ShardRouting::kHashPartition;
  c.partition_attr = "task";
  RunDifferential(c);
}

// --- record/replay: the trace recorder feeds the differential harness ---

/// The lab's end-to-end loop on the hardest query shape: Kleene closure
/// AND a negated element AND shedding, recorded from a live sharded run
/// through the ingest tap, then replayed from the trace file. The replayed
/// stream must (a) reproduce the recording run bit for bit and (b) pass
/// the full differential grid — i.e. a trace capture is a first-class
/// workload, not a lossy log.
TEST_F(DifferentialTest, KleeneNegationShedReplayedFromRecordedTrace) {
  Query query = ParseOrDie(
      "PATTERN SEQ(A a, A+{1,2} b[], !B nb, C c) "
      "WHERE a.ID = b[i].ID AND a.ID = nb.ID AND a.ID = c.ID "
      "AND a.V + nb.V = c.V WITHIN 2ms");
  auto nfa = Nfa::Compile(query, ds1_schema_);
  ASSERT_TRUE(nfa.ok()) << nfa.status().message();

  // Record a live 4-shard shedded run of the fixture stream.
  const std::string path = ::testing::TempDir() + "/differential.trace";
  auto writer = lab::TraceWriter::Open(path, *ds1_schema_);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ShardRuntimeOptions opts;
  opts.num_shards = 4;
  opts.partition_attr = ds1_schema_->AttributeIndex("ID");
  opts.ingest_tap = [&](const EventPtr& event, const std::vector<int>&) {
    ASSERT_TRUE((*writer)->Append(*event).ok());
  };
  auto runtime = ShardRuntime::Create(*nfa, opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status().message();
  const ShardRuntime::ShedderFactory factory = [](int) {
    return std::make_unique<HashDropShedder>(kShedSeed, kEventDropFrac,
                                             kPmDropFrac);
  };
  auto recorded = (*runtime)->RunSequential(*ds1_stream_, factory);
  ASSERT_TRUE(recorded.ok()) << recorded.status().message();
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_GT(recorded->matches.size(), 0u) << "degenerate recording";
  ASSERT_GT(recorded->stats.matches_vetoed, 0u) << "negation never engaged";
  ASSERT_GT(recorded->dropped_events, 0u) << "shedding never engaged";

  auto capture = lab::ReadTrace(path);
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  ASSERT_EQ(capture->stream.size(), ds1_stream_->size());

  // (a) Replaying the capture reproduces the recorded run exactly.
  opts.ingest_tap = nullptr;
  auto replay_runtime = ShardRuntime::Create(*nfa, opts);
  ASSERT_TRUE(replay_runtime.ok());
  auto replayed = (*replay_runtime)->RunSequential(capture->stream, factory);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ExpectRunsIdentical(*recorded, *replayed);

  // (b) The replayed stream passes the whole differential grid, against
  // the schema reconstructed from the trace file itself.
  DiffConfig c;
  c.name = "KleeneNeg/any/hash/replayed";
  c.schema = capture->schema.get();
  c.stream = &capture->stream;
  c.query = query;
  c.routing = ShardRouting::kHashPartition;
  c.partition_attr = "ID";
  RunDifferential(c);
  std::remove(path.c_str());
}

// --- window-slice routing ---

TEST_F(DifferentialTest, SliceQ1AnyMatch) {
  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  DiffConfig c = Ds1Config("Q1/any/slice", *q, ShardRouting::kWindowSlice);
  c.slice_stride = Millis(4);  // duplication factor 3
  RunDifferential(c);
}

TEST_F(DifferentialTest, SliceKleeneAnyMatch) {
  DiffConfig c =
      Ds1Config("Kleene/any/slice", CorrelatedKleene(), ShardRouting::kWindowSlice);
  c.slice_stride = Millis(1);
  RunDifferential(c);
}

TEST_F(DifferentialTest, SliceNegationAnyMatch) {
  auto q = queries::Q4();
  ASSERT_TRUE(q.ok());
  DiffConfig c = Ds1Config("Q4/any/slice", *q, ShardRouting::kWindowSlice);
  c.slice_stride = Millis(4);
  RunDifferential(c);
}

// ---------------------------------------------------------------------------
// Static plan validation: inexact plans must be rejected, not silently run.

class ShardPlanTest : public DifferentialTest {};

TEST_F(ShardPlanTest, PartitionCorrelationAnalysis) {
  const int id = ds1_schema_->AttributeIndex("ID");
  const int v = ds1_schema_->AttributeIndex("V");

  auto q1 = Nfa::Compile(*queries::Q1(), ds1_schema_);
  ASSERT_TRUE(q1.ok());
  EXPECT_TRUE(ShardRuntime::IsPartitionCorrelated(**q1, id));
  // a.V + b.V = c.V is not an equality *correlation* on V.
  EXPECT_FALSE(ShardRuntime::IsPartitionCorrelated(**q1, v));

  // Q2's final element correlates on V only — not shardable on ID.
  auto q2 = Nfa::Compile(*queries::Q2(2), ds1_schema_);
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(ShardRuntime::IsPartitionCorrelated(**q2, id));

  // The negated element of Q4 is correlated, so witnesses stay local.
  auto q4 = Nfa::Compile(*queries::Q4(), ds1_schema_);
  ASSERT_TRUE(q4.ok());
  EXPECT_TRUE(ShardRuntime::IsPartitionCorrelated(**q4, id));

  auto kleene = Nfa::Compile(CorrelatedKleene(), ds1_schema_);
  ASSERT_TRUE(kleene.ok());
  EXPECT_TRUE(ShardRuntime::IsPartitionCorrelated(**kleene, id));

  auto churn = Nfa::Compile(*queries::GoogleTaskChurn(), google_schema_);
  ASSERT_TRUE(churn.ok());
  EXPECT_TRUE(ShardRuntime::IsPartitionCorrelated(
      **churn, google_schema_->AttributeIndex("task")));
  // Machines change across the churn chain: not a partition key.
  EXPECT_FALSE(ShardRuntime::IsPartitionCorrelated(
      **churn, google_schema_->AttributeIndex("machine")));
}

TEST_F(ShardPlanTest, RejectsInexactPlans) {
  auto nfa = Nfa::Compile(*queries::Q1(), ds1_schema_);
  ASSERT_TRUE(nfa.ok());

  {  // hash routing without a partition attribute
    ShardRuntimeOptions opts;
    opts.num_shards = 4;
    EXPECT_FALSE(ShardRuntime::Create(*nfa, opts).ok());
  }
  {  // hash routing on an uncorrelated attribute
    ShardRuntimeOptions opts;
    opts.num_shards = 4;
    opts.partition_attr = ds1_schema_->AttributeIndex("V");
    EXPECT_FALSE(ShardRuntime::Create(*nfa, opts).ok());
  }
  {  // strict contiguity is inherently global
    Query q = *queries::Q1();
    q.policy = SelectionPolicy::kStrictContiguity;
    auto strict = Nfa::Compile(q, ds1_schema_);
    ASSERT_TRUE(strict.ok());
    ShardRuntimeOptions opts;
    opts.num_shards = 2;
    opts.partition_attr = ds1_schema_->AttributeIndex("ID");
    EXPECT_FALSE(ShardRuntime::Create(*strict, opts).ok());
  }
  {  // slice routing under a selective policy
    Query q = *queries::Q1();
    q.policy = SelectionPolicy::kSkipTillNextMatch;
    auto next = Nfa::Compile(q, ds1_schema_);
    ASSERT_TRUE(next.ok());
    ShardRuntimeOptions opts;
    opts.num_shards = 2;
    opts.routing = ShardRouting::kWindowSlice;
    EXPECT_FALSE(ShardRuntime::Create(*next, opts).ok());
  }
  {  // slice routing with a count window
    Query q = *queries::Q1();
    q.count_window = 128;
    auto count = Nfa::Compile(q, ds1_schema_);
    ASSERT_TRUE(count.ok());
    ShardRuntimeOptions opts;
    opts.num_shards = 2;
    opts.routing = ShardRouting::kWindowSlice;
    EXPECT_FALSE(ShardRuntime::Create(*count, opts).ok());
  }
  {  // a single shard is always exact, whatever the plan
    ShardRuntimeOptions opts;
    opts.num_shards = 1;
    EXPECT_TRUE(ShardRuntime::Create(*nfa, opts).ok());
  }
}

}  // namespace
}  // namespace cepshed
