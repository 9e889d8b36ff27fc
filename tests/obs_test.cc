// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Observability-layer tests: counter/histogram exactness under concurrent
// recording, quantile error bounds of the log-bucketed histogram, merge
// associativity (merge == recording the union), audit-ring ordering,
// wraparound and seqlock consistency under a concurrent reader (run under
// TSan in CI), exporter output, snapshot determinism of the sharded
// runtime's parallel path against its sequential replay, and series parity
// across the single-engine, sharded and multi-query drivers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/scoped_timer.h"
#include "src/runtime/multi_query.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/controller.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace obs {
namespace {

/// Deterministic 31-bit stream, portable across platforms.
uint64_t LcgNext(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Load(), kThreads * kPerThread);
}

TEST(LogHistogramTest, ConcurrentRecordsAreExact) {
  LogHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      uint64_t state = 1000 + static_cast<uint64_t>(t);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1.0 + static_cast<double>(LcgNext(&state) % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

/// Quantile estimates use the bucket's geometric midpoint; with 32
/// sub-buckets per octave the relative bucket width is ~3.1%, so the
/// estimate must agree with the exact sample quantile within 5%.
TEST(LogHistogramTest, QuantileWithinRelativeBound) {
  const auto check = [](const std::vector<double>& values) {
    LogHistogram h;
    for (double v : values) h.Record(v);
    const HistogramSnapshot snap = h.Snapshot();
    for (double q : {0.50, 0.95, 0.99}) {
      std::vector<double> copy = values;
      const size_t idx = std::min(
          copy.size() - 1,
          static_cast<size_t>(q * static_cast<double>(copy.size() - 1) + 0.5));
      std::nth_element(copy.begin(), copy.begin() + static_cast<ptrdiff_t>(idx),
                       copy.end());
      const double exact = copy[idx];
      EXPECT_NEAR(snap.Quantile(q), exact, 0.05 * exact)
          << "q=" << q << " exact=" << exact;
    }
  };

  uint64_t state = 7;
  std::vector<double> uniform;
  for (int i = 0; i < 20'000; ++i) {
    uniform.push_back(1.0 + static_cast<double>(LcgNext(&state) % 100'000) / 1000.0);
  }
  check(uniform);

  std::vector<double> exponential;
  for (int i = 0; i < 20'000; ++i) {
    const double u =
        (static_cast<double>(LcgNext(&state) % 1'000'000) + 0.5) / 1'000'000.0;
    exponential.push_back(-std::log(u));
  }
  check(exponential);
}

TEST(LogHistogramTest, MergeEqualsRecordingTheUnion) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram all;
  uint64_t state = 42;
  for (int i = 0; i < 10'000; ++i) {
    const double low = 0.01 + static_cast<double>(LcgNext(&state) % 1000) / 500.0;
    a.Record(low);
    all.Record(low);
  }
  for (int i = 0; i < 10'000; ++i) {
    const double high = 100.0 + static_cast<double>(LcgNext(&state) % 100'000);
    b.Record(high);
    all.Record(high);
  }
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const HistogramSnapshot expected = all.Snapshot();
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.max, expected.max);
  EXPECT_NEAR(merged.sum, expected.sum, 1e-6 * expected.sum);
}

TEST(LogHistogramTest, TracksMaxAndMean) {
  LogHistogram h;
  h.Record(2.0);
  h.Record(4.0);
  h.Record(600.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.max, 600.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 202.0);
  // The quantile estimate is capped at the observed maximum.
  EXPECT_LE(snap.Quantile(0.999), 600.0);
}

TEST(ScopedTimerTest, NullHistogramIsANoOp) {
  { ScopedTimerUs timer(nullptr); }  // must not crash or record
  LogHistogram h;
  {
    ScopedTimerUs timer(&h);
  }
  EXPECT_EQ(h.Count(), 1u);
}

TEST(AuditRingTest, RetainsMostRecentEntriesInOrder) {
  AuditRing ring;
  constexpr uint64_t kTotal = 3 * AuditRing::kCapacity - 17;
  for (uint64_t i = 0; i < kTotal; ++i) {
    ring.Record(AuditKind::kDropEvent, 2, static_cast<int64_t>(10 * i),
                static_cast<int32_t>(i % 5), 0.5, i);
  }
  EXPECT_EQ(ring.TotalRecorded(), kTotal);
  const std::vector<AuditEntry> entries = ring.Snapshot();
  ASSERT_EQ(entries.size(), AuditRing::kCapacity);
  for (size_t i = 0; i < entries.size(); ++i) {
    const AuditEntry& e = entries[i];
    EXPECT_EQ(e.index, kTotal - AuditRing::kCapacity + i);
    EXPECT_EQ(e.detail, e.index);
    EXPECT_EQ(e.timestamp, static_cast<int64_t>(10 * e.index));
    EXPECT_EQ(e.class_label, static_cast<int32_t>(e.index % 5));
    EXPECT_EQ(e.shard, 2);
    EXPECT_EQ(e.kind, AuditKind::kDropEvent);
  }
}

/// Seqlock consistency: a reader racing the writer must never observe a
/// torn entry — every returned entry's fields belong to one Record call.
/// (This is the TSan target for the ring.)
TEST(AuditRingTest, ConcurrentReaderSeesOnlyConsistentEntries) {
  AuditRing ring;
  std::atomic<bool> done{false};
  std::thread writer([&ring, &done] {
    for (uint64_t i = 0; i < 100'000; ++i) {
      ring.Record(AuditKind::kKillPm, static_cast<uint8_t>(i % 7),
                  static_cast<int64_t>(i), static_cast<int32_t>(i % 11),
                  static_cast<double>(i), i);
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t validated = 0;
  const auto validate_all = [&] {
    for (const AuditEntry& e : ring.Snapshot()) {
      // All fields derive from the entry's index: any torn read surfaces
      // as a field mismatch.
      ASSERT_EQ(e.detail, e.index);
      ASSERT_EQ(e.timestamp, static_cast<int64_t>(e.index));
      ASSERT_EQ(e.mu, static_cast<double>(e.index));
      ASSERT_EQ(e.shard, static_cast<uint8_t>(e.index % 7));
      ASSERT_EQ(e.class_label, static_cast<int32_t>(e.index % 11));
      ++validated;
    }
  };
  while (!done.load(std::memory_order_acquire)) {
    validate_all();  // races the writer — the interleaving TSan watches
  }
  writer.join();
  // On a single-core host the writer can finish before the loop ever runs;
  // this post-join pass guarantees the full ring is validated regardless.
  validate_all();
  EXPECT_GT(validated, 0u);
}

TEST(ExportTest, PrometheusRenderHasRequiredSeriesAndCumulativeBuckets) {
  MetricsRegistry registry(2);
  ShardObs* s0 = registry.shard(0);
  s0->events_routed.Add(100);
  s0->events_processed.Add(90);
  s0->events_dropped_shedder.Add(10);
  s0->CountShedClass(3);
  s0->guard_transitions.Add();
  s0->guard_level.Set(1);
  uint64_t state = 5;
  for (int i = 0; i < 1000; ++i) {
    s0->event_cost.Record(0.5 + static_cast<double>(LcgNext(&state) % 100));
  }
  registry.shard(1)->events_routed.Add(7);

  const std::string text = RenderPrometheus(registry.Snapshot());
  for (const char* series :
       {"cepshed_events_routed_total{shard=\"0\"} 100",
        "cepshed_events_routed_total{shard=\"1\"} 7",
        "cepshed_events_processed_total{shard=\"0\"} 90",
        "cepshed_events_dropped_shedder_total{shard=\"0\"} 10",
        "cepshed_shed_by_class_total{shard=\"0\",class=\"3\"} 1",
        "cepshed_guard_transitions_total{shard=\"0\"} 1",
        "cepshed_guard_level{shard=\"0\"} 1",
        "cepshed_event_cost_count{shard=\"0\"} 1000",
        "cepshed_event_cost_bucket{shard=\"0\",le=\"+Inf\"} 1000"}) {
    EXPECT_NE(text.find(series), std::string::npos) << "missing: " << series;
  }

  // Cumulative `le` buckets must be non-decreasing and end at count.
  uint64_t prev = 0;
  uint64_t last = 0;
  size_t pos = 0;
  while ((pos = text.find("cepshed_event_cost_bucket{shard=\"0\",le=", pos)) !=
         std::string::npos) {
    const size_t space = text.find(' ', pos);
    last = std::stoull(text.substr(space + 1));
    EXPECT_GE(last, prev);
    prev = last;
    pos = space;
  }
  EXPECT_EQ(last, 1000u);
}

TEST(ExportTest, JsonRenderCarriesDecodedAuditTrail) {
  MetricsRegistry registry(1);
  registry.shard(0)->audit.Record(AuditKind::kGuardTransition, 0, 12345,
                                  /*from|to<<8=*/0 | (2 << 8), 1.5, 1);
  const std::string json = RenderJson(registry.Snapshot());
  EXPECT_NE(json.find("\"kind\":\"guard_transition\""), std::string::npos);
  EXPECT_NE(json.find("\"timestamp\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"total\":"), std::string::npos);
}

/// Deterministic test shedder: drops every 7th event by global sequence
/// number and records the decision (class, mu, seq, event time) in the
/// audit ring — exercising the audit path without a trained cost model.
class EverySeventhShedder : public Shedder {
 public:
  std::string Name() const override { return "every7"; }
  bool FilterEvent(const Event& event) override {
    if (event.seq() % 7 == 0) {
      return DropEvent(static_cast<int>(event.seq() % 3), 0.25, event.seq(),
                       event.timestamp());
    }
    return false;
  }
  void AfterEvent(Timestamp, double) override {}
};

/// The parallel path and its sequential replay must produce identical
/// per-shard observability snapshots for every deterministic field:
/// counters, cost-histogram buckets, and the full audit trail. (Wall-clock
/// histograms and queue signals are inherently timing-dependent and are
/// not compared.)
TEST(ObsDeterminismTest, RunMatchesRunSequentialSnapshot) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 20'000;
  gen.seed = 31;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1("4ms"), &schema);
  ASSERT_TRUE(nfa.ok());

  const auto run = [&](bool parallel, MetricsRegistry* registry) {
    ShardRuntimeOptions opts;
    opts.num_shards = 2;
    opts.routing = ShardRouting::kHashPartition;
    opts.partition_attr = schema.AttributeIndex("ID");
    opts.metrics = registry;
    auto runtime = ShardRuntime::Create(*nfa, opts);
    ASSERT_TRUE(runtime.ok());
    const ShardRuntime::ShedderFactory factory = [](int) {
      return std::make_unique<EverySeventhShedder>();
    };
    auto result = parallel ? (*runtime)->Run(stream, factory)
                           : (*runtime)->RunSequential(stream, factory);
    ASSERT_TRUE(result.ok());
  };

  MetricsRegistry par_registry;
  MetricsRegistry seq_registry;
  run(true, &par_registry);
  run(false, &seq_registry);
  const RegistrySnapshot par = par_registry.Snapshot();
  const RegistrySnapshot seq = seq_registry.Snapshot();
  ASSERT_EQ(par.shards.size(), seq.shards.size());
  ASSERT_EQ(par.shards.size(), 2u);
  EXPECT_GT(par.total.events_dropped_shedder, 0u);

  for (size_t i = 0; i < par.shards.size(); ++i) {
    const ShardObsSnapshot& p = par.shards[i];
    const ShardObsSnapshot& s = seq.shards[i];
    EXPECT_EQ(p.events_routed, s.events_routed) << "shard " << i;
    EXPECT_EQ(p.events_processed, s.events_processed) << "shard " << i;
    EXPECT_EQ(p.events_dropped_shedder, s.events_dropped_shedder) << "shard " << i;
    EXPECT_EQ(p.matches_emitted, s.matches_emitted) << "shard " << i;
    for (int c = 0; c < ShardObs::kNumClasses; ++c) {
      EXPECT_EQ(p.shed_by_class[c], s.shed_by_class[c]) << "shard " << i;
    }
    EXPECT_EQ(p.event_cost.buckets, s.event_cost.buckets) << "shard " << i;
    EXPECT_EQ(p.event_cost.count, s.event_cost.count) << "shard " << i;
    EXPECT_EQ(p.event_cost.max, s.event_cost.max) << "shard " << i;
    ASSERT_EQ(p.audit.size(), s.audit.size()) << "shard " << i;
    for (size_t a = 0; a < p.audit.size(); ++a) {
      EXPECT_EQ(p.audit[a].index, s.audit[a].index);
      EXPECT_EQ(p.audit[a].timestamp, s.audit[a].timestamp);
      EXPECT_EQ(p.audit[a].kind, s.audit[a].kind);
      EXPECT_EQ(p.audit[a].class_label, s.audit[a].class_label);
      EXPECT_EQ(p.audit[a].detail, s.audit[a].detail);
    }
  }
}

/// One stream through three drivers that each run one engine over every
/// event: ShedRunner without shedding, a one-shard RunSequential, and a
/// one-query MultiQueryRunner at theta 0. They share the per-event step,
/// so every series it publishes must agree, the footprint gauges and the
/// expiry-wheel counters included.
TEST(ObsParityTest, EveryDriverPublishesTheSameSeries) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 8'000;
  gen.seed = 33;
  const EventStream stream = GenerateDs1(schema, gen);
  const Query query = *queries::Q1();
  auto nfa = Nfa::Compile(query, &schema);
  ASSERT_TRUE(nfa.ok());

  MetricsRegistry single(1);
  {
    Engine engine(*nfa, EngineOptions{});
    NoShedder none;
    ShedRunner runner(&engine, &none, LatencyMonitor::Options{});
    runner.set_obs(single.shard(0));
    runner.Run(stream);
  }
  MetricsRegistry sharded;
  {
    ShardRuntimeOptions opts;
    opts.metrics = &sharded;
    auto runtime = ShardRuntime::Create(*nfa, opts);
    ASSERT_TRUE(runtime.ok());
    ASSERT_TRUE((*runtime)->RunSequential(stream).ok());
  }
  MetricsRegistry multi;
  {
    Ds1Options train;
    train.num_events = 2'000;
    train.seed = 34;
    MultiQueryRunner runner(&schema, {{query, 1.0}});
    ASSERT_TRUE(runner.Prepare(GenerateDs1(schema, train)).ok());
    runner.set_metrics(&multi);
    ASSERT_TRUE(runner.Run(stream, 0.0).ok());
  }

  const ShardObsSnapshot s = single.Snapshot().shards.at(0);
  const ShardObsSnapshot r = sharded.Snapshot().shards.at(0);
  const ShardObsSnapshot m = multi.Snapshot().shards.at(0);
  using Get = int64_t (*)(const ShardObsSnapshot&);
  const struct {
    const char* name;
    Get get;
  } kSeries[] = {
      {"events_routed",
       [](const ShardObsSnapshot& o) { return static_cast<int64_t>(o.events_routed); }},
      {"events_processed",
       [](const ShardObsSnapshot& o) { return static_cast<int64_t>(o.events_processed); }},
      {"matches_emitted",
       [](const ShardObsSnapshot& o) { return static_cast<int64_t>(o.matches_emitted); }},
      {"event_cost",
       [](const ShardObsSnapshot& o) { return static_cast<int64_t>(o.event_cost.count); }},
      {"state_bytes", [](const ShardObsSnapshot& o) { return o.state_bytes; }},
      {"arena_live_bytes", [](const ShardObsSnapshot& o) { return o.arena_live_bytes; }},
      {"arena_capacity_bytes",
       [](const ShardObsSnapshot& o) { return o.arena_capacity_bytes; }},
      {"flat_cache_entries", [](const ShardObsSnapshot& o) { return o.flat_cache_entries; }},
      {"wheel_entries", [](const ShardObsSnapshot& o) { return o.wheel_entries; }},
      {"expiry_reaped",
       [](const ShardObsSnapshot& o) { return static_cast<int64_t>(o.expiry_reaped); }},
      {"wheel_cascades",
       [](const ShardObsSnapshot& o) { return static_cast<int64_t>(o.wheel_cascades); }},
  };
  for (const auto& series : kSeries) {
    EXPECT_EQ(series.get(s), series.get(r)) << series.name << ": ShedRunner vs runtime";
    EXPECT_EQ(series.get(m), series.get(r)) << series.name << ": multi-query vs runtime";
  }
  EXPECT_EQ(s.event_cost.sum, r.event_cost.sum);
  EXPECT_EQ(m.event_cost.sum, r.event_cost.sum);
  EXPECT_EQ(s.event_cost.buckets, r.event_cost.buckets);
  EXPECT_EQ(m.event_cost.buckets, r.event_cost.buckets);
  // Not vacuous: the stream leaves live state and reaps expired matches.
  EXPECT_GT(r.matches_emitted, 0u);
  EXPECT_GT(r.state_bytes, 0);
  EXPECT_GT(r.expiry_reaped, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace cepshed
