// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests for the runtime pieces: latency monitor, partial-match store,
// metrics, NFA compilation details, the sharded router's hand-off.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/cep/partial_match.h"
#include "src/runtime/latency_monitor.h"
#include "src/runtime/metrics.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/shedder.h"
#include "src/workload/citibike.h"
#include "src/workload/ds1.h"
#include "src/query/parser.h"
#include "src/workload/queries.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

TEST(LatencyMonitorTest, SlidingAverage) {
  LatencyMonitor::Options opts;
  opts.stat = LatencyStat::kAverage;
  opts.window = 4;
  LatencyMonitor monitor(opts);
  monitor.Record(1);
  monitor.Record(2);
  monitor.Record(3);
  monitor.Record(4);
  EXPECT_DOUBLE_EQ(monitor.Current(), 2.5);
  monitor.Record(5);  // evicts the 1
  EXPECT_DOUBLE_EQ(monitor.Current(), 3.5);
}

TEST(LatencyMonitorTest, OverallAverageIsExact) {
  LatencyMonitor monitor;
  for (int i = 1; i <= 100; ++i) monitor.Record(i);
  EXPECT_DOUBLE_EQ(monitor.OverallAverage(), 50.5);
}

TEST(LatencyMonitorTest, PercentileTracksWindow) {
  LatencyMonitor::Options opts;
  opts.stat = LatencyStat::kP95;
  opts.window = 100;
  opts.refresh_every = 1;
  LatencyMonitor monitor(opts);
  for (int i = 1; i <= 100; ++i) monitor.Record(i);
  EXPECT_NEAR(monitor.Current(), 95.0, 2.0);
  // A burst of large values shifts the percentile up.
  for (int i = 0; i < 50; ++i) monitor.Record(1000);
  EXPECT_GE(monitor.Current(), 900.0);
}

TEST(LatencyMonitorTest, AverageResistsLongRunDrift) {
  // Regression: the incremental window_sum_ add/subtract accumulates
  // floating-point residue. While a 1e15 spike sits in the window every
  // 0.1 added rounds to a multiple of 0.125, and that residue survives the
  // spike's eviction; before the periodic exact recompute the reported
  // average converged to ~0.125 instead of 0.1 (25% off).
  LatencyMonitor::Options opts;
  opts.stat = LatencyStat::kAverage;
  opts.window = 1000;
  LatencyMonitor monitor(opts);
  std::vector<double> reference(opts.window, 0.0);
  size_t ref_head = 0;
  const size_t total = 2'000'000;
  for (size_t i = 0; i < total; ++i) {
    const double v = (i % 10'000 == 0) ? 1e15 : 0.1;
    monitor.Record(v);
    reference[ref_head] = v;
    ref_head = (ref_head + 1) % opts.window;
  }
  double naive = 0.0;
  for (double v : reference) naive += v;
  naive /= static_cast<double>(opts.window);
  EXPECT_NEAR(monitor.Current(), naive, 1e-6);
}

TEST(LatencyMonitorTest, ResetClears) {
  LatencyMonitor monitor;
  monitor.Record(10);
  monitor.Reset();
  EXPECT_EQ(monitor.Count(), 0u);
  EXPECT_DOUBLE_EQ(monitor.Current(), 0.0);
}

TEST(PartialMatchStoreTest, CountsAliveAndDead) {
  PartialMatchStore store(3, 3);
  auto pm = std::make_unique<PartialMatch>();
  pm->state = 1;
  pm->start_ts = 0;
  PartialMatch* raw = store.Add(std::move(pm));
  EXPECT_EQ(store.NumAlive(), 1u);
  store.Kill(raw);
  store.Kill(raw);  // idempotent
  EXPECT_EQ(store.NumAlive(), 0u);
  EXPECT_EQ(store.NumDead(), 1u);
  store.Compact();
  EXPECT_EQ(store.NumDead(), 0u);
  EXPECT_TRUE(store.bucket(1).empty());
}

TEST(PartialMatchStoreTest, ReapExpired) {
  PartialMatchStore store(2, 2);
  store.ConfigureExpiry(/*window=*/250, /*count_window=*/0);
  for (int i = 0; i < 5; ++i) {
    auto pm = std::make_unique<PartialMatch>();
    pm->state = 0;
    pm->start_ts = i * 100;
    store.Add(std::move(pm));
  }
  // Window 250 at now=500: PMs with start_ts < 250 expire (0,100,200).
  EXPECT_EQ(store.ReapExpired(/*now=*/500, /*seq=*/0), 3u);
  EXPECT_EQ(store.NumAlive(), 2u);
}

TEST(PartialMatchStoreTest, FixedBytesChargesSlotEndCapacityNotSize) {
  // Regression: the old estimate charged slot_end.size() * sizeof(uint32_t).
  // Vectors grow by doubling, so a match whose slot vector reserved 8 slots
  // but filled 1 was under-counted by 28 bytes — across a million partial
  // matches the guard's budget drifted tens of MB below the real footprint.
  PartialMatch pm;
  pm.slot_end.reserve(8);
  pm.slot_end.push_back(0);
  ASSERT_GE(pm.slot_end.capacity(), 8u);
  const size_t bytes = PartialMatchStore::FixedBytes(pm);
  EXPECT_GE(bytes, sizeof(PartialMatch) + 8 * sizeof(uint32_t));
}

TEST(PartialMatchStoreTest, LiveBytesCountsSharedPrefixOnce) {
  PartialMatchStore store(3, 3);
  const size_t empty_bytes = store.ApproxLiveBytes();

  // A parent with a 6-event chain.
  auto parent = std::make_unique<PartialMatch>();
  for (uint64_t i = 0; i < 6; ++i) {
    parent->Append(&store.arena(), std::make_shared<Event>(0, static_cast<Timestamp>(i), i, std::vector<Value>{}));
  }
  PartialMatch* p = store.Add(std::move(parent));
  const size_t after_parent = store.ApproxLiveBytes();
  EXPECT_EQ(store.arena().live_nodes(), 6u);

  // Two children share the parent's whole chain: each adds exactly one
  // arena node plus its own fixed footprint — not 7 nodes each.
  for (int c = 0; c < 2; ++c) {
    auto child = std::make_unique<PartialMatch>();
    child->ExtendFrom(&store.arena(), p, std::make_shared<Event>(0, static_cast<Timestamp>(10 + c),
                                              static_cast<uint64_t>(10 + c),
                                              std::vector<Value>{}));
    store.Add(std::move(child));
  }
  EXPECT_EQ(store.arena().live_nodes(), 8u);
  const size_t per_child = (store.ApproxLiveBytes() - after_parent) / 2;
  EXPECT_LE(per_child, PartialMatchStore::FixedBytes(*p) + 2 * sizeof(BindingNode));

  // Killing everything returns the signal to the empty baseline.
  store.ForEachAlive([&](PartialMatch* pm) { store.Kill(pm); });
  EXPECT_EQ(store.arena().live_nodes(), 0u);
  EXPECT_EQ(store.ApproxLiveBytes(), empty_bytes);
}

TEST(PartialMatchStoreTest, ApproxBytesIsMarginalUnderSharing) {
  PartialMatchStore store(3, 3);
  auto parent = std::make_unique<PartialMatch>();
  for (uint64_t i = 0; i < 5; ++i) {
    parent->Append(&store.arena(), std::make_shared<Event>(0, static_cast<Timestamp>(i), i, std::vector<Value>{}));
  }
  PartialMatch* p = store.Add(std::move(parent));
  auto child = std::make_unique<PartialMatch>();
  child->ExtendFrom(&store.arena(), p, std::make_shared<Event>(0, 9, 9, std::vector<Value>{}));
  PartialMatch* c = store.Add(std::move(child));

  // While the parent is alive its whole chain is shared with the child, so
  // the child's marginal estimate covers only its one exclusive node.
  EXPECT_EQ(PartialMatchStore::ApproxBytes(*c),
            PartialMatchStore::FixedBytes(*c) + sizeof(BindingNode));
  // The parent's tail is referenced by the child chain too: zero exclusive.
  EXPECT_EQ(PartialMatchStore::ApproxBytes(*p), PartialMatchStore::FixedBytes(*p));

  // Once the parent dies the prefix belongs to the child alone and its
  // marginal estimate grows to the full chain — the shedder's kill loop
  // sees the true reclaim for the last owner.
  store.Kill(p);
  EXPECT_EQ(PartialMatchStore::ApproxBytes(*c),
            PartialMatchStore::FixedBytes(*c) + 6 * sizeof(BindingNode));
  store.Kill(c);
  EXPECT_EQ(store.arena().live_nodes(), 0u);
}

TEST(PartialMatchStoreTest, WitnessesTrackedSeparately) {
  PartialMatchStore store(2, 3);
  auto w = std::make_unique<PartialMatch>();
  w->negated_elem = 1;
  w->start_ts = 0;
  PartialMatch* raw = store.AddWitness(std::move(w));
  EXPECT_EQ(store.NumAliveWitnesses(), 1u);
  EXPECT_EQ(store.NumAlive(), 0u);
  EXPECT_TRUE(raw->is_witness);
  size_t seen = 0;
  store.ForEachAliveWitness([&](PartialMatch*) { ++seen; });
  EXPECT_EQ(seen, 1u);
}

TEST(MetricsTest, RecallAndPrecision) {
  Schema schema = MakeDs1Schema();
  auto ev = [&](uint64_t seq) {
    return std::make_shared<Event>(0, static_cast<Timestamp>(seq), seq,
                                   std::vector<Value>{Value(1), Value(1)});
  };
  Match m1;
  m1.events = {ev(1), ev(2)};
  m1.slot_end = {1, 2};
  m1.detected_at = 2;
  Match m2;
  m2.events = {ev(3), ev(4)};
  m2.slot_end = {1, 2};
  m2.detected_at = 4;
  Match fake;
  fake.events = {ev(9), ev(10)};
  fake.slot_end = {1, 2};
  fake.detected_at = 10;

  GroundTruth truth(std::vector<Match>{m1, m2});
  const auto q = ComputeQuality({m1, fake}, truth);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_EQ(q.true_positives, 1u);
  EXPECT_EQ(q.false_positives, 1u);

  const auto range = ComputeQualityInRange({m1, m2}, truth, 0, 3);
  EXPECT_EQ(range.truth_size, 1u);  // only m1 detected before ts 3
  EXPECT_DOUBLE_EQ(range.recall, 1.0);
}

TEST(MetricsTest, BoundaryStraddlingMatchIsNotABucketTruePositive) {
  // Regression: under shedding-induced detection delay a match can be found
  // in a later bucket than the truth detected it in. It must count as a
  // false positive for that bucket, not a true positive — otherwise
  // true_positives can exceed truth_size and recall exceeds 1.0.
  Schema schema = MakeDs1Schema();
  auto ev = [&](uint64_t seq) {
    return std::make_shared<Event>(0, static_cast<Timestamp>(seq), seq,
                                   std::vector<Value>{Value(1), Value(1)});
  };
  Match m1;
  m1.events = {ev(1), ev(2)};
  m1.slot_end = {1, 2};
  m1.detected_at = 2;  // truth: detected in bucket [0, 3)
  Match m2;
  m2.events = {ev(3), ev(4)};
  m2.slot_end = {1, 2};
  m2.detected_at = 4;  // truth: detected in bucket [3, 6)
  GroundTruth truth(std::vector<Match>{m1, m2});

  Match m1_delayed = m1;
  m1_delayed.detected_at = 5;  // same match, found late, straddles boundary

  const auto late = ComputeQualityInRange({m1_delayed, m2}, truth, 3, 6);
  EXPECT_EQ(late.truth_size, 1u);  // only m2's truth detection is in range
  EXPECT_EQ(late.true_positives, 1u);
  EXPECT_EQ(late.false_positives, 1u);
  EXPECT_DOUBLE_EQ(late.recall, 1.0);  // pre-fix: 2.0
  EXPECT_DOUBLE_EQ(late.precision, 0.5);

  // The bucket the truth detection belongs to simply misses the match.
  const auto early = ComputeQualityInRange({m1_delayed, m2}, truth, 0, 3);
  EXPECT_EQ(early.truth_size, 1u);
  EXPECT_EQ(early.true_positives, 0u);
  EXPECT_DOUBLE_EQ(early.recall, 0.0);
}

TEST(MetricsTest, EmptyEdgeCases) {
  GroundTruth empty;
  const auto q = ComputeQuality({}, empty);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
}

TEST(NfaTest, Q1CompilesWithExpectedStructure) {
  Schema schema = MakeDs1Schema();
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok()) << nfa.status();
  EXPECT_EQ((*nfa)->num_states(), 3);
  // b and c have ID-equality join keys on bare attributes.
  EXPECT_TRUE((*nfa)->state(1).fill_index.valid());
  EXPECT_FALSE((*nfa)->state(1).fill_index.expression_key);
  EXPECT_TRUE((*nfa)->state(2).fill_index.valid());
  // Predicates anchored: none at state 0, one at state 1, two at state 2.
  EXPECT_EQ((*nfa)->state(0).bind_preds.size(), 0u);
  EXPECT_EQ((*nfa)->state(1).bind_preds.size(), 1u);
  EXPECT_EQ((*nfa)->state(2).bind_preds.size(), 2u);
  // Predictor attributes: only V — ID is a pure cross-element join key
  // (value-agnostic, excluded to keep the classifiers from memorizing
  // individual ids).
  ASSERT_EQ((*nfa)->PredicateAttrs().size(), 1u);
  EXPECT_EQ((*nfa)->PredicateAttrs()[0], schema.AttributeIndex("V"));
}

TEST(NfaTest, KleeneIterationPredicatesSplit) {
  Schema schema = MakeCitibikeSchema();
  auto nfa = Nfa::Compile(*queries::CitibikeHotPaths(2, 5), &schema);
  ASSERT_TRUE(nfa.ok()) << nfa.status();
  const NfaState& kleene = (*nfa)->state(0);
  EXPECT_TRUE(kleene.kleene);
  EXPECT_EQ(kleene.min_reps, 2);
  EXPECT_EQ(kleene.max_reps, 5);
  // a[i+1].bike=a[i].bike and a[i+1].start=a[i].end are iteration preds.
  EXPECT_EQ(kleene.iter_preds.size(), 2u);
  // The extension index keys on the previous trip's attribute.
  EXPECT_TRUE(kleene.extend_index.valid());
}

TEST(NfaTest, NegationSpecsForQ4) {
  Schema schema = MakeDs1Schema();
  auto nfa = Nfa::Compile(*queries::Q4(), &schema);
  ASSERT_TRUE(nfa.ok()) << nfa.status();
  ASSERT_EQ((*nfa)->negations().size(), 1u);
  const NegationSpec& neg = (*nfa)->negations()[0];
  EXPECT_EQ(neg.pattern_elem, 1);
  EXPECT_EQ(neg.prev_state, 0);
  EXPECT_EQ(neg.next_state, 1);
  // Both b-referencing predicates attach to the negation.
  EXPECT_EQ(neg.preds.size(), 2u);
  // The NFA itself has only the two positive states.
  EXPECT_EQ((*nfa)->num_states(), 2);
}

TEST(NfaTest, RejectsNegationAtPatternEdge) {
  Schema schema = MakeDs1Schema();
  auto q = ParseQuery("PATTERN SEQ(!A a, B b) WITHIN 1ms");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Nfa::Compile(*q, &schema).ok());
}

TEST(NfaTest, EventOnlyPredicateFlag) {
  Schema schema = MakeCitibikeSchema();
  auto nfa = Nfa::Compile(*queries::CitibikeHotPaths(2, 5), &schema);
  ASSERT_TRUE(nfa.ok());
  // b.end IN {7,8,9} is evaluable on the event alone.
  bool found_event_only = false;
  for (const auto* cp : (*nfa)->state(1).bind_preds) {
    if (cp->event_only) found_event_only = true;
  }
  EXPECT_TRUE(found_event_only);
}

TEST(CountWindowTest, ParserAcceptsEventsWindow) {
  auto q = ParseQuery("PATTERN SEQ(A a, B b) WITHIN 1000 EVENTS");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->count_window, 1000u);
  EXPECT_GT(q->window, 0);
}

TEST(CountWindowTest, EngineExpiresBySequenceDistance) {
  Schema schema = MakeDs1Schema();
  auto q = ParseQuery("PATTERN SEQ(A a, B b) WHERE a.ID = b.ID WITHIN 3 EVENTS");
  ASSERT_TRUE(q.ok());
  auto nfa = Nfa::Compile(*q, &schema);
  ASSERT_TRUE(nfa.ok());
  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> out;
  auto ev = [&](const char* type, uint64_t seq) {
    std::vector<Value> attrs(schema.num_attributes());
    attrs[0] = Value(1);
    attrs[1] = Value(1);
    // Identical timestamps: only the sequence distance can expire matches.
    return std::make_shared<Event>(schema.EventTypeId(type), 0, seq, attrs);
  };
  engine.Process(ev("A", 0), &out);
  engine.Process(ev("C", 1), &out);
  engine.Process(ev("C", 2), &out);
  engine.Process(ev("B", 3), &out);  // span 3 events: still inside
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  engine.Process(ev("A", 4), &out);
  engine.Process(ev("C", 5), &out);
  engine.Process(ev("C", 6), &out);
  engine.Process(ev("C", 7), &out);
  engine.Process(ev("B", 8), &out);  // span 4 events: expired
  EXPECT_TRUE(out.empty());
}

/// No-op shedder that publishes how many events its worker has consumed:
/// the worker calls FilterEvent on every event it pops, before the engine.
class ConsumeCountingShedder : public Shedder {
 public:
  explicit ConsumeCountingShedder(std::atomic<uint64_t>* consumed)
      : consumed_(consumed) {}
  std::string Name() const override { return "count"; }
  bool FilterEvent(const Event&) override {
    consumed_->fetch_add(1, std::memory_order_release);
    return false;
  }
  void AfterEvent(Timestamp, double) override {}

 private:
  std::atomic<uint64_t>* consumed_;
};

// The router must hand an event to a starved shard at once rather than
// hold it in the stage until a full batch has piled up. The tap of event i
// runs before event i is staged and waits for the worker to consume event
// i-1, which happens only if event i-1 left the stage while the worker sat
// on an empty queue. A stage that waited for a full batch would hold event
// 0 forever, so the wait has a deadline that fails the test.
TEST(ShardRuntimeHandOffTest, StarvedShardReceivesEachEventAtOnce) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 2000;
  gen.seed = 11;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1("4ms"), &schema);
  ASSERT_TRUE(nfa.ok());

  std::atomic<uint64_t> consumed{0};
  uint64_t tapped = 0;
  int64_t stalled_at = -1;
  ShardRuntimeOptions opts;
  opts.num_shards = 1;
  opts.ingest_tap = [&](const EventPtr&, const std::vector<int>&) {
    // After one missed deadline the rest of the run goes unhindered, so a
    // failure costs one deadline rather than one per event.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (stalled_at < 0 && consumed.load(std::memory_order_acquire) < tapped) {
      if (std::chrono::steady_clock::now() >= deadline) {
        stalled_at = static_cast<int64_t>(tapped);
      } else {
        std::this_thread::yield();
      }
    }
    ++tapped;
  };
  auto runtime = ShardRuntime::Create(*nfa, opts);
  ASSERT_TRUE(runtime.ok()) << runtime.status();
  auto parallel = (*runtime)->Run(stream, [&](int) {
    return std::make_unique<ConsumeCountingShedder>(&consumed);
  });
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(stalled_at, -1) << "event " << stalled_at - 1
                            << " stayed staged while its shard sat idle";
  EXPECT_EQ(consumed.load(), stream.size());

  // The hand-off changes only when events reach the worker, never what it
  // computes: the sequential replay (without the waiting tap) agrees.
  auto reference = ShardRuntime::Create(*nfa, ShardRuntimeOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto sequential = (*reference)->RunSequential(stream);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  ASSERT_GT(sequential->matches.size(), 0u) << "degenerate stream";
  ASSERT_EQ(parallel->matches.size(), sequential->matches.size());
  for (size_t i = 0; i < parallel->matches.size(); ++i) {
    EXPECT_EQ(parallel->matches[i].detected_at, sequential->matches[i].detected_at);
    EXPECT_EQ(parallel->matches[i].Key(), sequential->matches[i].Key());
  }
  EXPECT_EQ(parallel->stats.events_processed, sequential->stats.events_processed);
  EXPECT_EQ(parallel->stats.total_cost, sequential->stats.total_cost);
}

}  // namespace
}  // namespace cepshed
