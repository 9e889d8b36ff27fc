// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Matching semantics of the engine: sequencing, correlation predicates,
// windows, skip-till-any-match, Kleene closure, negation, aggregates.

#include "src/cep/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "src/cep/nfa.h"
#include "src/query/parser.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

using testing::MakeAbcdSchema;
using testing::MakeEvent;
using testing::MakeQ1;
using testing::RunAll;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : schema_(MakeAbcdSchema()) {}

  EventPtr Ev(const std::string& type, Timestamp ts, int64_t id, int64_t v) {
    return MakeEvent(schema_, type, ts, seq_++, id, v);
  }

  Schema schema_;
  uint64_t seq_ = 0;
};

TEST_F(EngineTest, SimpleSequenceMatches) {
  auto matches = RunAll(schema_, MakeQ1(),
                        {Ev("A", 0, 1, 2), Ev("B", 10, 1, 3), Ev("C", 20, 1, 5)});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].events.size(), 3u);
  EXPECT_EQ(matches[0].detected_at, 20);
}

TEST_F(EngineTest, PredicateIdMismatchBlocksMatch) {
  auto matches = RunAll(schema_, MakeQ1(),
                        {Ev("A", 0, 1, 2), Ev("B", 10, 2, 3), Ev("C", 20, 1, 5)});
  EXPECT_TRUE(matches.empty());
}

TEST_F(EngineTest, ArithmeticPredicateBlocksMismatchedSum) {
  auto matches = RunAll(schema_, MakeQ1(),
                        {Ev("A", 0, 1, 2), Ev("B", 10, 1, 3), Ev("C", 20, 1, 6)});
  EXPECT_TRUE(matches.empty());
}

TEST_F(EngineTest, OutOfOrderTypesDoNotMatch) {
  auto matches = RunAll(schema_, MakeQ1(),
                        {Ev("B", 0, 1, 3), Ev("A", 10, 1, 2), Ev("C", 20, 1, 5)});
  EXPECT_TRUE(matches.empty());
}

TEST_F(EngineTest, WindowExpiryBlocksLateCompletion) {
  // Window is 8ms = 8000us; C arrives 9000us after A.
  auto matches = RunAll(schema_, MakeQ1(Millis(8)),
                        {Ev("A", 0, 1, 2), Ev("B", 10, 1, 3), Ev("C", 9000, 1, 5)});
  EXPECT_TRUE(matches.empty());
}

TEST_F(EngineTest, CompletionExactlyAtWindowBoundaryMatches) {
  auto matches = RunAll(schema_, MakeQ1(Millis(8)),
                        {Ev("A", 0, 1, 2), Ev("B", 10, 1, 3), Ev("C", 8000, 1, 5)});
  EXPECT_EQ(matches.size(), 1u);
}

TEST_F(EngineTest, SkipTillAnyMatchEnumeratesAllCombinations) {
  // 2 As x 2 Bs x 2 Cs, all compatible: 8 matches.
  std::vector<EventPtr> events;
  events.push_back(Ev("A", 0, 1, 2));
  events.push_back(Ev("A", 1, 1, 2));
  events.push_back(Ev("B", 10, 1, 3));
  events.push_back(Ev("B", 11, 1, 3));
  events.push_back(Ev("C", 20, 1, 5));
  events.push_back(Ev("C", 21, 1, 5));
  auto matches = RunAll(schema_, MakeQ1(), events);
  EXPECT_EQ(matches.size(), 8u);
  // All matches distinct.
  std::set<std::string> keys;
  for (const auto& m : matches) keys.insert(m.Key());
  EXPECT_EQ(keys.size(), 8u);
}

TEST_F(EngineTest, IndexAndScanProduceIdenticalMatches) {
  std::vector<EventPtr> events;
  for (int i = 0; i < 200; ++i) {
    const int64_t id = i % 7;
    const int64_t v = i % 9 + 1;
    const char* type = i % 3 == 0 ? "A" : (i % 3 == 1 ? "B" : "C");
    events.push_back(Ev(type, i * 10, id, v));
  }
  EngineOptions with_index;
  with_index.use_join_index = true;
  EngineOptions no_index;
  no_index.use_join_index = false;

  auto m1 = RunAll(schema_, MakeQ1(), events, with_index);
  auto m2 = RunAll(schema_, MakeQ1(), events, no_index);
  std::set<std::string> k1, k2;
  for (const auto& m : m1) k1.insert(m.Key());
  for (const auto& m : m2) k2.insert(m.Key());
  EXPECT_EQ(k1, k2);
  EXPECT_FALSE(k1.empty());
}

// --- Kleene closure ---------------------------------------------------------

Query MakeKleeneQuery(int min_reps, int max_reps, Duration window = Millis(8)) {
  // SEQ(A+ a[], B b) WHERE a[i+1].V = a[i].V AND a[last].ID = b.ID
  Query q;
  q.name = "kleene";
  q.elements = {
      {"a", "A", -1, true, false, min_reps, max_reps},
      {"b", "B", -1, false, false, 1, 1},
  };
  using E = Expr;
  q.predicates.push_back(E::Compare(CmpOp::kEq,
                                    E::Attr("a", RefSelector::kIterCurr, "V"),
                                    E::Attr("a", RefSelector::kIterPrev, "V")));
  q.predicates.push_back(E::Compare(CmpOp::kEq, E::Attr("a", RefSelector::kLast, "ID"),
                                    E::Attr("b", RefSelector::kSingle, "ID")));
  q.window = window;
  return q;
}

TEST_F(EngineTest, KleeneEnumeratesAllSubsequences) {
  // Three As with equal V, one B: subsequences of the As that end anywhere
  // and satisfy a[i+1].V=a[i].V — skip-till-any-match enumerates every
  // non-empty subsequence: 2^3 - 1 = 7 matches.
  std::vector<EventPtr> events = {
      Ev("A", 0, 1, 5),
      Ev("A", 1, 1, 5),
      Ev("A", 2, 1, 5),
      Ev("B", 10, 1, 9),
  };
  auto matches = RunAll(schema_, MakeKleeneQuery(1, 100), events);
  EXPECT_EQ(matches.size(), 7u);
}

TEST_F(EngineTest, KleeneMinRepsFiltersShortMatches) {
  std::vector<EventPtr> events = {
      Ev("A", 0, 1, 5),
      Ev("A", 1, 1, 5),
      Ev("A", 2, 1, 5),
      Ev("B", 10, 1, 9),
  };
  // min 2: subsequences of length >= 2: C(3,2) + C(3,3) = 4.
  auto matches = RunAll(schema_, MakeKleeneQuery(2, 100), events);
  EXPECT_EQ(matches.size(), 4u);
}

TEST_F(EngineTest, KleeneMaxRepsCapsLength) {
  std::vector<EventPtr> events = {
      Ev("A", 0, 1, 5),
      Ev("A", 1, 1, 5),
      Ev("A", 2, 1, 5),
      Ev("B", 10, 1, 9),
  };
  // max 1: exactly the three singleton subsequences.
  auto matches = RunAll(schema_, MakeKleeneQuery(1, 1), events);
  EXPECT_EQ(matches.size(), 3u);
}

TEST_F(EngineTest, KleeneIterationPredicateFiltersChains) {
  // V values 5,5,6: chains with equal consecutive V.
  std::vector<EventPtr> events = {
      Ev("A", 0, 1, 5),
      Ev("A", 1, 1, 5),
      Ev("A", 2, 1, 6),
      Ev("B", 10, 1, 9),
  };
  // Valid a[] bindings: {1},{2},{3},{1,2}: 4 matches.
  auto matches = RunAll(schema_, MakeKleeneQuery(1, 100), events);
  EXPECT_EQ(matches.size(), 4u);
}

TEST_F(EngineTest, TrailingKleeneEmitsOnEachExtension) {
  // SEQ(B b, A+ a[]) — trailing Kleene emits every valid prefix.
  Query q;
  q.name = "trailing";
  q.elements = {
      {"b", "B", -1, false, false, 1, 1},
      {"a", "A", -1, true, false, 1, 100},
  };
  q.predicates.push_back(Expr::Compare(CmpOp::kEq,
                                       Expr::Attr("b", RefSelector::kSingle, "ID"),
                                       Expr::Attr("a", RefSelector::kIterCurr, "ID")));
  q.window = Millis(8);
  std::vector<EventPtr> events = {
      Ev("B", 0, 1, 0),
      Ev("A", 1, 1, 1),
      Ev("A", 2, 1, 2),
  };
  auto matches = RunAll(schema_, q, events);
  // a[] in { {e1}, {e2}, {e1,e2} } = 3 matches.
  EXPECT_EQ(matches.size(), 3u);
}

// --- Negation ---------------------------------------------------------------

Query MakeNegationQuery(Duration window = Millis(8)) {
  // SEQ(A a, !B b, C c) WHERE a.ID=c.ID AND b.ID=a.ID
  Query q;
  q.name = "neg";
  q.elements = {
      {"a", "A", -1, false, false, 1, 1},
      {"b", "B", -1, false, true, 1, 1},
      {"c", "C", -1, false, false, 1, 1},
  };
  using E = Expr;
  q.predicates.push_back(E::Compare(CmpOp::kEq, E::Attr("a", RefSelector::kSingle, "ID"),
                                    E::Attr("c", RefSelector::kSingle, "ID")));
  q.predicates.push_back(E::Compare(CmpOp::kEq, E::Attr("b", RefSelector::kSingle, "ID"),
                                    E::Attr("a", RefSelector::kSingle, "ID")));
  q.window = window;
  return q;
}

TEST_F(EngineTest, NegationVetoesMatchWithInterveningEvent) {
  auto matches = RunAll(schema_, MakeNegationQuery(),
                        {Ev("A", 0, 1, 1), Ev("B", 5, 1, 1), Ev("C", 10, 1, 1)});
  EXPECT_TRUE(matches.empty());
}

TEST_F(EngineTest, NegationIgnoresNonMatchingWitness) {
  // B with a different ID does not veto.
  auto matches = RunAll(schema_, MakeNegationQuery(),
                        {Ev("A", 0, 1, 1), Ev("B", 5, 2, 1), Ev("C", 10, 1, 1)});
  EXPECT_EQ(matches.size(), 1u);
}

TEST_F(EngineTest, NegationIgnoresWitnessOutsideInterval) {
  // B before A does not veto.
  auto matches = RunAll(schema_, MakeNegationQuery(),
                        {Ev("B", 0, 1, 1), Ev("A", 5, 1, 1), Ev("C", 10, 1, 1)});
  EXPECT_EQ(matches.size(), 1u);
}

TEST_F(EngineTest, SheddingWitnessProducesFalsePositive) {
  // The mechanism behind the paper's Fig. 14: discarding witness state
  // turns vetoed candidates into (false positive) matches.
  Query q = MakeNegationQuery();
  auto nfa = Nfa::Compile(q, &schema_);
  ASSERT_TRUE(nfa.ok());
  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> out;
  engine.Process(Ev("A", 0, 1, 1), &out);
  engine.Process(Ev("B", 5, 1, 1), &out);
  // Shed all witnesses (state-based shedding of negation state).
  engine.store().ForEachAliveWitness(
      [&](PartialMatch* w) { engine.store().Kill(w); });
  engine.Process(Ev("C", 10, 1, 1), &out);
  EXPECT_EQ(out.size(), 1u);  // false positive, as the paper predicts
}

// --- Aggregates ---------------------------------------------------------

TEST_F(EngineTest, KleeneAverageAggregatePredicate) {
  // SEQ(A+ a[], B b) WHERE AVG(a[].V) >= 4 AND a[last].ID=b.ID
  Query q;
  q.name = "agg";
  q.elements = {
      {"a", "A", -1, true, false, 1, 100},
      {"b", "B", -1, false, false, 1, 1},
  };
  q.predicates.push_back(Expr::Compare(CmpOp::kGe, Expr::Aggregate(AggKind::kAvg, "a", "V"),
                                       Expr::Literal(Value(4))));
  q.predicates.push_back(Expr::Compare(CmpOp::kEq, Expr::Attr("a", RefSelector::kLast, "ID"),
                                       Expr::Attr("b", RefSelector::kSingle, "ID")));
  q.window = Millis(8);
  std::vector<EventPtr> events = {
      Ev("A", 0, 1, 2),
      Ev("A", 1, 1, 6),
      Ev("B", 10, 1, 0),
  };
  // Subsequences: {2}: avg 2 (no), {6}: avg 6 (yes), {2,6}: avg 4 (yes).
  auto matches = RunAll(schema_, q, events);
  EXPECT_EQ(matches.size(), 2u);
}

// --- Stats and store behaviour ---------------------------------------------

TEST_F(EngineTest, StatsCountCreatedAndEvicted) {
  auto nfa = Nfa::Compile(MakeQ1(Millis(1)), &schema_);
  ASSERT_TRUE(nfa.ok());
  EngineOptions opts;
  opts.evict_interval = 1;
  Engine engine(*nfa, opts);
  std::vector<Match> out;
  engine.Process(Ev("A", 0, 1, 2), &out);
  EXPECT_EQ(engine.NumPartialMatches(), 1u);
  // 2ms later the A-match is expired and swept.
  engine.Process(Ev("A", 2000, 2, 2), &out);
  EXPECT_EQ(engine.stats().pms_evicted, 1u);
  EXPECT_EQ(engine.NumPartialMatches(), 1u);
}

TEST_F(EngineTest, SweepAndProbeCountAnEvictionOnce) {
  // Regression audit of the two eviction call sites: the periodic sweep
  // kills and counts an expired match; the hash-join probe then sees the
  // same (now dead) match in the index. The probe must skip it via the
  // tombstone *before* its own expiry check, or the eviction is counted
  // twice in stats().pms_evicted.
  auto nfa = Nfa::Compile(MakeQ1(Millis(1)), &schema_);
  ASSERT_TRUE(nfa.ok());
  EngineOptions opts;
  opts.evict_interval = 1;
  Engine engine(*nfa, opts);
  std::vector<Match> out;
  engine.Process(Ev("A", 0, 1, 2), &out);
  // B with a matching ID probes the state-1 index where the expired A-match
  // sits; the sweep (evict_interval=1) runs first in the same Process call.
  engine.Process(Ev("B", 2000, 1, 3), &out);
  EXPECT_EQ(engine.stats().pms_evicted, 1u);
  EXPECT_EQ(engine.NumPartialMatches(), 0u);
}

TEST_F(EngineTest, VacuumAtExactWindowBoundaryKeepsMatchesCompletable) {
  // WITHIN is inclusive (a completion exactly at the boundary matches), so
  // eviction must be strict (`>`): a Vacuum at exactly start_ts + window
  // may not kill the match that a same-timestamp completion would finish.
  auto nfa = Nfa::Compile(MakeQ1(Millis(8)), &schema_);
  ASSERT_TRUE(nfa.ok());
  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> out;
  engine.Process(Ev("A", 0, 1, 2), &out);
  engine.Process(Ev("B", 10, 1, 3), &out);
  engine.Vacuum(8000);
  EXPECT_EQ(engine.stats().pms_evicted, 0u);
  engine.Process(Ev("C", 8000, 1, 5), &out);
  EXPECT_EQ(out.size(), 1u);
  // One microsecond past the boundary the other pending prefix expires.
  engine.Vacuum(8001);
  EXPECT_GT(engine.stats().pms_evicted, 0u);
}

TEST_F(EngineTest, VacuumRespectsCountWindows) {
  // Regression: count-window queries alias nfa->window() to the count, so
  // the old Vacuum — which always ran a *time*-based expiry sweep — read
  // "3 events" as "3 microseconds" and evicted matches that were well
  // inside the count window whenever timestamps outpace sequence numbers.
  auto q = ParseQuery("PATTERN SEQ(A a, B b) WHERE a.ID = b.ID WITHIN 3 EVENTS");
  ASSERT_TRUE(q.ok());
  auto nfa = Nfa::Compile(*q, &schema_);
  ASSERT_TRUE(nfa.ok());
  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> out;
  engine.Process(Ev("A", 0, 1, 2), &out);
  engine.Process(Ev("C", 1000, 9, 0), &out);   // advances the stream clock
  engine.Process(Ev("C", 2000, 9, 0), &out);
  engine.Vacuum(2000);  // seq distance 2 <= 3: must survive
  EXPECT_EQ(engine.stats().pms_evicted, 0u);
  engine.Process(Ev("B", 3000, 1, 3), &out);  // span 3 events: still inside
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(EngineTest, ResetClearsState) {
  auto nfa = Nfa::Compile(MakeQ1(), &schema_);
  ASSERT_TRUE(nfa.ok());
  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> out;
  engine.Process(Ev("A", 0, 1, 2), &out);
  engine.Process(Ev("B", 1, 1, 3), &out);
  EXPECT_GT(engine.NumPartialMatches(), 0u);
  engine.Reset();
  EXPECT_EQ(engine.NumPartialMatches(), 0u);
  EXPECT_EQ(engine.stats().events_processed, 0u);
  // Engine is usable after Reset.
  engine.Process(Ev("A", 0, 10, 2), &out);
  EXPECT_EQ(engine.NumPartialMatches(), 1u);
}

TEST_F(EngineTest, ProcessReturnsPositiveCost) {
  auto nfa = Nfa::Compile(MakeQ1(), &schema_);
  ASSERT_TRUE(nfa.ok());
  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> out;
  const double c = engine.Process(Ev("A", 0, 1, 2), &out);
  EXPECT_GT(c, 0.0);
  EXPECT_DOUBLE_EQ(engine.stats().total_cost, c);
}

TEST_F(EngineTest, CostGrowsWithStateSize) {
  auto nfa = Nfa::Compile(MakeQ1(Millis(100)), &schema_);
  ASSERT_TRUE(nfa.ok());
  EngineOptions opts;
  opts.use_join_index = false;  // make scan cost visible
  Engine engine(*nfa, opts);
  std::vector<Match> out;
  for (int i = 0; i < 50; ++i) {
    engine.Process(Ev("A", i, 1, 2), &out);
  }
  const double cost_small = engine.Process(Ev("B", 100, 1, 3), &out);
  for (int i = 0; i < 200; ++i) {
    engine.Process(Ev("A", 200 + i, 1, 2), &out);
  }
  const double cost_large = engine.Process(Ev("B", 500, 1, 3), &out);
  EXPECT_GT(cost_large, cost_small);
}

}  // namespace
}  // namespace cepshed
