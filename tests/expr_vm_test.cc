// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Differential tests for the predicate bytecode VM (src/cep/pred_vm.h)
// against the tree interpreter (Expr::Eval), which remains the reference
// semantics. Three layers:
//
//  1. targeted unit tests — constant folding, load CSE, typed-opcode
//     fallback on mis-typed payloads, null comparison semantics, the
//     aggregate refusal path;
//  2. a seeded randomized fuzz: random schemas (mixed attribute types),
//     random expression trees over every operator and selector, random
//     events (nulls and type-mismatched payloads included) and Kleene
//     bindings — value, truthiness, AND accumulated cost units must agree
//     exactly (the units feed the cost model's Gamma-, so parity is a hard
//     contract, not an approximation);
//  3. engine-level goldens: the paper's Q1-Q4 (and an IN/OR/SQRT query)
//     replayed on the engine must reproduce pinned fingerprints of the
//     match sets and stats including total_cost. They were recorded while
//     the engine could still run every predicate on the interpreter, and
//     both modes produced them byte for byte.
//
// The whole suite runs under ASan+UBSan in the debug-asan CI job.

#include "src/cep/pred_vm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/cep/pattern.h"
#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/workload/ds1.h"
#include "src/workload/ds2.h"
#include "src/workload/queries.h"
#include "tests/test_util.h"

namespace cepshed {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Exact Value equality: same type, same payload (double compare is exact —
/// both evaluators must perform the identical float operations; NaN == NaN).
void ExpectSameValue(const Value& expected, const Value& actual,
                     const std::string& what) {
  ASSERT_EQ(expected.type(), actual.type()) << what;
  switch (expected.type()) {
    case ValueType::kInt:
      EXPECT_EQ(expected.AsInt(), actual.AsInt()) << what;
      break;
    case ValueType::kDouble: {
      const double e = expected.AsDouble();
      const double a = actual.AsDouble();
      if (std::isnan(e) || std::isnan(a)) {
        EXPECT_TRUE(std::isnan(e) && std::isnan(a)) << what;
      } else {
        EXPECT_EQ(e, a) << what;  // exact, not almost-equal
      }
      break;
    }
    case ValueType::kString:
      EXPECT_EQ(expected.AsString(), actual.AsString()) << what;
      break;
    case ValueType::kNull:
      break;
  }
}

/// Runs interpreter and VM over the same context and requires identical
/// value, truthiness, and cost units. Evaluates the program twice in the
/// same register epoch, so the second run exercises the cached-load path
/// (which must still charge the same units).
void ExpectParity(const Expr& expr, const PredVmModule& module, int prog,
                  const EvalContext& ctx, PredVmContext* vmc,
                  const std::string& what) {
  double ref_cost = 0.0;
  const Value ref = expr.Eval(ctx, &ref_cost);
  double ref_bool_cost = 0.0;
  const bool ref_bool = expr.EvalBool(ctx, &ref_bool_cost);

  vmc->Invalidate();
  for (int pass = 0; pass < 2; ++pass) {
    const std::string tag = what + (pass == 0 ? " [cold]" : " [cached]");
    double vm_cost = 0.0;
    const Value got = module.Eval(prog, ctx, vmc, &vm_cost);
    ExpectSameValue(ref, got, tag);
    EXPECT_EQ(ref_cost, vm_cost) << tag;  // exact: sums of small integers
    double vm_bool_cost = 0.0;
    EXPECT_EQ(ref_bool, module.EvalBool(prog, ctx, vmc, &vm_bool_cost)) << tag;
    EXPECT_EQ(ref_bool_cost, vm_bool_cost) << tag;
  }
}

// ---------------------------------------------------------------------------
// 1. Targeted unit tests (ABCD schema from test_util)
// ---------------------------------------------------------------------------

class PredVmTest : public ::testing::Test {
 protected:
  PredVmTest() : schema_(testing::MakeAbcdSchema()) {
    elements_ = {
        {"a", "A", 0, false, false, 1, 1},
        {"b", "B", 1, true, false, 1, 100},
        {"c", "C", 2, false, false, 1, 1},
    };
  }

  ExprPtr Resolved(ExprPtr e) {
    EXPECT_TRUE(e->Resolve(elements_, schema_).ok());
    return e;
  }

  Schema schema_;
  std::vector<PatternElement> elements_;
};

TEST_F(PredVmTest, ConstantPredicateFoldsToOneConstWithInterpreterCost) {
  using E = Expr;
  // (1 + 2) = 3  ->  one kConst carrying the interpreter's 2 units.
  ExprPtr e = Resolved(E::Compare(CmpOp::kEq,
                                  E::Binary(BinOp::kAdd, E::Literal(Value(int64_t{1})),
                                            E::Literal(Value(int64_t{2}))),
                                  E::Literal(Value(int64_t{3}))));
  PredVmBuilder builder(&schema_);
  const int prog = builder.Add(*e);
  ASSERT_GE(prog, 0);
  auto module = builder.Build();
  ASSERT_NE(module, nullptr);
  // Folded: the program is kConst + kHalt, no arithmetic left.
  EXPECT_NE(module->Disassemble(prog).find("const"), std::string::npos);
  PredVmContext vmc;
  vmc.Prepare(module->num_loads());
  EvalContext ctx;
  ExpectParity(*e, *module, prog, ctx, &vmc, "const fold");
}

TEST_F(PredVmTest, AttributeLoadsAreSharedAcrossPrograms) {
  using E = Expr;
  ExprPtr p1 = Resolved(E::Compare(CmpOp::kGt, E::Attr("a", RefSelector::kSingle, "V"),
                                   E::Literal(Value(int64_t{3}))));
  ExprPtr p2 = Resolved(E::Compare(CmpOp::kLt, E::Attr("a", RefSelector::kSingle, "V"),
                                   E::Literal(Value(int64_t{9}))));
  PredVmBuilder builder(&schema_);
  ASSERT_GE(builder.Add(*p1), 0);
  ASSERT_GE(builder.Add(*p2), 0);
  auto module = builder.Build();
  // One (elem, selector, attr) triple -> one shared register.
  EXPECT_EQ(module->num_loads(), 1u);
}

TEST_F(PredVmTest, AggregatePredicatesAreRefused) {
  ExprPtr e = Expr::Compare(CmpOp::kLe, Expr::Aggregate(AggKind::kAvg, "b", "V"),
                            Expr::Literal(Value(int64_t{5})));
  ASSERT_TRUE(e->Resolve(elements_, schema_).ok());
  PredVmBuilder builder(&schema_);
  EXPECT_EQ(builder.Add(*e), -1);
  // The builder remains usable for the compilable predicates of the query.
  ExprPtr ok = Resolved(Expr::Compare(CmpOp::kEq, Expr::Attr("a", RefSelector::kSingle, "ID"),
                                      Expr::Attr("c", RefSelector::kSingle, "ID")));
  EXPECT_GE(builder.Add(*ok), 0);
}

TEST_F(PredVmTest, TypedOpcodeFallsBackOnMistypedPayload) {
  using E = Expr;
  // ID is declared kInt, so the compiler specializes to int opcodes; feed a
  // double payload through the same program.
  ExprPtr e = Resolved(E::Compare(CmpOp::kEq, E::Attr("a", RefSelector::kSingle, "ID"),
                                  E::Literal(Value(int64_t{7}))));
  PredVmBuilder builder(&schema_);
  const int prog = builder.Add(*e);
  ASSERT_GE(prog, 0);
  auto module = builder.Build();
  PredVmContext vmc;
  vmc.Prepare(module->num_loads());

  std::vector<Value> attrs = {Value(7.0), Value()};  // double ID, null V
  auto ev = std::make_shared<Event>(0, 1, 0, std::move(attrs));
  const Event* store[] = {ev.get()};
  EvalContext ctx;
  ctx.num_elements = 3;
  ctx.bindings[0] = {store, 1};
  ExpectParity(*e, *module, prog, ctx, &vmc, "mistyped payload");
}

TEST_F(PredVmTest, NullComparisonSemanticsMatchInterpreter) {
  using E = Expr;
  PredVmBuilder builder(&schema_);
  // V of an unbound element is null.
  auto null_ref = [&] { return E::Attr("c", RefSelector::kSingle, "V"); };
  std::vector<ExprPtr> exprs;
  exprs.push_back(Resolved(E::Compare(CmpOp::kEq, null_ref(), E::Literal(Value(int64_t{1})))));
  exprs.push_back(Resolved(E::Compare(CmpOp::kNe, null_ref(), E::Literal(Value(int64_t{1})))));
  exprs.push_back(Resolved(E::Compare(CmpOp::kLt, null_ref(), E::Literal(Value(int64_t{1})))));
  exprs.push_back(Resolved(E::Binary(BinOp::kAdd, null_ref(), E::Literal(Value(int64_t{1})))));
  exprs.push_back(Resolved(E::Func(FuncKind::kSqrt, null_ref())));
  std::vector<int> progs;
  for (const ExprPtr& e : exprs) progs.push_back(builder.Add(*e));
  auto module = builder.Build();
  PredVmContext vmc;
  vmc.Prepare(module->num_loads());
  EvalContext ctx;
  ctx.num_elements = 3;  // nothing bound: every load is null
  for (size_t i = 0; i < exprs.size(); ++i) {
    ASSERT_GE(progs[i], 0);
    ExpectParity(*exprs[i], *module, progs[i], ctx, &vmc,
                 "null semantics #" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// 2. Seeded randomized fuzz
// ---------------------------------------------------------------------------

/// Generates random expression trees over a random mixed-type schema, and
/// random contexts (bindings, current event, negation witness) with null
/// and type-mismatched attribute payloads.
class VmFuzzer {
 public:
  explicit VmFuzzer(uint64_t seed) : rng_(seed) {
    (void)schema_.AddEventType("A");
    (void)schema_.AddEventType("B");
    (void)schema_.AddEventType("C");
    const int num_attrs = static_cast<int>(rng_.UniformInt(4, 8));
    for (int i = 0; i < num_attrs; ++i) {
      static const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                         ValueType::kString};
      attr_types_.push_back(kTypes[rng_.UniformInt(0, 2)]);
      (void)schema_.AddAttribute("f" + std::to_string(i), attr_types_.back());
    }
    elements_ = {
        {"a", "A", 0, false, false, 1, 1},
        {"b", "B", 1, true, false, 1, 100},  // the Kleene element
        {"c", "C", 2, false, false, 1, 1},
    };
  }

  const Schema& schema() const { return schema_; }

  /// A resolved random expression, or null when the draw was structurally
  /// invalid (rejected by Resolve).
  ExprPtr RandomResolvedExpr(int max_depth) {
    ExprPtr e = RandomExpr(max_depth);
    if (!e->Resolve(elements_, schema_).ok()) return nullptr;
    return e;
  }

  /// Fills `ctx` with random bindings. `owners` keeps the events alive and
  /// `stores` the per-element span storage; both must outlive the context.
  void RandomContext(EvalContext* ctx, std::vector<EventPtr>* owners,
                     std::vector<std::vector<const Event*>>* stores) {
    owners->clear();
    stores->assign(3, {});
    ctx->num_elements = 3;
    for (int e = 0; e < 3; ++e) ctx->bindings[e] = ElemBinding{};
    for (int e = 0; e < 3; ++e) {
      const int max_count = e == 1 ? 4 : 1;
      const int count = static_cast<int>(rng_.UniformInt(0, max_count));
      for (int i = 0; i < count; ++i) {
        owners->push_back(RandomEvent(e));
        (*stores)[static_cast<size_t>(e)].push_back(owners->back().get());
      }
      if (count > 0) {
        ctx->bindings[e] = ElemBinding{(*stores)[static_cast<size_t>(e)].data(),
                                       static_cast<uint32_t>(count)};
      }
    }
    ctx->current = nullptr;
    ctx->current_elem = -1;
    ctx->negated = nullptr;
    ctx->negated_elem = -1;
    if (rng_.Bernoulli(0.6)) {
      ctx->current_elem = static_cast<int>(rng_.UniformInt(0, 2));
      owners->push_back(RandomEvent(ctx->current_elem));
      ctx->current = owners->back().get();
    }
    if (rng_.Bernoulli(0.2)) {
      // A stand-in witness on some element (the veto path substitutes it
      // for the negated component's binding).
      ctx->negated_elem = static_cast<int>(rng_.UniformInt(0, 2));
      owners->push_back(RandomEvent(ctx->negated_elem));
      ctx->negated = owners->back().get();
    }
  }

 private:
  /// Magnitudes are kept tiny so that even adversarial mul towers stay far
  /// from int64 overflow (signed overflow would be UB in both evaluators).
  Value RandomValueOfType(ValueType t) {
    switch (t) {
      case ValueType::kInt:
        return Value(rng_.UniformInt(-4, 4));
      case ValueType::kDouble:
        return Value(rng_.UniformDouble(-4.0, 4.0));
      case ValueType::kString: {
        static const char* const kStrings[] = {"", "x", "y", "zz"};
        return Value(std::string(kStrings[rng_.UniformInt(0, 3)]));
      }
      case ValueType::kNull:
        break;
    }
    return Value();
  }

  Value RandomLiteral() {
    static const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                       ValueType::kString, ValueType::kNull};
    return RandomValueOfType(kTypes[rng_.Categorical({5, 4, 2, 1})]);
  }

  EventPtr RandomEvent(int elem) {
    std::vector<Value> attrs;
    for (ValueType t : attr_types_) {
      if (rng_.Bernoulli(0.15)) {
        attrs.emplace_back();  // null payload
      } else if (rng_.Bernoulli(0.10)) {
        // Payload of a type other than the schema-declared one: the typed
        // opcodes' guards must catch this and fall back.
        static const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                           ValueType::kString};
        attrs.push_back(RandomValueOfType(kTypes[rng_.UniformInt(0, 2)]));
      } else {
        attrs.push_back(RandomValueOfType(t));
      }
    }
    const int64_t ts = ++ts_;
    return std::make_shared<Event>(elem, ts, ts, std::move(attrs));
  }

  ExprPtr RandomAttrRef() {
    const int elem = static_cast<int>(rng_.UniformInt(0, 2));
    static const char* const kVars[] = {"a", "b", "c"};
    RefSelector sel = RefSelector::kSingle;
    if (elem == 1) {
      static const RefSelector kSels[] = {RefSelector::kSingle, RefSelector::kIterPrev,
                                          RefSelector::kIterCurr, RefSelector::kFirst,
                                          RefSelector::kLast};
      sel = kSels[rng_.UniformInt(0, 4)];
    }
    const std::string attr = "f" + std::to_string(rng_.UniformInt(
                                       0, static_cast<int64_t>(attr_types_.size()) - 1));
    return Expr::Attr(kVars[elem], sel, attr);
  }

  ExprPtr RandomExpr(int max_depth) {
    if (max_depth <= 0 || rng_.Bernoulli(0.25)) {
      return rng_.Bernoulli(0.55) ? RandomAttrRef() : Expr::Literal(RandomLiteral());
    }
    switch (rng_.Categorical({4, 5, 2, 2, 1.5, 1.5, 1.5, 1.5})) {
      case 0:
        return Expr::Binary(static_cast<BinOp>(rng_.UniformInt(0, 4)),
                            RandomExpr(max_depth - 1), RandomExpr(max_depth - 1));
      case 1:
        return Expr::Compare(static_cast<CmpOp>(rng_.UniformInt(0, 5)),
                             RandomExpr(max_depth - 1), RandomExpr(max_depth - 1));
      case 2:
      case 3: {
        std::vector<ExprPtr> kids;
        const int n = static_cast<int>(rng_.UniformInt(2, 3));
        for (int i = 0; i < n; ++i) kids.push_back(RandomExpr(max_depth - 1));
        return rng_.Bernoulli(0.5) ? Expr::And(std::move(kids)) : Expr::Or(std::move(kids));
      }
      case 4:
        return Expr::Not(RandomExpr(max_depth - 1));
      case 5:
        return Expr::Func(rng_.Bernoulli(0.5) ? FuncKind::kSqrt : FuncKind::kAbs,
                          RandomExpr(max_depth - 1));
      case 6: {
        std::vector<ExprPtr> kids;
        const int n = static_cast<int>(rng_.UniformInt(2, 3));
        for (int i = 0; i < n; ++i) kids.push_back(RandomExpr(max_depth - 1));
        return Expr::AvgN(std::move(kids));
      }
      default: {
        std::vector<Value> set;
        const int n = static_cast<int>(rng_.UniformInt(1, 4));
        for (int i = 0; i < n; ++i) set.push_back(RandomLiteral());
        return Expr::InSet(RandomExpr(max_depth - 1), std::move(set));
      }
    }
  }

  Rng rng_;
  Schema schema_;
  std::vector<ValueType> attr_types_;
  std::vector<PatternElement> elements_;
  Timestamp ts_ = 0;
};

TEST(PredVmFuzzTest, RandomExpressionsAgreeWithInterpreterExactly) {
  constexpr uint64_t kSeeds[] = {1, 2026, 0xfeedbeef};
  constexpr int kExprsPerSeed = 120;
  constexpr int kContextsPerExpr = 12;
  int evaluated = 0;
  for (const uint64_t seed : kSeeds) {
    VmFuzzer fuzz(seed);
    for (int i = 0; i < kExprsPerSeed; ++i) {
      ExprPtr e = fuzz.RandomResolvedExpr(/*max_depth=*/5);
      if (e == nullptr) continue;
      PredVmBuilder builder(&fuzz.schema());
      const int prog = builder.Add(*e);
      ASSERT_GE(prog, 0) << e->ToString();  // no aggregates are generated
      auto module = builder.Build();
      ASSERT_NE(module, nullptr);
      PredVmContext vmc;
      vmc.Prepare(module->num_loads());
      EvalContext ctx;
      std::vector<EventPtr> owners;
      std::vector<std::vector<const Event*>> stores;
      for (int k = 0; k < kContextsPerExpr; ++k) {
        fuzz.RandomContext(&ctx, &owners, &stores);
        ExpectParity(*e, *module, prog, ctx, &vmc,
                     "seed=" + std::to_string(seed) + " expr=" + e->ToString());
        ++evaluated;
        if (::testing::Test::HasFailure()) return;  // first divergence only
      }
    }
  }
  // The rejection sampling must not have starved the fuzz.
  EXPECT_GT(evaluated, 1000);
}

// ---------------------------------------------------------------------------
// 3. Engine-level goldens
// ---------------------------------------------------------------------------

/// Replays `stream` and checks a fingerprint of the matches, every stat,
/// and the summed per-event cost against `pinned`.
void ExpectPinnedRun(const std::string& label, Query query, const Schema& schema,
                     const EventStream& stream, uint64_t pinned,
                     bool index_expression_keys = false) {
  SCOPED_TRACE(label);
  auto nfa = Nfa::Compile(std::move(query), &schema);
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  EngineOptions options;
  options.index_expression_keys = index_expression_keys;
  Engine engine(*nfa, options);
  std::vector<Match> matches;
  double total_cost = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    total_cost += engine.Process(stream[i], &matches);
  }
  EXPECT_GT(engine.stats().predicate_evals, 0u);
  cepshed::testing::Fnv f;
  cepshed::testing::FoldMatches(matches, &f);
  cepshed::testing::FoldStats(engine.stats(), &f);
  f.F64(total_cost);
  EXPECT_EQ(f.value(), pinned) << std::hex << "0x" << f.value();
}

class PredVmEngineTest : public ::testing::Test {
 protected:
  PredVmEngineTest()
      : ds1_schema_(MakeDs1Schema()), ds2_schema_(MakeDs2Schema()) {
    Ds1Options opts1;
    opts1.num_events = 12000;
    ds1_ = std::make_unique<EventStream>(GenerateDs1(ds1_schema_, opts1));
    Ds2Options opts2;
    opts2.num_events = 12000;
    ds2_ = std::make_unique<EventStream>(GenerateDs2(ds2_schema_, opts2));
  }

  Schema ds1_schema_;
  Schema ds2_schema_;
  std::unique_ptr<EventStream> ds1_;
  std::unique_ptr<EventStream> ds2_;
};

TEST_F(PredVmEngineTest, Q1MatchesAndCostsAreIdentical) {
  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  ExpectPinnedRun("Q1", *q, ds1_schema_, *ds1_, 0x62d9e248aabc40ebULL);
}

TEST_F(PredVmEngineTest, Q1WithExpressionKeysExercisesVmBuildKeys) {
  auto q = queries::Q1();
  ASSERT_TRUE(q.ok());
  ExpectPinnedRun("Q1+exprkeys", *q, ds1_schema_, *ds1_, 0x62d9e248aabc40ebULL,
                  /*index_expression_keys=*/true);
}

TEST_F(PredVmEngineTest, Q2KleeneIterationPredicatesAreIdentical) {
  auto q = queries::Q2(/*kleene_reps=*/3);
  ASSERT_TRUE(q.ok());
  ExpectPinnedRun("Q2", *q, ds1_schema_, *ds1_, 0x2bce5072139c2ad0ULL);
}

TEST_F(PredVmEngineTest, Q3AggregateFallbackCoexistsWithCompiledPredicates) {
  // Q3's AVG-over-binding conjunct keeps the interpreter; everything else
  // (div, sqrt, double comparisons) runs compiled. Output must not care.
  auto q = queries::Q3();
  ASSERT_TRUE(q.ok());
  ExpectPinnedRun("Q3", *q, ds2_schema_, *ds2_, 0xe44932f96792d0e1ULL);
}

TEST_F(PredVmEngineTest, Q4NegationWitnessEvaluationIsIdentical) {
  auto q = queries::Q4();
  ASSERT_TRUE(q.ok());
  ExpectPinnedRun("Q4", *q, ds1_schema_, *ds1_, 0x874592a13768641dULL);
}

TEST_F(PredVmEngineTest, MembershipDisjunctionAndSqrtQueryIsIdentical) {
  auto q = ParseQuery(
      "PATTERN SEQ(A a, B b, C c) "
      "WHERE a.ID = b.ID AND b.ID = c.ID "
      "AND a.V IN {1, 2, 3, 5, 8} "
      "AND (SQRT(b.V) < 3 OR NOT c.V % 2 = 0 OR b.V - a.V IN {0, -1}) "
      "WITHIN 8ms");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExpectPinnedRun("inset-or-sqrt", *q, ds1_schema_, *ds1_, 0x7ce86a21fa95252eULL);
}

}  // namespace
}  // namespace cepshed
