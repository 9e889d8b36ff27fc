// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Micro benchmarks (google-benchmark): engine throughput with and without
// join indexes, per query, plus parser speed. Complements the figure
// benches with wall-clock numbers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/cep/engine.h"
#include "src/cep/pred_vm.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/query/parser.h"
#include "src/runtime/shard_step.h"
#include "src/workload/ds1.h"
#include "src/workload/ds2.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

/// Predicate-evaluation kernel shared by the BM_PredicateEval pair: Arg(0)
/// walks the Expr trees (interpreter), Arg(1) runs the compiled bytecode.
/// Each outer step replays `contexts` evaluation contexts; every context
/// change invalidates the VM's load registers, exactly as Engine::
/// FillContext does, so the measured VM includes its cache-maintenance
/// cost. Items processed = predicate evaluations, so the reported rate is
/// predicate-eval throughput (scripts/check_predicate_vm.py gates the /1
/// vs /0 ratio in CI).
void RunPredicateEvalBench(benchmark::State& state, const Nfa& nfa,
                           const std::vector<EvalContext>& contexts) {
  const bool use_vm = state.range(0) != 0;
  // Only predicates the compiler accepts take part, in both arms — Q3's
  // AVG-over-binding conjunct would run the interpreter either way and
  // dilute the comparison.
  std::vector<const CompiledPredicate*> preds;
  for (int s = 0; s < nfa.num_states(); ++s) {
    for (const CompiledPredicate* cp : nfa.state(s).bind_preds) {
      if (cp->vm_program >= 0) preds.push_back(cp);
    }
    for (const CompiledPredicate* cp : nfa.state(s).iter_preds) {
      if (cp->vm_program >= 0) preds.push_back(cp);
    }
  }
  const PredVmModule& module = *nfa.vm_module();
  PredVmContext vmc;
  vmc.Prepare(module.num_loads());
  double checksum = 0.0;
  for (auto _ : state) {
    for (const EvalContext& ctx : contexts) {
      double cost = 0.0;
      int passed = 0;
      if (use_vm) {
        vmc.Invalidate();
        for (const CompiledPredicate* cp : preds) {
          passed += module.EvalBool(cp->vm_program, ctx, &vmc, &cost) ? 1 : 0;
        }
      } else {
        for (const CompiledPredicate* cp : preds) {
          passed += cp->expr->EvalBool(ctx, &cost) ? 1 : 0;
        }
      }
      checksum += cost + passed;
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(contexts.size()) *
                          static_cast<int64_t>(preds.size()));
  state.counters["preds"] = static_cast<double>(preds.size());
}

/// One query's predicate workload: its compiled NFA plus synthetic
/// evaluation contexts (the events are kept alive by `owners`).
struct PredWorkload {
  std::shared_ptr<Nfa> nfa;
  std::vector<EventPtr> owners;
  std::vector<EvalContext> contexts;
};

/// Q1's integer predicate mix (equality joins + an arithmetic equality)
/// over edge-form contexts: a and b bound, a C event under test.
PredWorkload BuildQ1Workload() {
  PredWorkload w;
  const Schema schema = MakeDs1Schema();
  w.nfa = *Nfa::Compile(*queries::Q1("4ms"), &schema);
  Rng rng(7);
  const size_t num_ctx = 256;
  w.owners.reserve(num_ctx * 3);
  w.contexts.resize(num_ctx);
  for (EvalContext& ctx : w.contexts) {
    ctx.num_elements = 3;
    for (int e = 0; e < 3; ++e) {
      std::vector<Value> attrs(schema.num_attributes());
      attrs[0] = Value(rng.UniformInt(0, 4));   // ID: joins pass ~20%
      attrs[1] = Value(rng.UniformInt(1, 10));  // V
      w.owners.push_back(std::make_shared<Event>(e, 1, 0, std::move(attrs)));
      if (e < 2) {
        ElemBinding& b = ctx.bindings[e];
        b.count = 1;
        b.first = b.last = w.owners.back().get();
      } else {
        ctx.current = w.owners.back().get();
        ctx.current_elem = 2;
      }
    }
  }
  return w;
}

/// Q3's double predicate mix (division, range comparisons, sqrt inside the
/// n-ary AVG is excluded as an aggregate-free conjunct set) over DS2-shaped
/// events: a, b, c bound, a D event under test.
PredWorkload BuildQ3Workload() {
  PredWorkload w;
  const Schema schema = MakeDs2Schema();
  w.nfa = *Nfa::Compile(*queries::Q3("8ms"), &schema);
  Rng rng(11);
  const size_t num_ctx = 256;
  w.owners.reserve(num_ctx * 4);
  w.contexts.resize(num_ctx);
  for (EvalContext& ctx : w.contexts) {
    ctx.num_elements = 4;
    for (int e = 0; e < 4; ++e) {
      std::vector<Value> attrs(schema.num_attributes());
      attrs[0] = Value(static_cast<double>(rng.UniformInt(0, 4)));  // ID
      attrs[1] = Value(rng.UniformDouble(0.0, 4.0));                // x
      attrs[2] = Value(rng.UniformDouble(0.0, 4.0));                // y
      attrs[3] = Value(rng.UniformDouble(0.0, 4.0));                // v
      w.owners.push_back(std::make_shared<Event>(e, 1, 0, std::move(attrs)));
      if (e < 3) {
        ElemBinding& b = ctx.bindings[e];
        b.count = 1;
        b.first = b.last = w.owners.back().get();
      } else {
        ctx.current = w.owners.back().get();
        ctx.current_elem = 3;
      }
    }
  }
  return w;
}

/// The paper-query predicate mix (Q1's integer joins + Q3's double
/// arithmetic): the headline number the CI gate enforces.
void BM_PredicateEval(benchmark::State& state) {
  const PredWorkload q1 = BuildQ1Workload();
  const PredWorkload q3 = BuildQ3Workload();
  const bool use_vm = state.range(0) != 0;
  std::vector<std::vector<const CompiledPredicate*>> preds(2);
  const PredWorkload* workloads[] = {&q1, &q3};
  PredVmContext vmcs[2];
  int64_t items_per_iter = 0;
  for (int w = 0; w < 2; ++w) {
    const Nfa& nfa = *workloads[w]->nfa;
    for (int s = 0; s < nfa.num_states(); ++s) {
      for (const CompiledPredicate* cp : nfa.state(s).bind_preds) {
        if (cp->vm_program >= 0) preds[w].push_back(cp);
      }
      for (const CompiledPredicate* cp : nfa.state(s).iter_preds) {
        if (cp->vm_program >= 0) preds[w].push_back(cp);
      }
    }
    vmcs[w].Prepare(nfa.vm_module()->num_loads());
    items_per_iter += static_cast<int64_t>(workloads[w]->contexts.size()) *
                      static_cast<int64_t>(preds[w].size());
  }
  double checksum = 0.0;
  for (auto _ : state) {
    for (int w = 0; w < 2; ++w) {
      const PredVmModule& module = *workloads[w]->nfa->vm_module();
      for (const EvalContext& ctx : workloads[w]->contexts) {
        double cost = 0.0;
        int passed = 0;
        if (use_vm) {
          vmcs[w].Invalidate();
          for (const CompiledPredicate* cp : preds[w]) {
            passed += module.EvalBool(cp->vm_program, ctx, &vmcs[w], &cost) ? 1 : 0;
          }
        } else {
          for (const CompiledPredicate* cp : preds[w]) {
            passed += cp->expr->EvalBool(ctx, &cost) ? 1 : 0;
          }
        }
        checksum += cost + passed;
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          items_per_iter);
}
BENCHMARK(BM_PredicateEval)->Arg(0)->Arg(1);

void BM_PredicateEvalQ1(benchmark::State& state) {
  const PredWorkload w = BuildQ1Workload();
  RunPredicateEvalBench(state, *w.nfa, w.contexts);
}
BENCHMARK(BM_PredicateEvalQ1)->Arg(0)->Arg(1);

void BM_PredicateEvalQ3(benchmark::State& state) {
  const PredWorkload w = BuildQ3Workload();
  RunPredicateEvalBench(state, *w.nfa, w.contexts);
}
BENCHMARK(BM_PredicateEvalQ3)->Arg(0)->Arg(1);

/// The Q1 engine loop driven through the per-event step every driver
/// uses. With a null obs slot this is the metrics-off baseline of the
/// record-path overhead gate; BM_EngineQ1Metrics runs the same step with a
/// slot attached.
void RunEngineQ1Step(benchmark::State& state, obs::ShardObs* obs) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 20000;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1("4ms"), &schema);
  EngineOptions opts;
  opts.use_join_index = state.range(0) != 0;
  for (auto _ : state) {
    Engine engine(*nfa, opts);
    ShardStep step(&engine, LatencyMonitor::Options{});
    step.set_obs(obs);
    std::vector<Match> out;
    for (const EventPtr& e : stream) step.Step(e, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}

void BM_EngineQ1(benchmark::State& state) { RunEngineQ1Step(state, nullptr); }
BENCHMARK(BM_EngineQ1)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// BM_EngineQ1 with an obs slot attached: the full per-event record path
/// of every driver (counters, the cost histogram, the matches delta, the
/// footprint gauges and the expiry-counter deltas). The CI overhead gate
/// compares this against BM_EngineQ1 (same Arg) and fails above 5%.
void BM_EngineQ1Metrics(benchmark::State& state) {
  obs::MetricsRegistry registry(1);
  RunEngineQ1Step(state, registry.shard(0));
  benchmark::DoNotOptimize(registry.shard(0)->events_processed.Load());
}
BENCHMARK(BM_EngineQ1Metrics)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EngineQ2Kleene(benchmark::State& state) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 10000;
  gen.event_gap = 2;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q2(static_cast<int>(state.range(0)), "1ms"), &schema);
  for (auto _ : state) {
    Engine engine(*nfa, EngineOptions{});
    std::vector<Match> out;
    for (const EventPtr& e : stream) engine.Process(e, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_EngineQ2Kleene)->Arg(1)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

/// Clone-path microbenchmark: bursts of same-ID A events drive a Kleene
/// pattern under skip-till-any-match, so every event extends every open
/// match — TryBind's clone path dominates. No completing B ever arrives
/// (emission cost is absent) and bursts are separated by a full window so
/// eviction clears the store between them. The arg is the Kleene cap,
/// i.e. the chain length the workload reaches: with the shared-prefix
/// representation a clone is O(1) in the parent length, so clones/sec
/// should stay nearly flat as the cap grows; a flat-vector copy degrades
/// linearly. scripts/check_clone_path.py gates on exactly that ratio.
void BM_EngineKleeneClone(benchmark::State& state) {
  const Schema schema = MakeDs1Schema();
  const int reps = static_cast<int>(state.range(0));
  // Every event anchors a fresh match and extends every open chain: event
  // s carries ID=s and V=s+1, and the bare-attribute join keys
  // (b[first].ID = a.V, b[i+1].ID = b[i].V) chain consecutive events, so
  // each chain grows by exactly one binding per event until the Kleene
  // cap. Keys are globally unique, so the hash-join probes are exact (no
  // tombstone scanning) and per-event work is ~cap clones of parent
  // lengths 1..cap — the clone path at real chain depth.
  auto q = ParseQuery(
      "PATTERN SEQ(A a, A+{1," + std::to_string(reps) +
      "} b[], B c) WHERE b[first].ID = a.V AND b[i+1].ID = b[i].V "
      "AND a.ID = c.ID WITHIN 1ms");
  auto nfa = Nfa::Compile(*q, &schema);
  const int id_attr = schema.AttributeIndex("ID");
  const int v_attr = schema.AttributeIndex("V");
  std::vector<EventPtr> stream;
  const uint64_t kEvents = 4000;
  // Chains only grow while their anchor is inside the 1ms window, so the
  // event spacing must leave room for `reps` extensions before expiry.
  const Timestamp step = reps <= 64 ? 10 : 2;
  for (uint64_t s = 0; s < kEvents; ++s) {
    std::vector<Value> attrs(schema.num_attributes());
    attrs[static_cast<size_t>(id_attr)] = Value(static_cast<int64_t>(s));
    attrs[static_cast<size_t>(v_attr)] = Value(static_cast<int64_t>(s + 1));
    stream.push_back(std::make_shared<Event>(
        schema.EventTypeId("A"), static_cast<Timestamp>(s) * step, s,
        std::move(attrs)));
  }
  uint64_t clones = 0;
  for (auto _ : state) {
    Engine engine(*nfa, EngineOptions{});
    std::vector<Match> out;
    for (const EventPtr& e : stream) engine.Process(e, &out);
    clones = engine.stats().pms_created;
    benchmark::DoNotOptimize(clones);
  }
  // Throughput in clones (not events), so arms with different caps and
  // thus different fan-outs stay comparable.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(clones));
  state.counters["pms_created"] = static_cast<double>(clones);
}
BENCHMARK(BM_EngineKleeneClone)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_ParseQuery(benchmark::State& state) {
  const std::string text =
      "PATTERN SEQ(A a, A+{1,4} b[], B c, C d) "
      "WHERE a.ID = b[i].ID AND a.ID = c.ID AND b[i].V = a.V AND a.V + c.V = d.V "
      "WITHIN 1ms";
  for (auto _ : state) {
    auto q = ParseQuery(text);
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_ParseQuery);

void BM_NfaCompile(benchmark::State& state) {
  const Schema schema = MakeDs1Schema();
  const Query query = *queries::Q1("4ms");
  for (auto _ : state) {
    auto nfa = Nfa::Compile(query, &schema);
    benchmark::DoNotOptimize(nfa.ok());
  }
}
BENCHMARK(BM_NfaCompile);

}  // namespace
}  // namespace cepshed

BENCHMARK_MAIN();
