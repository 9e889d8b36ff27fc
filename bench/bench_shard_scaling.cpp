// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Shard-scaling benchmark: throughput of the sharded runtime versus the
// single-threaded engine over shard counts {1, 2, 4, 8}, for both routing
// modes, on DS1/Q1 and the Google-trace churn query (its 1 h window, and a
// 1 ms window under which routing costs as much as the engine step). Each
// row reports the parallel run, the same plan replayed sequentially
// (RunSequential — isolates queue/merge overhead from parallel speedup),
// and the match count so exactness regressions are visible in the numbers
// themselves.
//
// Speedup is bounded by the physical core count: on a single-core host
// every configuration degenerates to sequential throughput minus queue
// overhead; run on a multicore machine to observe scaling.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/cep/nfa.h"
#include "src/obs/export.h"
#include "src/runtime/shard_runtime.h"

namespace cepshed {
namespace {

double BaselineEps(const Schema& schema, const EventStream& stream,
                   const Query& query, size_t* matches) {
  auto nfa = Nfa::Compile(query, &schema);
  if (!nfa.ok()) std::abort();
  Engine engine(*nfa, EngineOptions{});
  std::vector<Match> out;
  const auto t0 = std::chrono::steady_clock::now();
  for (const EventPtr& e : stream) engine.Process(e, &out);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  *matches = out.size();
  return static_cast<double>(stream.size()) / secs;
}

void RunCase(const std::string& name, const Schema& schema,
             const EventStream& stream, const Query& query, ShardRouting routing,
             int partition_attr, Duration slice_stride) {
  size_t base_matches = 0;
  const double base_eps = BaselineEps(schema, stream, query, &base_matches);
  std::printf("%s,engine,1,%.0f,1.00,%zu\n", name.c_str(), base_eps, base_matches);

  for (const int shards : {1, 2, 4, 8}) {
    auto nfa = Nfa::Compile(query, &schema);
    if (!nfa.ok()) std::abort();
    ShardRuntimeOptions opts;
    opts.num_shards = shards;
    opts.routing = routing;
    opts.partition_attr = partition_attr;
    opts.slice_stride = slice_stride;
    obs::MetricsRegistry registry;
    opts.metrics = &registry;
    auto runtime = ShardRuntime::Create(*nfa, opts);
    if (!runtime.ok()) {
      std::fprintf(stderr, "%s shards=%d: %s\n", name.c_str(), shards,
                   runtime.status().ToString().c_str());
      continue;
    }
    auto parallel = (*runtime)->Run(stream);
    // Snapshot before the replay: the registry is shared by both runs, so
    // this captures the parallel run alone.
    const obs::RegistrySnapshot snap = registry.Snapshot();
    auto replay = (*runtime)->RunSequential(stream);
    if (!parallel.ok() || !replay.ok()) std::abort();
    std::printf("# obs %s shards=%d: routed=%llu processed=%llu "
                "queue_waits=%llu cost_p99=%.3f\n",
                name.c_str(), shards,
                static_cast<unsigned long long>(snap.total.events_routed),
                static_cast<unsigned long long>(snap.total.events_processed),
                static_cast<unsigned long long>(snap.total.queue_push_timeouts),
                snap.total.event_cost.Quantile(0.99));
    if (const char* path = std::getenv("CEPSHED_METRICS_OUT")) {
      obs::WriteMetricsFile(path, snap);  // last case wins
    }
    const double par_eps = static_cast<double>(stream.size()) / parallel->wall_seconds;
    const double seq_eps = static_cast<double>(stream.size()) / replay->wall_seconds;
    std::printf("%s,sharded,%d,%.0f,%.2f,%zu\n", name.c_str(), shards, par_eps,
                par_eps / base_eps, parallel->matches.size());
    std::printf("%s,sharded-replay,%d,%.0f,%.2f,%zu\n", name.c_str(), shards, seq_eps,
                seq_eps / base_eps, replay->matches.size());
  }
}

}  // namespace
}  // namespace cepshed

int main() {
  using namespace cepshed;
  std::printf("# shard scaling — %u hardware threads\n",
              std::thread::hardware_concurrency());
  bench::Header("Shard scaling", "throughput vs shard count",
                "case,mode,shards,events_per_sec,speedup_vs_engine,matches");

  {
    const Schema schema = MakeDs1Schema();
    Ds1Options gen;
    gen.num_events = 60000;
    gen.seed = 51;
    const EventStream stream = GenerateDs1(schema, gen);
    const Query q1 = *queries::Q1("4ms");
    RunCase("ds1_q1_hash", schema, stream, q1, ShardRouting::kHashPartition,
            schema.AttributeIndex("ID"), 0);
    RunCase("ds1_q1_slice", schema, stream, q1, ShardRouting::kWindowSlice, -1,
            Millis(4));
  }
  {
    const Schema schema = MakeGoogleTraceSchema();
    GoogleTraceOptions gen;
    gen.num_events = 60000;
    gen.seed = 52;
    const EventStream stream = GenerateGoogleTrace(schema, gen);
    RunCase("google_churn_hash", schema, stream, *queries::GoogleTaskChurn(),
            ShardRouting::kHashPartition, schema.AttributeIndex("task"), 0);
  }
  {
    // Router-heavy closed loop: a 1 ms window keeps almost no partial match
    // alive, so an engine step costs about as much as routing the event and
    // workers often catch up with the router — the case where the router
    // hands events over one at a time instead of in staged batches. The
    // longer stream keeps each run long enough to time.
    const Schema schema = MakeGoogleTraceSchema();
    GoogleTraceOptions gen;
    gen.num_events = 400000;
    gen.seed = 52;
    const EventStream stream = GenerateGoogleTrace(schema, gen);
    RunCase("google_churn_1ms_hash", schema, stream, *queries::GoogleTaskChurn("1ms"),
            ShardRouting::kHashPartition, schema.AttributeIndex("task"), 0);
  }
  return 0;
}
