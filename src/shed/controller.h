// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The shedding controller: drives one stream through an engine under a
// shedding strategy and exposes the run's raw outcome. Each event goes
// through a ShardStep (src/runtime/shard_step.h), the per-event step every
// driver shares: the runtime realization of the paper's model
// f_Q(rho_I(S(k+1)), rho_S(P(k))). The runner adds only what a single-
// engine experiment needs on top: exact latency percentiles, the sampled
// partial-match series and the wall clock.

#ifndef CEPSHED_SHED_CONTROLLER_H_
#define CEPSHED_SHED_CONTROLLER_H_

#include <vector>

#include "src/cep/engine.h"
#include "src/cep/stream.h"
#include "src/runtime/latency_monitor.h"
#include "src/shed/shedder.h"

namespace cepshed {

/// \brief Raw outcome of one stream run.
struct RunResult {
  std::vector<Match> matches;
  uint64_t total_events = 0;
  uint64_t dropped_events = 0;
  uint64_t processed_events = 0;
  uint64_t shed_pms = 0;
  uint64_t pms_created = 0;
  /// Overall average per-event latency in cost units.
  double avg_latency = 0.0;
  /// Exact percentiles over all per-event latencies of this run.
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  /// Wall-clock duration of the run.
  double wall_seconds = 0.0;
  /// Events (after a monitor-window warmup) whose smoothed latency
  /// exceeded the strategy's bound, and the total events counted.
  uint64_t bound_violations = 0;
  uint64_t bound_checked = 0;
  /// Sampled live partial-match counts (when sampling was requested).
  std::vector<size_t> pm_series;
  size_t pm_series_stride = 0;
  EngineStats engine_stats;
};

/// \brief Runs a stream through engine + shedder with latency monitoring.
class ShedRunner {
 public:
  /// The engine and shedder must outlive the runner. The shedder is bound
  /// to the engine here.
  ShedRunner(Engine* engine, Shedder* shedder, LatencyMonitor::Options latency_options);

  /// Processes the whole stream. `pm_sample_stride` > 0 samples the live
  /// partial-match count every that-many events (Fig. 1's series).
  RunResult Run(const EventStream& stream, size_t pm_sample_stride = 0);

  /// Attaches an observability sink (optional; not owned): the runner then
  /// publishes the step's per-event series, and wires the sink into the
  /// shedder's drop/kill audit hooks, whose entries carry `shard`.
  void set_obs(obs::ShardObs* o, int shard = 0) {
    obs_ = o;
    obs_shard_ = shard;
  }

 private:
  Engine* engine_;
  Shedder* shedder_;
  LatencyMonitor::Options latency_options_;
  obs::ShardObs* obs_ = nullptr;
  int obs_shard_ = 0;
};

}  // namespace cepshed

#endif  // CEPSHED_SHED_CONTROLLER_H_
