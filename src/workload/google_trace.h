// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Synthetic cluster-monitoring stream standing in for the Google
// Cluster-Usage Traces [35] (not available offline; see DESIGN.md §3).
// Tasks run through the trace's lifecycle state machine —
// submit -> schedule(machine) -> {finish | evict -> resubmit | fail} —
// and eviction storms (maintenance bursts) produce the repeated
// evict/reschedule chains that the paper's Listing-3 query detects.

#ifndef CEPSHED_WORKLOAD_GOOGLE_TRACE_H_
#define CEPSHED_WORKLOAD_GOOGLE_TRACE_H_

#include "src/cep/schema.h"
#include "src/cep/stream.h"
#include "src/common/rng.h"

namespace cepshed {

/// Builds the cluster schema: types Submit, Schedule, Evict, Fail, Finish;
/// attributes task, machine, priority.
Schema MakeGoogleTraceSchema();

/// \brief Generator configuration.
struct GoogleTraceOptions {
  size_t num_events = 40000;
  int num_machines = 8;
  int max_live_tasks = 300;
  /// Mean microseconds between lifecycle transitions. The default spreads
  /// 40k events over roughly 8 hours, so the 1h query window, the eviction
  /// storms, and the cost model's time slices are all meaningful.
  double base_gap = 7e5;
  /// Baseline eviction probability at a scheduling decision...
  double evict_prob = 0.25;
  /// ...multiplied during eviction storms...
  double storm_evict_prob = 0.7;
  /// ...which last this long, this often.
  Duration storm_length = Minutes(20);
  Duration storm_period = Hours(2);
  /// Probability a task fails (instead of finishing) after its third
  /// scheduling.
  double fail_prob = 0.3;
  uint64_t seed = 4;
};

/// Generates a synthetic cluster lifecycle stream.
EventStream GenerateGoogleTrace(const Schema& schema, const GoogleTraceOptions& options);

}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_GOOGLE_TRACE_H_
