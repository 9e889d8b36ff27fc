// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The per-event shedding step: the paper's f_Q(rho_I(S(k+1)), rho_S(P(k)))
// for one event on one engine. Every driver runs its engines through it —
// the sharded runtime's shard worker, ShedRunner (and through it the
// experiment harness and MultiQueryRunner), and the soak harness — so they
// charge mu, count drops and publish obs series the same way. A driver
// keeps only its own work around the step: routing, fault injection,
// exact percentiles, peaks (DESIGN.md §3.11).

#ifndef CEPSHED_RUNTIME_SHARD_STEP_H_
#define CEPSHED_RUNTIME_SHARD_STEP_H_

#include <cstdint>
#include <vector>

#include "src/cep/engine.h"
#include "src/obs/metrics.h"
#include "src/runtime/latency_monitor.h"
#include "src/runtime/overload_guard.h"
#include "src/runtime/ring_queue.h"
#include "src/shed/shedder.h"

namespace cepshed {

/// \brief One engine's per-event step. Step runs, in order: guard rho_I,
/// shedder rho_I, Engine::Process, the cost record into mu, the bound
/// check, the shedder's AfterEvent (rho_S), the guard's Observe, and the
/// footprint gauges and expiry-counter deltas.
///
/// Borrows the engine and the optional shedder, guard, obs slot and input
/// queue (none owned; all must outlive the step). Owns the latency monitor
/// and the drop, processed and bound counters. Thread-confined like the
/// engine it drives.
class ShardStep {
 public:
  /// Work charged to the latency monitor for a dropped event ("a discarded
  /// event is not processed at all" — only the filter runs).
  static constexpr double kDroppedEventCost = 0.05;

  /// What Step did with one event.
  struct Outcome {
    /// Cost charged to mu, after the cost multiplier.
    double cost = 0.0;
    /// False when the guard's or the shedder's rho_I dropped the event.
    bool processed = false;
  };

  ShardStep(Engine* engine, LatencyMonitor::Options latency);

  void set_shedder(Shedder* shedder) { shedder_ = shedder; }
  void set_guard(OverloadGuard* guard) { guard_ = guard; }
  /// The queue whose fill the guard reads (null: the guard sees none).
  void set_queue(const RingQueue<EventPtr>* queue) { queue_ = queue; }
  /// Obs slot (null = disabled); `shard` tags the guard-drop audit entries.
  void set_obs(obs::ShardObs* obs, int shard = 0) {
    obs_ = obs;
    obs_shard_ = static_cast<uint8_t>(shard);
  }

  /// Runs one event, appending its matches to *matches. `cost_multiplier`
  /// scales the cost charged to mu (a burst fault); `clock_skew` offsets
  /// the event time the guard sees (a skew fault).
  Outcome Step(const EventPtr& event, std::vector<Match>* matches,
               double cost_multiplier = 1.0, Timestamp clock_skew = 0);

  const LatencyMonitor& monitor() const { return monitor_; }
  /// Events dropped by either rho_I, and events processed.
  uint64_t events_dropped() const { return dropped_; }
  uint64_t events_processed() const { return processed_; }
  /// Events checked against the shedder's theta once the monitor window
  /// has filled, and those whose smoothed latency exceeded it.
  uint64_t bound_checked() const { return bound_checked_; }
  uint64_t bound_violations() const { return bound_violations_; }

 private:
  void PublishFootprint();

  Engine* engine_;
  Shedder* shedder_ = nullptr;
  OverloadGuard* guard_ = nullptr;
  const RingQueue<EventPtr>* queue_ = nullptr;
  obs::ShardObs* obs_ = nullptr;
  uint8_t obs_shard_ = 0;
  LatencyMonitor monitor_;
  size_t monitor_window_;
  uint64_t dropped_ = 0;
  uint64_t processed_ = 0;
  uint64_t bound_checked_ = 0;
  uint64_t bound_violations_ = 0;
  /// Store expiry-wheel totals already published to the obs counters.
  uint64_t expiry_reaped_seen_ = 0;
  uint64_t wheel_cascades_seen_ = 0;
};

}  // namespace cepshed

#endif  // CEPSHED_RUNTIME_SHARD_STEP_H_
