// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/runtime/shard_step.h"

namespace cepshed {

ShardStep::ShardStep(Engine* engine, LatencyMonitor::Options latency)
    : engine_(engine), monitor_(latency), monitor_window_(latency.window) {}

ShardStep::Outcome ShardStep::Step(const EventPtr& event, std::vector<Match>* matches,
                                   double cost_multiplier, Timestamp clock_skew) {
  Outcome out;
  if (obs_ != nullptr) obs_->events_routed.Add();
  double cost;
  if (guard_ != nullptr && guard_->ShouldDropInput(event->seq())) {
    // Guard rho_I: counted as a drop like any other input shedding.
    ++dropped_;
    cost = kDroppedEventCost;
    if (obs_ != nullptr) {
      obs_->events_dropped_guard.Add();
      obs_->audit.Record(obs::AuditKind::kGuardDrop, obs_shard_, event->timestamp(),
                         -1, monitor_.Current(), event->seq());
    }
  } else if (shedder_ != nullptr && shedder_->FilterEvent(*event)) {
    ++dropped_;
    cost = kDroppedEventCost;
  } else {
    const size_t before = matches->size();
    cost = engine_->Process(event, matches);
    ++processed_;
    out.processed = true;
    if (obs_ != nullptr) {
      obs_->events_processed.Add();
      if (matches->size() != before) obs_->matches_emitted.Add(matches->size() - before);
    }
  }
  out.cost = cost * cost_multiplier;
  if (obs_ != nullptr) obs_->event_cost.Record(out.cost);
  monitor_.Record(out.cost);
  if (shedder_ != nullptr) {
    const double theta = shedder_->theta();
    if (theta > 0.0 && monitor_.Count() >= monitor_window_) {
      ++bound_checked_;
      if (monitor_.Current() > theta) ++bound_violations_;
    }
    shedder_->AfterEvent(event->timestamp(), monitor_.Current());
  }
  if (guard_ != nullptr) {
    guard_->Observe(monitor_.Current(), queue_ != nullptr ? queue_->SizeApprox() : 0,
                    queue_ != nullptr ? queue_->capacity() : 0,
                    event->timestamp() + clock_skew);
  }
  if (obs_ != nullptr) PublishFootprint();
  return out;
}

void ShardStep::PublishFootprint() {
  obs_->state_bytes.Set(static_cast<int64_t>(engine_->ApproxStateBytes()));
  obs_->arena_live_bytes.Set(static_cast<int64_t>(engine_->store().arena().LiveBytes()));
  obs_->arena_capacity_bytes.Set(
      static_cast<int64_t>(engine_->store().arena().CapacityBytes()));
  obs_->flat_cache_entries.Set(static_cast<int64_t>(engine_->FlatCacheSize()));
  obs_->wheel_entries.Set(static_cast<int64_t>(engine_->store().WheelEntries()));
  // The store keeps the expiry-wheel counters as totals; publishing the
  // delta keeps the obs counters monotone when one step outlives a worker
  // (a restarted worker resumes the same engine and step).
  const uint64_t reaped = engine_->store().ExpiryReapedTotal();
  if (reaped > expiry_reaped_seen_) {
    obs_->expiry_reaped.Add(reaped - expiry_reaped_seen_);
    expiry_reaped_seen_ = reaped;
  }
  const uint64_t cascades = engine_->store().WheelCascadesTotal();
  if (cascades > wheel_cascades_seen_) {
    obs_->wheel_cascades.Add(cascades - wheel_cascades_seen_);
    wheel_cascades_seen_ = cascades;
  }
}

}  // namespace cepshed
