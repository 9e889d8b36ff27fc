// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/shed/controller.h"

#include <algorithm>
#include <chrono>

#include "src/runtime/shard_step.h"

namespace cepshed {

ShedRunner::ShedRunner(Engine* engine, Shedder* shedder,
                       LatencyMonitor::Options latency_options)
    : engine_(engine), shedder_(shedder), latency_options_(latency_options) {
  shedder_->Bind(engine_);
}

RunResult ShedRunner::Run(const EventStream& stream, size_t pm_sample_stride) {
  RunResult result;
  ShardStep step(engine_, latency_options_);
  step.set_shedder(shedder_);
  if (obs_ != nullptr) {
    step.set_obs(obs_, obs_shard_);
    shedder_->set_obs(obs_, obs_shard_);
  }
  std::vector<double> latencies;
  latencies.reserve(stream.size());

  const auto t0 = std::chrono::steady_clock::now();
  size_t since_sample = 0;
  for (const EventPtr& event : stream) {
    latencies.push_back(step.Step(event, &result.matches).cost);
    if (pm_sample_stride > 0 && ++since_sample >= pm_sample_stride) {
      since_sample = 0;
      result.pm_series.push_back(engine_->NumPartialMatches() +
                                 engine_->NumWitnesses());
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  result.total_events = stream.size();
  result.dropped_events = step.events_dropped();
  result.processed_events = step.events_processed();
  result.bound_checked = step.bound_checked();
  result.bound_violations = step.bound_violations();
  result.shed_pms = shedder_->pms_shed();
  result.pms_created = engine_->stats().pms_created + engine_->stats().witnesses_created;
  result.engine_stats = engine_->stats();
  result.pm_series_stride = pm_sample_stride;

  result.avg_latency = step.monitor().OverallAverage();
  if (!latencies.empty()) {
    // One working copy for both quantiles. Ranks use the same sorted-index
    // convention as the obs log-histogram (HistogramSnapshot::Quantile):
    // element floor(q * (n-1)) of the sorted samples — so the exported
    // histogram percentiles and these exact ones agree up to bucket width.
    const size_t n = latencies.size();
    auto rank = [n](double q) {
      return std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n - 1)));
    };
    const size_t i95 = rank(0.95);
    const size_t i99 = rank(0.99);
    std::vector<double> copy = latencies;
    std::nth_element(copy.begin(), copy.begin() + static_cast<ptrdiff_t>(i95),
                     copy.end());
    result.p95_latency = copy[i95];
    // nth_element left [i95, end) holding the top tail, so the second
    // selection only has to partition that suffix.
    std::nth_element(copy.begin() + static_cast<ptrdiff_t>(i95),
                     copy.begin() + static_cast<ptrdiff_t>(i99), copy.end());
    result.p99_latency = copy[i99];
  }
  return result;
}

}  // namespace cepshed
