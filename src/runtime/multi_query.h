// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Multi-query processing under one latency budget — the setting of the
// prior CEP-shedding work the paper discusses ([24] He, Barman & Naughton,
// which "optimizes shedding decisions for a set of queries based on
// pre-defined weights"), realized on top of this library's per-query
// hybrid shedders: the global budget is divided across the queries in
// proportion to their weighted no-shedding costs, and each query's hybrid
// strategy enforces its slice.

#ifndef CEPSHED_RUNTIME_MULTI_QUERY_H_
#define CEPSHED_RUNTIME_MULTI_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cep/engine.h"
#include "src/obs/metrics.h"
#include "src/runtime/latency_monitor.h"
#include "src/runtime/metrics.h"
#include "src/shed/cost_model.h"
#include "src/shed/hspice.h"
#include "src/shed/hybrid.h"
#include "src/shed/offline_estimator.h"
#include "src/shed/pspice.h"

namespace cepshed {

/// \brief One query of the workload, with its share weight.
struct WeightedQuery {
  Query query;
  /// Relative importance: a query with twice the weight receives twice the
  /// per-unit-cost budget (pre-defined weights in the sense of [24]).
  double weight = 1.0;
};

/// \brief Per-query outcome of a multi-query run.
struct PerQueryResult {
  std::string name;
  std::vector<Match> matches;
  double avg_latency = 0.0;     ///< this query's per-event cost share
  uint64_t dropped_events = 0;  ///< events its rho_I discarded
  uint64_t shed_pms = 0;
};

/// \brief Outcome of a multi-query run.
struct MultiQueryResult {
  std::vector<PerQueryResult> queries;
  /// Total per-event latency (sum over queries), overall average.
  double total_avg_latency = 0.0;
};

/// \brief Evaluates several queries over one stream, sharing a latency
/// budget theta (in cost units per event across all queries).
class MultiQueryRunner {
 public:
  /// The schema must outlive the runner.
  MultiQueryRunner(const Schema* schema, std::vector<WeightedQuery> queries,
                   HybridOptions shed_options = {}, CostModelOptions model_options = {},
                   EngineOptions engine_options = {});

  /// Compiles all queries and trains each query's cost model on `train`.
  Status Prepare(const EventStream& train);

  /// Processes `stream`. With `theta` <= 0 no shedding happens (the
  /// exhaustive multi-query baseline); otherwise the budget is split
  /// theta_q = theta * w_q c_q / sum(w c) where c_q is query q's
  /// no-shedding average cost on the training stream, and each query's
  /// hybrid shedder enforces its slice. The queries share no state once
  /// the budget is split, so each one runs through its own ShedRunner.
  Result<MultiQueryResult> Run(const EventStream& stream, double theta);

  size_t num_queries() const { return queries_.size(); }
  /// Training-stream average per-event cost of one query (post-Prepare).
  double BaselineCost(size_t q) const { return baseline_cost_[q]; }

  /// Attaches an observability registry (optional; not owned): each query
  /// then records into its own slot — slot q for query q — so the exported
  /// "shard" label identifies the query.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Selects the per-query shedding strategy by registry spec
  /// (`name[:key=value,...]`, see ShedderRegistry) instead of the default
  /// hybrid. Each query still receives its own budget slice as the spec's
  /// latency bound and its own trained substrate. Empty (the default)
  /// keeps the hybrid path.
  void set_shedder_spec(std::string spec) { shedder_spec_ = std::move(spec); }

 private:
  const Schema* schema_;
  std::vector<WeightedQuery> queries_;
  HybridOptions shed_options_;
  CostModelOptions model_options_;
  EngineOptions engine_options_;
  std::vector<std::shared_ptr<const Nfa>> nfas_;
  std::vector<std::unique_ptr<CostModel>> models_;
  std::vector<std::vector<double>> utility_samples_;
  std::vector<double> baseline_cost_;
  /// Per-query trained substrate beyond the cost model, retained so
  /// registry-spec runs can construct any strategy (SI/SS need the offline
  /// statistics, hSPICE/pSPICE their learned tables).
  std::vector<OfflineStats> offline_;
  std::vector<std::unique_ptr<HspiceTable>> hspice_;
  std::vector<std::unique_ptr<PspiceModel>> pspice_;
  /// Training stream (fixed-ratio threshold calibration in spec runs).
  EventStream train_;
  std::string shedder_spec_;
  obs::MetricsRegistry* metrics_ = nullptr;
  bool prepared_ = false;
};

}  // namespace cepshed

#endif  // CEPSHED_RUNTIME_MULTI_QUERY_H_
