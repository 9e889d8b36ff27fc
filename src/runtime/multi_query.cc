// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/runtime/multi_query.h"

#include "src/shed/controller.h"
#include "src/shed/offline_estimator.h"
#include "src/shed/registry.h"

namespace cepshed {

MultiQueryRunner::MultiQueryRunner(const Schema* schema,
                                   std::vector<WeightedQuery> queries,
                                   HybridOptions shed_options,
                                   CostModelOptions model_options,
                                   EngineOptions engine_options)
    : schema_(schema),
      queries_(std::move(queries)),
      shed_options_(shed_options),
      model_options_(model_options),
      engine_options_(engine_options),
      train_(schema) {}

Status MultiQueryRunner::Prepare(const EventStream& train) {
  if (queries_.empty()) {
    return Status::InvalidArgument("multi-query runner needs at least one query");
  }
  nfas_.clear();
  models_.clear();
  utility_samples_.clear();
  baseline_cost_.clear();
  offline_.clear();
  hspice_.clear();
  pspice_.clear();
  train_ = train;
  for (const WeightedQuery& wq : queries_) {
    if (wq.weight <= 0.0) {
      return Status::InvalidArgument("query weights must be positive");
    }
    CEPSHED_ASSIGN_OR_RETURN(auto nfa, Nfa::Compile(wq.query, schema_));
    CEPSHED_ASSIGN_OR_RETURN(
        OfflineStats stats,
        EstimateOffline(nfa, train, model_options_.num_time_slices,
                        model_options_.use_resource_cost, engine_options_));
    auto model = std::make_unique<CostModel>(nfa, model_options_);
    Rng rng(17 + models_.size());
    CEPSHED_RETURN_NOT_OK(model->Train(stats, &rng));
    utility_samples_.push_back(ComputeTrainingUtilities(*model, train));

    auto hspice = std::make_unique<HspiceTable>();
    CEPSHED_RETURN_NOT_OK(hspice->Train(nfa, stats));
    hspice_.push_back(std::move(hspice));
    auto pspice = std::make_unique<PspiceModel>();
    CEPSHED_RETURN_NOT_OK(pspice->Train(nfa, stats));
    pspice_.push_back(std::move(pspice));

    // The query's no-shedding per-event cost on the training stream sizes
    // its budget share; the offline replay already summed it.
    baseline_cost_.push_back(
        train.empty() ? 1.0 : stats.replay_cost / static_cast<double>(train.size()));

    nfas_.push_back(std::move(nfa));
    models_.push_back(std::move(model));
    offline_.push_back(std::move(stats));
  }
  prepared_ = true;
  return Status::OK();
}

Result<MultiQueryResult> MultiQueryRunner::Run(const EventStream& stream, double theta) {
  if (!prepared_) return Status::Internal("Prepare must be called first");

  // Budget split: theta_q proportional to w_q * baseline cost.
  double denom = 0.0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    denom += queries_[q].weight * baseline_cost_[q];
  }
  if (metrics_ != nullptr) metrics_->EnsureShards(static_cast<int>(queries_.size()));
  MultiQueryResult result;
  result.queries.resize(queries_.size());

  // The queries split the budget up front and share no state while they
  // run, so each one is a single-engine run over the whole stream.
  for (size_t q = 0; q < queries_.size(); ++q) {
    Engine engine(nfas_[q], engine_options_);
    std::unique_ptr<Shedder> shedder;
    const double theta_q = theta * queries_[q].weight * baseline_cost_[q] / denom;
    if (theta <= 0.0) {
      shedder = std::make_unique<NoShedder>();
    } else if (!shedder_spec_.empty()) {
      // Registry path: any named strategy over this query's slice and
      // substrate. Model-backed strategies wire their own engine hooks at
      // Bind, so nothing is wired here.
      ShedderContext ctx;
      ctx.theta = theta_q;
      ctx.hybrid_trigger_delay = shed_options_.trigger_delay;
      ctx.seed = shed_options_.seed + q;
      ctx.solver = shed_options_.solver;
      ctx.offline = &offline_[q];
      ctx.model = models_[q].get();
      ctx.hspice = hspice_[q].get();
      ctx.pspice = pspice_[q].get();
      ctx.utility_samples = &utility_samples_[q];
      ctx.train = &train_;
      CEPSHED_ASSIGN_OR_RETURN(shedder,
                               ShedderRegistry::Instance().Create(shedder_spec_, ctx));
    } else {
      auto model = std::make_unique<CostModel>(*models_[q]);
      HybridOptions opts = shed_options_;
      opts.theta = theta_q;
      opts.utility_samples = utility_samples_[q];
      opts.seed = shed_options_.seed + q;
      auto hybrid = std::make_unique<HybridShedder>(model.get(), opts);
      shedder = std::make_unique<ModelOwningShedder>(std::move(model), std::move(hybrid));
    }
    ShedRunner runner(&engine, shedder.get(), LatencyMonitor::Options{});
    if (metrics_ != nullptr) {
      runner.set_obs(metrics_->shard(static_cast<int>(q)), static_cast<int>(q));
    }
    RunResult run = runner.Run(stream);

    PerQueryResult& out = result.queries[q];
    if (queries_[q].query.name.empty()) {
      out.name = "q";
      out.name += std::to_string(q);
    } else {
      out.name = queries_[q].query.name;
    }
    out.matches = std::move(run.matches);
    out.avg_latency = run.avg_latency;
    out.dropped_events = run.dropped_events;
    out.shed_pms = run.shed_pms;
    result.total_avg_latency += out.avg_latency;
  }
  return result;
}

}  // namespace cepshed
