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

  struct PerQuery {
    std::unique_ptr<Engine> engine;
    std::unique_ptr<CostModel> model;
    std::unique_ptr<Shedder> shedder;
    std::unique_ptr<LatencyMonitor> monitor;
    obs::ShardObs* obs = nullptr;
    size_t obs_matches_seen = 0;
    double total_cost = 0.0;
  };
  std::vector<PerQuery> running(queries_.size());
  if (metrics_ != nullptr) metrics_->EnsureShards(static_cast<int>(queries_.size()));
  MultiQueryResult result;
  result.queries.resize(queries_.size());

  for (size_t q = 0; q < queries_.size(); ++q) {
    PerQuery& query_run = running[q];
    query_run.engine = std::make_unique<Engine>(nfas_[q], engine_options_);
    const double theta_q =
        theta > 0.0 ? theta * queries_[q].weight * baseline_cost_[q] / denom : -1.0;
    if (theta > 0.0 && !shedder_spec_.empty()) {
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
      CEPSHED_ASSIGN_OR_RETURN(
          query_run.shedder,
          ShedderRegistry::Instance().Create(shedder_spec_, ctx));
      query_run.shedder->Bind(query_run.engine.get());
    } else {
      query_run.model = std::make_unique<CostModel>(*models_[q]);
      CostModel* model = query_run.model.get();
      query_run.engine->set_classifier(
          [model](const PartialMatch& pm) { return model->Classify(pm); });
      query_run.engine->set_pm_created_hook(
          [model](const PartialMatch& pm, const PartialMatch* parent) {
            model->OnPmCreated(pm, parent, pm.last_ts);
          });
      query_run.engine->set_match_hook(
          [model](const Match& m, const PartialMatch* parent) {
            model->OnMatch(m, parent, m.detected_at);
          });
      if (theta > 0.0) {
        HybridOptions opts = shed_options_;
        opts.theta = theta_q;
        opts.utility_samples = utility_samples_[q];
        opts.seed = shed_options_.seed + q;
        query_run.shedder = std::make_unique<HybridShedder>(model, opts);
        query_run.shedder->Bind(query_run.engine.get());
      }
    }
    if (metrics_ != nullptr) {
      query_run.obs = metrics_->shard(static_cast<int>(q));
      if (query_run.shedder != nullptr) {
        query_run.shedder->set_obs(query_run.obs, static_cast<int>(q));
      }
    }
    query_run.monitor = std::make_unique<LatencyMonitor>();
    if (queries_[q].query.name.empty()) {
      result.queries[q].name = "q";
      result.queries[q].name += std::to_string(q);
    } else {
      result.queries[q].name = queries_[q].query.name;
    }
  }

  for (const EventPtr& event : stream) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      PerQuery& query_run = running[q];
      double cost;
      if (query_run.shedder != nullptr && query_run.shedder->FilterEvent(*event)) {
        cost = ShedRunner::kDroppedEventCost;
      } else {
        cost = query_run.engine->Process(event, &result.queries[q].matches);
        if (query_run.obs != nullptr) {
          query_run.obs->events_processed.Add();
          const size_t n = result.queries[q].matches.size();
          if (n != query_run.obs_matches_seen) {
            query_run.obs->matches_emitted.Add(n - query_run.obs_matches_seen);
            query_run.obs_matches_seen = n;
          }
        }
      }
      if (query_run.obs != nullptr) {
        query_run.obs->events_routed.Add();
        query_run.obs->event_cost.Record(cost);
      }
      query_run.monitor->Record(cost);
      query_run.total_cost += cost;
      if (query_run.shedder != nullptr) {
        query_run.shedder->AfterEvent(event->timestamp(), query_run.monitor->Current());
      }
    }
  }

  for (size_t q = 0; q < queries_.size(); ++q) {
    PerQueryResult& out = result.queries[q];
    out.avg_latency = stream.empty()
                          ? 0.0
                          : running[q].total_cost / static_cast<double>(stream.size());
    if (running[q].shedder != nullptr) {
      out.dropped_events = running[q].shedder->events_dropped();
      out.shed_pms = running[q].shedder->pms_shed();
    }
    result.total_avg_latency += out.avg_latency;
  }
  return result;
}

}  // namespace cepshed
