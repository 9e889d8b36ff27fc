// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/runtime/experiment.h"

#include <cctype>

#include "src/shed/hybrid.h"

namespace cepshed {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kNone: return "None";
    case StrategyKind::kRI: return "RI";
    case StrategyKind::kSI: return "SI";
    case StrategyKind::kRS: return "RS";
    case StrategyKind::kSS: return "SS";
    case StrategyKind::kHybrid: return "Hybrid";
    case StrategyKind::kHyI: return "HyI";
    case StrategyKind::kHyS: return "HyS";
    case StrategyKind::kPI: return "PI";
  }
  return "?";
}

ExperimentHarness::ExperimentHarness(const Schema* schema, Query query,
                                     HarnessOptions options)
    : schema_(schema),
      query_(std::move(query)),
      options_(options),
      train_(schema),
      test_(schema) {}

Status ExperimentHarness::Prepare(const EventStream& train, const EventStream& test) {
  // Cleared first: a failed re-Prepare has already replaced some inputs
  // (e.g. test_), so the previous truth and models no longer fit them.
  prepared_ = false;
  CEPSHED_ASSIGN_OR_RETURN(nfa_, Nfa::Compile(query_, schema_));
  train_ = train;
  test_ = test;

  CEPSHED_ASSIGN_OR_RETURN(
      offline_, EstimateOffline(nfa_, train_, options_.cost_model.num_time_slices,
                                options_.cost_model.use_resource_cost, options_.engine));
  model_ = std::make_unique<CostModel>(nfa_, options_.cost_model);
  Rng rng(options_.seed);
  CEPSHED_RETURN_NOT_OK(model_->Train(offline_, &rng));
  utility_samples_ = ComputeTrainingUtilities(*model_, train_);

  positional_ = std::make_unique<PositionalUtility>(
      static_cast<int>(schema_->num_event_types()), /*buckets=*/8, query_.window);
  CEPSHED_RETURN_NOT_OK(positional_->Train(offline_, train_));

  hspice_ = std::make_unique<HspiceTable>();
  CEPSHED_RETURN_NOT_OK(hspice_->Train(nfa_, offline_));
  pspice_ = std::make_unique<PspiceModel>();
  CEPSHED_RETURN_NOT_OK(pspice_->Train(nfa_, offline_));

  prepared_ = true;
  return RefreshTruth();
}

Status ExperimentHarness::RefreshTruth() {
  if (!prepared_) return Status::Internal("Prepare must be called first");
  Engine engine(nfa_, options_.engine);
  NoShedder none;
  ShedRunner runner(&engine, &none, options_.latency);
  truth_run_ = runner.Run(test_);
  truth_ = GroundTruth(truth_run_.matches);
  return Status::OK();
}

double ExperimentHarness::BaselineLatency(LatencyStat stat) const {
  switch (stat) {
    case LatencyStat::kAverage: return truth_run_.avg_latency;
    case LatencyStat::kP95: return truth_run_.p95_latency;
    case LatencyStat::kP99: return truth_run_.p99_latency;
  }
  return truth_run_.avg_latency;
}

ExperimentResult ExperimentHarness::RunWith(Shedder* shedder, CostModel* model,
                                            size_t pm_sample_stride) {
  Engine engine(nfa_, options_.engine);
  if (model != nullptr) {
    engine.set_classifier(
        [model](const PartialMatch& pm) { return model->Classify(pm); });
    engine.set_pm_created_hook(
        [model](const PartialMatch& pm, const PartialMatch* parent) {
          model->OnPmCreated(pm, parent, pm.last_ts);
        });
    engine.set_match_hook([model](const Match& m, const PartialMatch* parent) {
      model->OnMatch(m, parent, m.detected_at);
    });
  }
  ShedRunner runner(&engine, shedder, options_.latency);
  if (options_.metrics != nullptr) {
    options_.metrics->EnsureShards(1);
    runner.set_obs(options_.metrics->shard(0));
  }
  ExperimentResult result;
  result.name = shedder->Name();
  result.raw = runner.Run(test_, pm_sample_stride);
  result.quality = ComputeQuality(result.raw.matches, truth_);
  result.throughput_eps =
      result.raw.wall_seconds > 0.0
          ? static_cast<double>(result.raw.total_events) / result.raw.wall_seconds
          : 0.0;
  result.shed_event_ratio =
      result.raw.total_events > 0
          ? static_cast<double>(result.raw.dropped_events) /
                static_cast<double>(result.raw.total_events)
          : 0.0;
  result.shed_pm_ratio =
      result.raw.pms_created > 0
          ? static_cast<double>(result.raw.shed_pms) /
                static_cast<double>(result.raw.pms_created)
          : 0.0;
  result.avg_latency = result.raw.avg_latency;
  result.bound_violation_ratio =
      result.raw.bound_checked > 0
          ? static_cast<double>(result.raw.bound_violations) /
                static_cast<double>(result.raw.bound_checked)
          : 0.0;
  return result;
}

ShedderContext ExperimentHarness::MakeContext(double theta, double fraction,
                                              uint64_t seed) const {
  ShedderContext ctx;
  ctx.theta = theta;
  ctx.fixed_fraction = fraction;
  ctx.trigger_delay = options_.baseline_trigger_delay;
  ctx.hybrid_trigger_delay = options_.trigger_delay;
  ctx.state_shed_period = options_.state_shed_period;
  ctx.seed = seed;
  ctx.solver = options_.solver;
  ctx.offline = &offline_;
  ctx.model = model_.get();
  ctx.positional = positional_.get();
  ctx.hspice = hspice_.get();
  ctx.pspice = pspice_.get();
  ctx.utility_samples = &utility_samples_;
  ctx.train = &train_;
  return ctx;
}

uint64_t ExperimentHarness::SeedId(const std::string& name) {
  // Legacy names keep their StrategyKind enum value: the run seed feeds
  // every stochastic shedder, so changing the id would silently change
  // recorded experiment results across the registry migration.
  static const std::pair<const char*, uint64_t> kLegacy[] = {
      {"none", 0}, {"ri", 1},  {"si", 2},  {"rs", 3}, {"ss", 4},
      {"hybrid", 5}, {"hyi", 6}, {"hys", 7}, {"pi", 8},
  };
  for (const auto& [legacy, id] : kLegacy) {
    if (name == legacy) return id;
  }
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

Result<ExperimentResult> ExperimentHarness::RunSpec(const std::string& spec,
                                                    double theta, double fraction,
                                                    uint64_t seed,
                                                    size_t pm_sample_stride) {
  if (!prepared_) return Status::Internal("Prepare must be called first");
  const ShedderContext ctx = MakeContext(theta, fraction, seed);
  CEPSHED_ASSIGN_OR_RETURN(std::unique_ptr<Shedder> shedder,
                           ShedderRegistry::Instance().Create(spec, ctx));
  return RunWith(shedder.get(), nullptr, pm_sample_stride);
}

Result<ExperimentResult> ExperimentHarness::RunBoundSpec(const std::string& spec,
                                                         double bound_fraction,
                                                         LatencyStat stat,
                                                         size_t pm_sample_stride) {
  CEPSHED_ASSIGN_OR_RETURN(auto parsed, ShedderConfig::ParseSpec(spec));
  LatencyMonitor::Options lat = options_.latency;
  lat.stat = stat;
  HarnessOptions saved = options_;
  options_.latency = lat;
  const double theta = bound_fraction * BaselineLatency(stat);
  const uint64_t seed = options_.seed * 1000003 + SeedId(parsed.first) * 101 +
                        static_cast<uint64_t>(bound_fraction * 1000);
  Result<ExperimentResult> result =
      RunSpec(spec, theta, /*fraction=*/-1.0, seed, pm_sample_stride);
  options_ = saved;
  return result;
}

Result<ExperimentResult> ExperimentHarness::RunFixedSpec(const std::string& spec,
                                                         double ratio,
                                                         size_t pm_sample_stride) {
  CEPSHED_ASSIGN_OR_RETURN(auto parsed, ShedderConfig::ParseSpec(spec));
  const uint64_t seed = options_.seed * 7919 + SeedId(parsed.first) * 31 +
                        static_cast<uint64_t>(ratio * 1000);
  return RunSpec(spec, /*theta=*/-1.0, ratio, seed, pm_sample_stride);
}

namespace {

std::string LowerName(const char* name) {
  std::string out(name);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

ExperimentResult ExperimentHarness::RunBound(StrategyKind kind, double bound_fraction,
                                             LatencyStat stat,
                                             size_t pm_sample_stride) {
  Result<ExperimentResult> result =
      RunBoundSpec(LowerName(StrategyName(kind)), bound_fraction, stat,
                   pm_sample_stride);
  if (!result.ok()) {
    // Every enum strategy is registered and Prepare supplied its
    // ingredients, so this only fires on misuse (e.g. unprepared harness).
    ExperimentResult error;
    error.name = std::string("error: ") + result.status().message();
    return error;
  }
  return std::move(result).value();
}

ExperimentResult ExperimentHarness::RunFixed(StrategyKind kind, double ratio,
                                             size_t pm_sample_stride) {
  Result<ExperimentResult> result =
      RunFixedSpec(LowerName(StrategyName(kind)), ratio, pm_sample_stride);
  if (!result.ok()) {
    ExperimentResult error;
    error.name = std::string("error: ") + result.status().message();
    return error;
  }
  return std::move(result).value();
}

}  // namespace cepshed
