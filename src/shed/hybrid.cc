// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/shed/hybrid.h"

#include "src/obs/scoped_timer.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "src/cep/engine.h"
#include "src/shed/registry.h"

namespace cepshed {

// --- HybridShedder -------------------------------------------------------

HybridShedder::HybridShedder(CostModel* model, HybridOptions options)
    : model_(model),
      options_(options),
      trigger_(options.theta, options.trigger_delay),
      rng_(options.seed) {}

std::string HybridShedder::Name() const {
  if (options_.enable_input && options_.enable_state) return "Hybrid";
  return options_.enable_input ? "Hybrid(I)" : "Hybrid(S)";
}

void HybridShedder::Bind(Engine* engine) {
  Shedder::Bind(engine);
  if (options_.enable_state) {
    // rho_S of the formal model applies to P(k) at every step: while the
    // shedding set is in force, matches of shed classes are discarded the
    // moment they are (re)created.
    // Only zero-contribution classes stay in force between triggers: the
    // knapsack sizes contribution-bearing selections for a one-shot
    // removal, so filtering those continuously would shed far more recall
    // than the selection accounted for.
    engine->set_creation_filter([this](const PartialMatch& pm) {
      if (!state_filter_active_) return false;
      const int32_t cls = pm.class_label < 0 ? 0 : pm.class_label;
      const int slice = model_->SliceOfAge(pm.last_ts - pm.start_ts);
      if (zero_keys_.count({pm.state, cls, slice}) == 0) return false;
      if (options_.exploration > 0.0 && rng_.Bernoulli(options_.exploration)) {
        return false;  // exploration: keep a sample of the "worthless" class
      }
      ++pms_shed_;
      if (obs_ != nullptr) {
        // Standing-filter discards are consequences of the last trigger's
        // decision: counted per class, but not re-audited one by one.
        obs_->pms_shed.Add();
        obs_->CountShedClass(cls);
      }
      return true;
    });
  }
}

bool HybridShedder::FilterEvent(const Event& event) {
  if (!input_active_) return false;
  // Discard the event if its assessed utility — the expected contribution
  // of the match it would create, from the cost model's event-value
  // estimators — falls below the current cutoff.
  if (model_->EventUtility(event) <= utility_cutoff_) {
    if (options_.exploration > 0.0 && rng_.Bernoulli(options_.exploration)) {
      return false;  // exploration: admit a sample of "worthless" events
    }
    return DropEvent(-1, last_mu_, event.seq(), event.timestamp());
  }
  return false;
}

void HybridShedder::AfterEvent(Timestamp now, double mu) {
  last_mu_ = mu;
  model_->MaybeFold(now, engine_);
  if (mu <= options_.hysteresis * options_.theta) {
    // Comfortably within the bound: rho_I stops (§IV-C) and escalation
    // resets. The hysteresis margin prevents flip-flopping right at theta.
    input_active_ = false;
    lossy_keys_.clear();
    utility_cutoff_ = -1.0;
    escalation_level_ = 0;
    last_violation_ = 0.0;
  }
  if (mu <= options_.zero_release * options_.theta) {
    // Deep recovery: lift the standing zero-class filter too.
    state_filter_active_ = false;
    zero_keys_.clear();
  }
  const double violation = trigger_.Check(mu);
  if (violation <= 0.0) return;
  ++triggers_;
  obs::ScopedTimerUs trigger_timer(obs_ != nullptr ? &obs_->shed_trigger_us
                                                   : nullptr);
  if (obs_ != nullptr) obs_->shed_triggers.Add();
  // State shedding alone is not bringing the latency down: escalate the
  // input filter one utility class at a time; back off when improving.
  if (last_violation_ > 0.0 && violation >= 0.8 * last_violation_) {
    ++escalation_level_;
  } else if (last_violation_ > 0.0 && violation < 0.5 * last_violation_) {
    escalation_level_ = std::max(0, escalation_level_ - 1);
  }
  last_violation_ = violation;

  std::vector<SheddingSetItem> shed_set;
  {
    obs::ScopedTimerUs knapsack_timer(obs_ != nullptr ? &obs_->knapsack_us
                                                      : nullptr);
    if (obs_ != nullptr) obs_->knapsack_solves.Add();
    shed_set = SelectSheddingSet(engine_, *model_, violation, now, options_.solver);
  }
  if (shed_set.empty()) return;

  if (options_.enable_state) {
    // rho_S: remove the selected classes of partial matches now, and keep
    // the set in force (creation filter) until the bound holds again.
    // The zero-contribution classes come straight from the current model
    // estimates (they are free riders of the knapsack objective and their
    // live population says nothing once the filter holds them down);
    // contribution-bearing keys are transient and re-decided per trigger.
    std::set<int> kill_witnesses;
    lossy_keys_.clear();
    zero_keys_.clear();
    // A key is recall-free only if (a) its adapted estimate is zero AND
    // (b) no training member of the class/slice ever contributed — the
    // percentile alone would also starve classes whose value sits in a
    // rare minority of their members.
    auto is_zero_key = [&](int s, int c, int sl) {
      return model_->Contribution(s, c, sl) <= 1e-9 &&
             model_->ContributionMax(s, c, sl) <= 1e-9;
    };
    for (int s = 0; s < model_->num_states(); ++s) {
      for (int c = 0; c < model_->NumClasses(s); ++c) {
        for (int sl = 0; sl < model_->num_slices(); ++sl) {
          if (is_zero_key(s, c, sl)) zero_keys_.insert({s, c, sl});
        }
      }
    }
    double zero_coverage = 0.0;
    double lossy_coverage = 0.0;
    for (const auto& item : shed_set) {
      if (item.is_witness_group) {
        kill_witnesses.insert(item.negated_elem);
      } else if (is_zero_key(item.state, item.cls, item.slice)) {
        zero_keys_.insert({item.state, item.cls, item.slice});
        zero_coverage += item.delta_minus;
      } else if (!options_.state_zero_only &&
                 (!options_.enable_input || escalation_level_ == 0)) {
        // One-shot removals of contribution-bearing classes only help
        // while their latency relief lasts; under sustained violation the
        // relief decays before the next trigger and repeating the kill
        // churns valuable state. Then input shedding takes over instead
        // (the flattening of shed-PM ratios in the paper's Fig. 5).
        lossy_keys_.insert({item.state, item.cls, item.slice});
        lossy_coverage += item.delta_minus;
      }
    }
    // Contribution-bearing classes are killed only fractionally: just
    // enough, together with the (free) zero classes, to cover the
    // violation. When classes are coarse (few informative attributes),
    // killing whole classes would wipe entire states at once.
    lossy_fraction_ =
        lossy_coverage > 0.0
            ? std::clamp((violation - zero_coverage) / lossy_coverage, 0.0, 1.0)
            : 0.0;
    state_filter_active_ = !zero_keys_.empty();
    engine_->store().ForEachAlive([&](PartialMatch* pm) {
      const int32_t cls = pm->class_label < 0 ? 0 : pm->class_label;
      const int slice = model_->SliceOfAge(now - pm->start_ts);
      const std::tuple<int, int32_t, int> key{pm->state, cls, slice};
      if (zero_keys_.count(key) > 0) {
        KillPm(pm, mu, now);
      } else if (lossy_fraction_ > 0.0 && lossy_keys_.count(key) > 0 &&
                 rng_.Bernoulli(lossy_fraction_)) {
        KillPm(pm, mu, now);
      }
    });
    if (!kill_witnesses.empty()) {
      engine_->store().ForEachAliveWitness([&](PartialMatch* pm) {
        if (kill_witnesses.count(pm->negated_elem) > 0) KillPm(pm, mu, now);
      });
    }
  }
  if (options_.enable_input) {
    // rho_I: active while the bound is violated. The base cutoff drops
    // only events whose utility is assessably zero; every non-improving
    // trigger escalates the cutoff by one step of the training utility
    // distribution, and improvement steps back — trading recall for
    // throughput gradually (the turning point of the paper's Fig. 5).
    const std::vector<double>& samples = options_.utility_samples;
    if (samples.empty() || escalation_level_ == 0) {
      utility_cutoff_ = 1e-12;
    } else {
      const double zero_frac =
          static_cast<double>(std::upper_bound(samples.begin(), samples.end(), 1e-12) -
                              samples.begin()) /
          static_cast<double>(samples.size());
      const double p = std::min(
          0.95, zero_frac + options_.input_escalation_step * escalation_level_);
      const size_t idx = std::min(
          samples.size() - 1, static_cast<size_t>(p * static_cast<double>(samples.size())));
      utility_cutoff_ = std::max(1e-12, samples[idx]);
    }
    input_active_ = true;
  }
}

void HybridShedder::Reset() {
  Shedder::Reset();
  trigger_.Reset();
  input_active_ = false;
  state_filter_active_ = false;
  utility_cutoff_ = -1.0;
  zero_keys_.clear();
  lossy_keys_.clear();
  triggers_ = 0;
  last_violation_ = 0.0;
  escalation_level_ = 0;
}

// --- HyI (fixed ratio) -----------------------------------------------------

HybridFixedInputShedder::HybridFixedInputShedder(const CostModel* model,
                                                 double threshold,
                                                 double tie_probability, uint64_t seed)
    : model_(model),
      threshold_(threshold),
      tie_probability_(tie_probability),
      rng_(seed) {}

bool HybridFixedInputShedder::FilterEvent(const Event& event) {
  const double u = model_->EventUtility(event);
  if (u < threshold_) return DropEvent();
  if (u == threshold_ && tie_probability_ > 0.0 && rng_.Bernoulli(tie_probability_)) {
    return DropEvent();
  }
  return false;
}

// --- HyS (fixed ratio) -----------------------------------------------------

HybridFixedStateShedder::HybridFixedStateShedder(const CostModel* model,
                                                 double fraction, uint64_t period,
                                                 uint64_t seed)
    : model_(model), fraction_(fraction), period_(period == 0 ? 1 : period), rng_(seed) {}

void HybridFixedStateShedder::AfterEvent(Timestamp now, double mu) {
  if (++events_seen_ % period_ != 0 || fraction_ <= 0.0) return;

  // Rank live (state, class, slice) groups by the recall lost per unit of
  // consumption saved, then shed whole groups until the fraction is met.
  struct Group {
    int state;
    int32_t cls;
    int slice;
    size_t count = 0;
    double ratio = 0.0;
  };
  std::map<std::tuple<int, int32_t, int>, size_t> counts;
  size_t alive = 0;
  engine_->store().ForEachAlive([&](PartialMatch* pm) {
    const int32_t cls = pm->class_label < 0 ? 0 : pm->class_label;
    ++counts[{pm->state, cls, model_->SliceOfAge(now - pm->start_ts)}];
    ++alive;
  });
  size_t witness_alive = engine_->store().NumAliveWitnesses();
  size_t target = static_cast<size_t>(
      fraction_ * static_cast<double>(alive + witness_alive) + 0.5);
  if (target == 0) return;

  // Witnesses first: zero contribution.
  engine_->store().ForEachAliveWitness([&](PartialMatch* pm) {
    if (target == 0) return;
    KillPm(pm, mu, now);
    --target;
  });
  if (target == 0) return;

  std::vector<Group> groups;
  for (const auto& [key, n] : counts) {
    Group g;
    std::tie(g.state, g.cls, g.slice) = key;
    g.count = n;
    const double plus = model_->Contribution(g.state, g.cls, g.slice);
    const double minus = std::max(1e-9, model_->Consumption(g.state, g.cls, g.slice));
    g.ratio = plus / minus;
    groups.push_back(g);
  }
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.ratio < b.ratio; });

  std::set<std::tuple<int, int32_t, int>> kill_keys;
  double partial_prob = 0.0;
  std::tuple<int, int32_t, int> partial_key{-1, -1, -1};
  size_t planned = 0;
  for (const Group& g : groups) {
    if (planned >= target) break;
    if (planned + g.count <= target) {
      kill_keys.insert({g.state, g.cls, g.slice});
      planned += g.count;
    } else {
      partial_key = {g.state, g.cls, g.slice};
      partial_prob = static_cast<double>(target - planned) / static_cast<double>(g.count);
      planned = target;
    }
  }
  engine_->store().ForEachAlive([&](PartialMatch* pm) {
    const int32_t cls = pm->class_label < 0 ? 0 : pm->class_label;
    const std::tuple<int, int32_t, int> key{pm->state, cls,
                                            model_->SliceOfAge(now - pm->start_ts)};
    if (kill_keys.count(key) > 0) {
      KillPm(pm, mu, now);
    } else if (key == partial_key && rng_.Bernoulli(partial_prob)) {
      KillPm(pm, mu, now);
    }
  });
}

void HybridFixedStateShedder::Reset() {
  Shedder::Reset();
  events_seen_ = 0;
}

// --- Threshold calibration ---------------------------------------------------

std::vector<double> ComputeTrainingUtilities(const CostModel& model,
                                             const EventStream& train) {
  std::vector<double> utilities;
  utilities.reserve(train.size());
  for (const EventPtr& e : train) utilities.push_back(model.EventUtility(*e));
  std::sort(utilities.begin(), utilities.end());
  return utilities;
}

std::pair<double, double> ComputeUtilityThreshold(const CostModel& model,
                                                  const EventStream& train,
                                                  double fraction) {
  if (train.empty() || fraction <= 0.0) return {-1.0, 0.0};
  std::vector<double> utilities;
  utilities.reserve(train.size());
  for (const EventPtr& e : train) utilities.push_back(model.EventUtility(*e));
  std::sort(utilities.begin(), utilities.end());
  const size_t n = utilities.size();
  size_t idx = static_cast<size_t>(fraction * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  const double thr = utilities[idx];
  // P(u < thr) and P(u == thr) give the tie-breaking probability that makes
  // the expected drop rate equal `fraction` under discrete utilities.
  const size_t below =
      static_cast<size_t>(std::lower_bound(utilities.begin(), utilities.end(), thr) -
                          utilities.begin());
  const size_t ties =
      static_cast<size_t>(std::upper_bound(utilities.begin(), utilities.end(), thr) -
                          utilities.begin()) -
      below;
  const double p_below = static_cast<double>(below) / static_cast<double>(n);
  const double p_tie =
      ties == 0 ? 0.0
                : std::clamp((fraction - p_below) /
                                 (static_cast<double>(ties) / static_cast<double>(n)),
                             0.0, 1.0);
  return {thr, p_tie};
}

// --- Composite fixed-ratio hybrid -------------------------------------------

HybridFixedShedder::HybridFixedShedder(const CostModel* model,
                                       double input_threshold,
                                       double tie_probability,
                                       double state_fraction, uint64_t period,
                                       uint64_t input_seed, uint64_t state_seed)
    : input_(model, input_threshold, tie_probability, input_seed),
      state_(model, state_fraction, period, state_seed) {}

void HybridFixedShedder::Bind(Engine* engine) {
  Shedder::Bind(engine);
  input_.Bind(engine);
  state_.Bind(engine);
}

bool HybridFixedShedder::FilterEvent(const Event& event) {
  if (input_.FilterEvent(event)) {
    // The parts keep their own counters (they do the dropping); mirror them
    // so callers reading this shedder see the combined totals.
    events_dropped_ = input_.events_dropped();
    return true;
  }
  return false;
}

void HybridFixedShedder::AfterEvent(Timestamp now, double mu) {
  state_.AfterEvent(now, mu);
  pms_shed_ = state_.pms_shed();
}

void HybridFixedShedder::Reset() {
  Shedder::Reset();
  input_.Reset();
  state_.Reset();
}

void HybridFixedShedder::set_obs(obs::ShardObs* o, int shard) {
  Shedder::set_obs(o, shard);
  input_.set_obs(o, shard);
  state_.set_obs(o, shard);
}

// --- Registry adapter for model-backed strategies ----------------------------

ModelOwningShedder::ModelOwningShedder(std::unique_ptr<CostModel> model,
                                       std::unique_ptr<Shedder> inner)
    : model_(std::move(model)), inner_(std::move(inner)) {}

void ModelOwningShedder::Bind(Engine* engine) {
  Shedder::Bind(engine);
  CostModel* model = model_.get();
  // The classifier stamps class labels onto partial matches, and the
  // creation/match hooks feed online adaptation.
  engine->set_classifier(
      [model](const PartialMatch& pm) { return model->Classify(pm); });
  engine->set_pm_created_hook(
      [model](const PartialMatch& pm, const PartialMatch* parent) {
        model->OnPmCreated(pm, parent, pm.last_ts);
      });
  engine->set_match_hook([model](const Match& m, const PartialMatch* parent) {
    model->OnMatch(m, parent, m.detected_at);
  });
  inner_->Bind(engine);
}

void ModelOwningShedder::AfterEvent(Timestamp now, double mu) {
  inner_->AfterEvent(now, mu);
  events_dropped_ = inner_->events_dropped();
  pms_shed_ = inner_->pms_shed();
}

void ModelOwningShedder::Reset() {
  Shedder::Reset();
  inner_->Reset();
}

void ModelOwningShedder::set_obs(obs::ShardObs* o, int shard) {
  Shedder::set_obs(o, shard);
  inner_->set_obs(o, shard);
}

// --- Registry ----------------------------------------------------------

CEPSHED_SHEDDER_LINK_TOKEN(Hybrid)

namespace {

Status NeedModel(const char* name, const ShedderContext& ctx) {
  if (ctx.model == nullptr || !ctx.model->trained()) {
    return Status::InvalidArgument(
        std::string("shedder \"") + name +
        "\" needs a trained cost model (construct it through a prepared "
        "harness)");
  }
  return Status::OK();
}

/// Latency-bound hybrid family: a HybridShedder over a per-run copy of the
/// context's cost model. The default seed stays HybridOptions' own (1234),
/// not the context seed — the harness historically never overrode it for
/// the bound mode, and byte-identical parity with that path matters for
/// the differential tests.
Result<std::unique_ptr<Shedder>> MakeHybridBound(const ShedderConfig& config,
                                                 const ShedderContext& ctx,
                                                 const ResolvedMode& mode,
                                                 bool enable_input,
                                                 bool enable_state) {
  HybridOptions opts;
  opts.theta = mode.theta;
  CEPSHED_ASSIGN_OR_RETURN(
      opts.trigger_delay,
      config.GetUint("delay", ctx.hybrid_trigger_delay));
  opts.enable_input = enable_input;
  opts.enable_state = enable_state;
  opts.solver = ctx.solver;
  if (ctx.utility_samples != nullptr) opts.utility_samples = *ctx.utility_samples;
  CEPSHED_ASSIGN_OR_RETURN(opts.seed, config.GetUint("seed", opts.seed));
  auto model = std::make_unique<CostModel>(*ctx.model);
  auto inner = std::make_unique<HybridShedder>(model.get(), opts);
  return std::unique_ptr<Shedder>(
      new ModelOwningShedder(std::move(model), std::move(inner)));
}

const ShedderRegistrar kHybridRegistrar{
    "hybrid", [](const ShedderConfig& config,
                 const ShedderContext& ctx) -> Result<std::unique_ptr<Shedder>> {
      CEPSHED_RETURN_NOT_OK(
          config.ExpectKeys({"theta", "fraction", "delay", "period", "seed"}));
      CEPSHED_ASSIGN_OR_RETURN(ResolvedMode mode, ResolveMode(config, ctx));
      CEPSHED_RETURN_NOT_OK(NeedModel("hybrid", ctx));
      if (mode.fixed()) {
        if (ctx.train == nullptr) {
          return Status::InvalidArgument(
              "shedder \"hybrid\" in fixed-ratio mode needs the training "
              "stream for threshold calibration (construct it through a "
              "prepared harness)");
        }
        // Split the ratio evenly between the input and state sides, the
        // same way the harness's fixed-ratio grid always has.
        const double half = mode.fraction * 0.5;
        auto model = std::make_unique<CostModel>(*ctx.model);
        const auto [thr, tie] = ComputeUtilityThreshold(*model, *ctx.train, half);
        auto inner = std::make_unique<HybridFixedShedder>(
            model.get(), thr, tie, half, mode.period, mode.seed, mode.seed + 1);
        return std::unique_ptr<Shedder>(
            new ModelOwningShedder(std::move(model), std::move(inner)));
      }
      if (!mode.bound()) {
        return Status::InvalidArgument(
            "shedder \"hybrid\" needs a latency bound (theta=...) or a "
            "fixed ratio (fraction=...)");
      }
      return MakeHybridBound(config, ctx, mode, /*enable_input=*/true,
                             /*enable_state=*/true);
    }};

const ShedderRegistrar kHyiRegistrar{
    "hyi", [](const ShedderConfig& config,
              const ShedderContext& ctx) -> Result<std::unique_ptr<Shedder>> {
      CEPSHED_RETURN_NOT_OK(
          config.ExpectKeys({"theta", "fraction", "delay", "seed"}));
      CEPSHED_ASSIGN_OR_RETURN(ResolvedMode mode, ResolveMode(config, ctx));
      CEPSHED_RETURN_NOT_OK(NeedModel("hyi", ctx));
      if (mode.fixed()) {
        if (ctx.train == nullptr) {
          return Status::InvalidArgument(
              "shedder \"hyi\" in fixed-ratio mode needs the training "
              "stream for threshold calibration (construct it through a "
              "prepared harness)");
        }
        auto model = std::make_unique<CostModel>(*ctx.model);
        const auto [thr, tie] =
            ComputeUtilityThreshold(*model, *ctx.train, mode.fraction);
        auto inner =
            std::make_unique<HybridFixedInputShedder>(model.get(), thr, tie, mode.seed);
        return std::unique_ptr<Shedder>(
            new ModelOwningShedder(std::move(model), std::move(inner)));
      }
      if (!mode.bound()) {
        return Status::InvalidArgument(
            "shedder \"hyi\" needs a latency bound (theta=...) or a fixed "
            "ratio (fraction=...)");
      }
      return MakeHybridBound(config, ctx, mode, /*enable_input=*/true,
                             /*enable_state=*/false);
    }};

const ShedderRegistrar kHysRegistrar{
    "hys", [](const ShedderConfig& config,
              const ShedderContext& ctx) -> Result<std::unique_ptr<Shedder>> {
      CEPSHED_RETURN_NOT_OK(
          config.ExpectKeys({"theta", "fraction", "delay", "period", "seed"}));
      CEPSHED_ASSIGN_OR_RETURN(ResolvedMode mode, ResolveMode(config, ctx));
      CEPSHED_RETURN_NOT_OK(NeedModel("hys", ctx));
      if (mode.fixed()) {
        auto model = std::make_unique<CostModel>(*ctx.model);
        auto inner = std::make_unique<HybridFixedStateShedder>(
            model.get(), mode.fraction, mode.period, mode.seed);
        return std::unique_ptr<Shedder>(
            new ModelOwningShedder(std::move(model), std::move(inner)));
      }
      if (!mode.bound()) {
        return Status::InvalidArgument(
            "shedder \"hys\" needs a latency bound (theta=...) or a fixed "
            "ratio (fraction=...)");
      }
      return MakeHybridBound(config, ctx, mode, /*enable_input=*/false,
                             /*enable_state=*/true);
    }};

}  // namespace

}  // namespace cepshed
