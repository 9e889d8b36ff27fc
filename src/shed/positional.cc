// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/shed/positional.h"

#include <algorithm>

#include "src/shed/registry.h"

namespace cepshed {

PositionalUtility::PositionalUtility(int num_types, int buckets, Duration window)
    : num_types_(num_types),
      buckets_(buckets < 1 ? 1 : buckets),
      window_(window < 1 ? 1 : window) {
  hits_.assign(static_cast<size_t>(num_types_) * static_cast<size_t>(buckets_), 0.0);
  totals_.assign(hits_.size(), 0.0);
}

size_t PositionalUtility::Index(int type, Duration offset) const {
  Duration cyc = offset % window_;
  if (cyc < 0) cyc += window_;
  const int bucket = static_cast<int>(cyc * buckets_ / window_);
  return static_cast<size_t>(type) * static_cast<size_t>(buckets_) +
         static_cast<size_t>(std::min(bucket, buckets_ - 1));
}

Status PositionalUtility::Train(const OfflineStats& stats, const EventStream& history) {
  if (stats.event_participates.size() != history.size()) {
    return Status::InvalidArgument(
        "positional utility: offline stats were not estimated on this history");
  }
  for (size_t i = 0; i < history.size(); ++i) {
    const EventPtr& e = history[i];
    const size_t idx = Index(e->type(), e->timestamp());
    totals_[idx] += 1.0;
    if (stats.event_participates[i] != 0) hits_[idx] += 1.0;
  }
  sorted_utilities_.clear();
  sorted_utilities_.reserve(history.size());
  for (const EventPtr& e : history) {
    sorted_utilities_.push_back(Utility(e->type(), e->timestamp()));
  }
  std::sort(sorted_utilities_.begin(), sorted_utilities_.end());
  return Status::OK();
}

double PositionalUtility::Utility(int type, Timestamp ts) const {
  if (type < 0 || type >= num_types_) return 0.0;
  const size_t idx = Index(type, ts);
  return totals_[idx] > 0.0 ? hits_[idx] / totals_[idx] : 0.0;
}

PositionalInputShedder::PositionalInputShedder(const PositionalUtility* utility,
                                               double theta, uint64_t trigger_delay,
                                               uint64_t seed)
    : utility_(utility),
      controller_(DropRateController(theta, trigger_delay)),
      rng_(seed) {}

PositionalInputShedder::PositionalInputShedder(const PositionalUtility* utility,
                                               double fraction, uint64_t seed)
    : utility_(utility), fixed_fraction_(fraction), rng_(seed) {
  threshold_ = ThresholdFor(fraction);
  planned_fraction_ = fraction;
}

double PositionalInputShedder::theta() const {
  return controller_ ? controller_->theta() : -1.0;
}

double PositionalInputShedder::ThresholdFor(double fraction) const {
  const auto& sorted = utility_->sorted_utilities();
  if (sorted.empty() || fraction <= 0.0) return -1.0;
  const size_t idx = std::min(
      sorted.size() - 1, static_cast<size_t>(fraction * static_cast<double>(sorted.size())));
  return sorted[idx];
}

bool PositionalInputShedder::FilterEvent(const Event& event) {
  if (threshold_ < 0.0) return false;
  const double u = utility_->Utility(event.type(), event.timestamp());
  if (u < threshold_) {
    return DropEvent(static_cast<int>(event.type()), last_mu_, event.seq(),
                     event.timestamp());
  }
  if (u == threshold_ && planned_fraction_ > 0.0 &&
      rng_.Bernoulli(0.5 * planned_fraction_)) {
    // Rough tie-breaking keeps the realized rate near the target when the
    // utility distribution is coarse.
    return DropEvent(static_cast<int>(event.type()), last_mu_, event.seq(),
                     event.timestamp());
  }
  return false;
}

void PositionalInputShedder::AfterEvent(Timestamp, double mu) {
  last_mu_ = mu;
  if (!controller_) return;
  const double rate = controller_->Update(mu);
  if (rate != planned_fraction_) {
    planned_fraction_ = rate;
    threshold_ = ThresholdFor(rate);
  }
}

void PositionalInputShedder::Reset() {
  Shedder::Reset();
  last_mu_ = 0.0;
  if (controller_) {
    controller_->Reset();
    planned_fraction_ = 0.0;
    threshold_ = -1.0;
  } else {
    planned_fraction_ = fixed_fraction_;
    threshold_ = ThresholdFor(fixed_fraction_);
  }
}

// --- Registry ----------------------------------------------------------

CEPSHED_SHEDDER_LINK_TOKEN(Positional)

namespace {

const ShedderRegistrar kPiRegistrar{
    "pi", [](const ShedderConfig& config,
             const ShedderContext& ctx) -> Result<std::unique_ptr<Shedder>> {
      CEPSHED_RETURN_NOT_OK(config.ExpectKeys({"theta", "fraction", "delay", "seed"}));
      CEPSHED_ASSIGN_OR_RETURN(ResolvedMode mode, ResolveMode(config, ctx));
      if (!mode.fixed() && !mode.bound()) {
        return Status::InvalidArgument(
            "shedder \"pi\" needs a latency bound (theta=...) or a fixed "
            "ratio (fraction=...)");
      }
      if (ctx.positional == nullptr) {
        return Status::InvalidArgument(
            "shedder \"pi\" needs a trained positional-utility table "
            "(construct it through a prepared harness)");
      }
      if (mode.fixed()) {
        return std::unique_ptr<Shedder>(
            new PositionalInputShedder(ctx.positional, mode.fraction, mode.seed));
      }
      return std::unique_ptr<Shedder>(new PositionalInputShedder(
          ctx.positional, mode.theta, mode.delay, mode.seed));
    }};

}  // namespace

}  // namespace cepshed
