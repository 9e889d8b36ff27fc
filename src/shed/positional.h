// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// A positional input shedder in the spirit of eSPICE (Slo, Bhowmik &
// Rothermel, Middleware 2019), which the paper discusses as related work
// (§VII): the utility of an event is assessed from its type and its
// *relative position within the query window*, learned from historic
// matches. Provided as an additional baseline beyond the paper's RI/SI —
// positioned between type-level SI and the attribute-level cost model.

#ifndef CEPSHED_SHED_POSITIONAL_H_
#define CEPSHED_SHED_POSITIONAL_H_

#include <vector>

#include "src/cep/stream.h"
#include "src/common/rng.h"
#include "src/shed/baselines.h"
#include "src/shed/offline_estimator.h"
#include "src/shed/shedder.h"

namespace cepshed {

/// \brief Per-(type, window-position-bucket) utility table learned from a
/// historic stream: the probability that an event of a type at that
/// relative window position participates in a complete match. Positions
/// are cyclic (`timestamp mod window`), which captures periodic structure
/// (rush hours, storms) without tracking open pattern instances.
class PositionalUtility {
 public:
  /// `buckets` splits the window into relative-position bins.
  PositionalUtility(int num_types, int buckets, Duration window);

  /// Learns the table from `history` and the per-event participation flags
  /// that EstimateOffline recorded while replaying that same stream
  /// (OfflineStats::event_participates); no second replay is needed.
  Status Train(const OfflineStats& stats, const EventStream& history);

  /// Utility of an event with the given timestamp (cyclic position).
  double Utility(int type, Timestamp ts) const;

  /// Sorted utilities over the training events (quantile calibration).
  const std::vector<double>& sorted_utilities() const { return sorted_utilities_; }

  int buckets() const { return buckets_; }

 private:
  size_t Index(int type, Duration offset) const;

  int num_types_;
  int buckets_;
  Duration window_;
  std::vector<double> hits_;
  std::vector<double> totals_;
  std::vector<double> sorted_utilities_;
};

/// \brief PI: drops arriving events whose positional utility falls below a
/// quantile threshold. Latency-bound mode adapts the drop rate like the
/// other input baselines; fixed-ratio mode drops a calibrated fraction.
class PositionalInputShedder : public Shedder {
 public:
  /// Latency-bound mode.
  PositionalInputShedder(const PositionalUtility* utility, double theta,
                         uint64_t trigger_delay, uint64_t seed);
  /// Fixed-ratio mode.
  PositionalInputShedder(const PositionalUtility* utility, double fraction,
                         uint64_t seed);

  std::string Name() const override { return "PI"; }
  double theta() const override;
  bool FilterEvent(const Event& event) override;
  void AfterEvent(Timestamp now, double mu) override;
  void Reset() override;

 private:
  double ThresholdFor(double fraction) const;

  const PositionalUtility* utility_;
  std::optional<DropRateController> controller_;
  double fixed_fraction_ = -1.0;
  double threshold_ = -1.0;
  double planned_fraction_ = 0.0;
  /// Smoothed latency of the last AfterEvent (audit context for drops).
  double last_mu_ = 0.0;
  Rng rng_;
};

}  // namespace cepshed

#endif  // CEPSHED_SHED_POSITIONAL_H_
