// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The experiment harness shared by the benchmark binaries: trains the cost
// model on a historic prefix, establishes the no-shedding ground truth and
// baseline latency, then runs any strategy in latency-bound or fixed-ratio
// mode and reports recall / precision / throughput / shed ratios — the
// measurements of §VI.

#ifndef CEPSHED_RUNTIME_EXPERIMENT_H_
#define CEPSHED_RUNTIME_EXPERIMENT_H_

#include <memory>
#include <string>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/obs/metrics.h"
#include "src/runtime/latency_monitor.h"
#include "src/runtime/metrics.h"
#include "src/shed/controller.h"
#include "src/shed/cost_model.h"
#include "src/shed/hspice.h"
#include "src/shed/offline_estimator.h"
#include "src/shed/positional.h"
#include "src/shed/pspice.h"
#include "src/shed/registry.h"
#include "src/shed/shedding_set.h"

namespace cepshed {

/// \brief Strategy selector for harness runs.
enum class StrategyKind : int {
  kNone,    ///< no shedding (ground truth)
  kRI,      ///< random input
  kSI,      ///< selectivity-based input
  kRS,      ///< random state
  kSS,      ///< selectivity-based state
  kHybrid,  ///< the paper's hybrid (input + state via the cost model)
  kHyI,     ///< cost-model input only
  kHyS,     ///< cost-model state only
  kPI,      ///< eSPICE-style positional input shedding (related work §VII)
};

const char* StrategyName(StrategyKind kind);

/// \brief Harness configuration.
struct HarnessOptions {
  LatencyMonitor::Options latency;
  EngineOptions engine;
  CostModelOptions cost_model;
  /// Trigger delay j (events) for the hybrid strategy. Should be at least
  /// the latency monitor window so shedding effects materialize in mu
  /// before the next decision (the hybrid's standing filters keep acting
  /// in between).
  uint64_t trigger_delay = 1000;
  /// Trigger delay for the baseline strategies, whose corrections are
  /// one-shot: they must re-fire faster to enforce the bound at all.
  uint64_t baseline_trigger_delay = 250;
  /// Shedding period (events) for fixed-ratio state strategies.
  uint64_t state_shed_period = 500;
  KnapsackMode solver = KnapsackMode::kDP;
  uint64_t seed = 7;
  /// Optional observability registry (not owned, may be null). Harness
  /// runs are single-engine, so every strategy run records into slot 0:
  /// per-event counters, the cost histogram, shed-decision audit entries.
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief Outcome of one strategy run.
struct ExperimentResult {
  std::string name;
  QualityMetrics quality;
  /// Wall-clock throughput in events/s.
  double throughput_eps = 0.0;
  double shed_event_ratio = 0.0;
  double shed_pm_ratio = 0.0;
  /// Fraction of (post-warmup) events whose smoothed latency violated the
  /// bound (latency-bound runs only).
  double bound_violation_ratio = 0.0;
  double avg_latency = 0.0;
  RunResult raw;
};

/// \brief Drives all experiments for one (query, dataset) pair.
class ExperimentHarness {
 public:
  /// The schema must outlive the harness.
  ExperimentHarness(const Schema* schema, Query query, HarnessOptions options);

  /// Compiles the query, replays `train` for offline estimation + cost
  /// model training, and runs the no-shedding ground truth over `test`.
  /// On failure the harness is left unprepared: runs return an error until
  /// a later Prepare succeeds.
  Status Prepare(const EventStream& train, const EventStream& test);

  /// No-shedding latency statistic of the ground-truth run: the overall
  /// average, 95th or 99th percentile per `stat`. Bounds theta are defined
  /// as fractions of this.
  double BaselineLatency(LatencyStat stat = LatencyStat::kAverage) const;

  /// Ground-truth matches of the test stream.
  const GroundTruth& truth() const { return truth_; }
  const RunResult& truth_run() const { return truth_run_; }
  const OfflineStats& offline() const { return offline_; }
  const CostModel& model() const { return *model_; }
  const std::shared_ptr<const Nfa>& nfa() const { return nfa_; }

  /// Latency-bound mode: theta = bound_fraction x BaselineLatency(stat).
  ExperimentResult RunBound(StrategyKind kind, double bound_fraction,
                            LatencyStat stat = LatencyStat::kAverage,
                            size_t pm_sample_stride = 0);

  /// Fixed-ratio mode (§VI-C): drop/shed `ratio` of events or matches.
  ExperimentResult RunFixed(StrategyKind kind, double ratio,
                            size_t pm_sample_stride = 0);

  /// Latency-bound run of any registered strategy spec
  /// (`name[:key=value,...]`, see ShedderRegistry). The enum overloads
  /// above delegate here; the spec path additionally reaches strategies
  /// without an enum value (hspice, pspice, plug-ins).
  Result<ExperimentResult> RunBoundSpec(const std::string& spec,
                                        double bound_fraction,
                                        LatencyStat stat = LatencyStat::kAverage,
                                        size_t pm_sample_stride = 0);

  /// Fixed-ratio run of any registered strategy spec.
  Result<ExperimentResult> RunFixedSpec(const std::string& spec, double ratio,
                                        size_t pm_sample_stride = 0);

  /// The registry context for the given operating point: every trained
  /// ingredient this harness prepared, borrowed. Valid until the next
  /// Prepare; exposed so callers driving their own engines (shard
  /// runtimes, tests) can construct registry strategies consistently.
  ShedderContext MakeContext(double theta, double fraction,
                             uint64_t seed) const;

  /// Re-runs the ground truth engine (e.g., after option changes).
  Status RefreshTruth();

  const HarnessOptions& options() const { return options_; }
  /// Mutable access before Prepare (e.g., per-experiment cost model
  /// settings).
  HarnessOptions* mutable_options() { return &options_; }

  const PositionalUtility& positional() const { return *positional_; }
  const HspiceTable& hspice() const { return *hspice_; }
  const PspiceModel& pspice() const { return *pspice_; }

 private:
  /// Runs the test stream through a fresh engine under `shedder`, which
  /// wires any engine hooks it needs (model-backed strategies do so at
  /// Bind).
  ExperimentResult RunWith(Shedder* shedder, size_t pm_sample_stride);
  Result<ExperimentResult> RunSpec(const std::string& spec, double theta,
                                   double fraction, uint64_t seed,
                                   size_t pm_sample_stride);
  /// Stable strategy id for run-seed derivation: legacy names keep their
  /// StrategyKind enum value so seeds (and thus recorded results) match
  /// the pre-registry harness; unknown names hash.
  static uint64_t SeedId(const std::string& name);

  const Schema* schema_;
  Query query_;
  HarnessOptions options_;
  std::shared_ptr<const Nfa> nfa_;
  std::unique_ptr<CostModel> model_;  // master (copied per run)
  OfflineStats offline_;
  EventStream train_;
  EventStream test_;
  /// Sorted training event utilities (rho_I quantile cutoff scale).
  std::vector<double> utility_samples_;
  /// Positional utility table for the PI baseline (trained in Prepare).
  std::unique_ptr<PositionalUtility> positional_;
  /// Per-(type, state) utility table for hSPICE (trained in Prepare).
  std::unique_ptr<HspiceTable> hspice_;
  /// Per-state completion model for pSPICE (trained in Prepare).
  std::unique_ptr<PspiceModel> pspice_;
  GroundTruth truth_;
  RunResult truth_run_;
  bool prepared_ = false;
};

}  // namespace cepshed

#endif  // CEPSHED_RUNTIME_EXPERIMENT_H_
