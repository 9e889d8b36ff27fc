// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Offline estimation of the cost model (§V-B): replay a historic stream
// prefix through the engine with lineage hooks, recording for every
// partial match its contribution Gamma+ (complete matches derived from it)
// and consumption Gamma- (resource cost Omega of matches derived from it),
// bucketed by the age (time slice) at which each derivation materialized.
// The same replay also yields everything else set-up learns from the
// training stream: the per-type selectivity statistics the SI/SS baselines
// use, which events take part in a match (the positional utility table of
// the PI baseline), and the unshed per-event cost (multi-query budget
// shares). No other consumer replays the stream again.
//
// Omega is denominated in Expr::Eval's abstract work units. The replay
// engine evaluates predicates through the bytecode VM, and through the
// interpreter only for aggregates; the VM charges identical units by
// contract, so an estimate does not depend on which evaluator ran.

#ifndef CEPSHED_SHED_OFFLINE_ESTIMATOR_H_
#define CEPSHED_SHED_OFFLINE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cep/nfa.h"
#include "src/cep/stream.h"
#include "src/cep/engine.h"
#include "src/common/result.h"

namespace cepshed {

/// \brief Lineage record of one partial match observed during replay.
struct PmRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;
  int state = 0;
  /// Predictor variables for the match classifier: the query-predicate
  /// attributes of every bound component's last event (§V-B: "the
  /// attributes of partial matches that appear in the query predicates").
  std::vector<float> features;
  /// Predictor variables for the event-level classifier used by the input
  /// filter rho_I: the predicate attributes of the last event only (an
  /// arriving event exposes no more).
  std::vector<float> event_features;
  /// Type of the event whose binding created this match — the (type, state)
  /// key hSPICE's utility table is learned over. -1 if unknown.
  int last_event_type = -1;
  /// Complete matches derived from this match, bucketed by the match's age
  /// slice at derivation time.
  std::vector<float> contrib_by_slice;
  /// Resource cost Omega of partial matches derived from this match,
  /// bucketed likewise (includes the match's own Omega in slice 0).
  std::vector<float> consum_by_slice;
  /// The match's own resource cost.
  float own_omega = 1.0f;
  Timestamp start_ts = 0;
  /// Creation time (timestamp of the event whose binding created it).
  Timestamp birth_ts = 0;
};

/// \brief Everything the shedding strategies learn from historic data.
struct OfflineStats {
  int num_slices = 1;
  Duration slice_len = 1;
  std::vector<PmRecord> records;
  /// Per event type: fraction of events of that type that participate in at
  /// least one complete match (the SI baseline's utility).
  std::vector<double> type_utility;
  /// Per event type: share of the input stream.
  std::vector<double> type_share;
  /// Per NFA state: fraction of partial matches reaching the state that
  /// eventually derive at least one complete match (the SS baseline's
  /// utility).
  std::vector<double> state_completion;
  /// Per history event, in stream order: 1 if the event is bound in at
  /// least one complete match, else 0 (PositionalUtility::Train's input).
  std::vector<uint8_t> event_participates;
  /// Sum of Engine::Process costs over the history, accumulated in stream
  /// order: the unshed cost of the replay.
  double replay_cost = 0.0;
  size_t num_events = 0;
  size_t num_matches = 0;
  /// Wall-clock seconds of the replay + bookkeeping (the paper reports
  /// 0.75 - 4.5 s for cost model estimation).
  double replay_seconds = 0.0;
};

/// \brief Extracts the event-level classifier features from an event.
std::vector<float> ExtractFeatures(const Event& event, const Nfa& nfa);

/// \brief Extracts the match classifier features: the predicate attributes
/// of the last event of every slot up to and including the match's state
/// (fixed dimension per state; empty open components pad with -1).
std::vector<float> ExtractStateFeatures(const PartialMatch& pm, const Nfa& nfa);

/// \brief Replays `history` and derives OfflineStats.
/// `use_resource_cost` selects the paper's explicit resource cost Omega
/// (predicate evaluation cost of the match's state) versus the plain count
/// abstraction (Fig. 11's ablation).
Result<OfflineStats> EstimateOffline(std::shared_ptr<const Nfa> nfa,
                                     const EventStream& history, int num_slices,
                                     bool use_resource_cost,
                                     const EngineOptions& engine_options = {});

}  // namespace cepshed

#endif  // CEPSHED_SHED_OFFLINE_ESTIMATOR_H_
