// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Compilation of a Query into the automaton evaluated by the engine
// (the computational model of Fig. 2 in the paper). State s of the
// automaton fills the s-th positive pattern component; predicates are
// anchored at the state where all their references are bound; equality
// predicates yield join-index specs used to avoid full bucket scans
// ("we rely on indexes over the attribute values of events", §VI-A).

#ifndef CEPSHED_CEP_NFA_H_
#define CEPSHED_CEP_NFA_H_

#include <memory>
#include <vector>

#include "src/cep/expr.h"
#include "src/cep/pattern.h"
#include "src/cep/pred_vm.h"
#include "src/cep/schema.h"
#include "src/common/result.h"

namespace cepshed {

/// \brief A WHERE conjunct anchored to the pattern position where it
/// becomes fully bound.
struct CompiledPredicate {
  ExprPtr expr;
  /// Pattern element index at which the predicate is evaluated.
  int anchor_elem = -1;
  /// True if the predicate references a negated component (then
  /// anchor_elem is that component and evaluation happens at match
  /// completion, against witnesses).
  bool is_negation = false;
  /// True if the predicate contains `x[i]` previous-iteration references
  /// on its anchor; such predicates are skipped on the first iteration.
  bool needs_iter_prev = false;
  /// True if the predicate aggregates over its (Kleene) anchor and is
  /// therefore deferred until the component closes (non-monotone
  /// aggregates like AVG must not prune prefixes eagerly).
  bool is_close = false;
  /// True if the predicate only reads the event being bound — evaluable on
  /// an input event in isolation (used by input shedding and baselines).
  bool event_only = false;
  /// Static work units of one evaluation (resource cost Omega component).
  double static_cost = 0.0;
  /// Bytecode program in the query's PredVmModule, or -1 when the predicate
  /// is not compilable (aggregates) and keeps the tree interpreter.
  int vm_program = -1;
};

/// \brief An equality-derived hash-join key: probe with an attribute of the
/// incoming event, build by evaluating an expression over a stored match.
struct JoinIndexSpec {
  int probe_attr = -1;
  ExprPtr build_expr;
  /// True when the build side is a computed expression rather than a bare
  /// attribute. The engine only uses such keys when explicitly enabled:
  /// the paper's engine indexes attribute values (§VI-A), so expression
  /// predicates are evaluated per candidate match.
  bool expression_key = false;
  /// Bytecode program computing the build key (-1: interpreter).
  int vm_build_program = -1;
  bool valid() const { return probe_attr >= 0 && build_expr != nullptr; }
};

/// \brief One automaton state: the positive component it fills plus the
/// predicates and index specs that guard the fill.
struct NfaState {
  /// Pattern element index filled by this state.
  int pattern_elem = -1;
  /// Event type id the component accepts.
  int event_type = -1;
  bool kleene = false;
  int min_reps = 1;
  int max_reps = INT_MAX;
  /// Predicates evaluated on every bind into this component.
  std::vector<const CompiledPredicate*> bind_preds;
  /// Kleene-only: predicates additionally evaluated from the second
  /// iteration on (previous-iteration references).
  std::vector<const CompiledPredicate*> iter_preds;
  /// Kleene-only: predicates over the finished component (aggregates such
  /// as AVG over the binding), evaluated when the component closes —
  /// at proceed time or, for a trailing component, at emission.
  std::vector<const CompiledPredicate*> close_preds;
  /// Index for binding an event as the first event of this component
  /// (equality against earlier components).
  JoinIndexSpec fill_index;
  /// Kleene-only: index for extending the component (iteration equality,
  /// keyed over the last bound event).
  JoinIndexSpec extend_index;
  /// Total static cost of bind_preds + iter_preds (resource cost Omega in
  /// predicate-count mode).
  double bind_cost = 0.0;
};

/// \brief A negated component: vetoes candidate matches at completion.
struct NegationSpec {
  int pattern_elem = -1;
  int event_type = -1;
  /// The positive state preceding / following the negated component; the
  /// veto interval is (last event of prev slot, first event of next slot).
  int prev_state = -1;
  int next_state = -1;
  std::vector<const CompiledPredicate*> preds;
};

/// \brief The compiled query. Immutable after Compile.
class Nfa {
 public:
  /// Compiles (a copy of) the query. Validates and resolves it first.
  static Result<std::shared_ptr<Nfa>> Compile(Query query, const Schema* schema);

  int num_states() const { return static_cast<int>(states_.size()); }
  const NfaState& state(int s) const { return states_[static_cast<size_t>(s)]; }
  const std::vector<NegationSpec>& negations() const { return negations_; }
  const Query& query() const { return query_; }
  const Schema& schema() const { return *schema_; }
  Duration window() const { return query_.window; }

  /// Pattern element of a positive slot.
  int ElemOfSlot(int slot) const { return states_[static_cast<size_t>(slot)].pattern_elem; }

  /// States whose component accepts events of the given type (by fill).
  const std::vector<int>& StatesForType(int type) const {
    static const std::vector<int> kEmpty;
    if (type < 0 || static_cast<size_t>(type) >= states_for_type_.size()) return kEmpty;
    return states_for_type_[static_cast<size_t>(type)];
  }

  /// Negated pattern elements accepting the given type.
  const std::vector<int>& NegationsForType(int type) const {
    static const std::vector<int> kEmpty;
    if (type < 0 || static_cast<size_t>(type) >= negations_for_type_.size()) return kEmpty;
    return negations_for_type_[static_cast<size_t>(type)];
  }

  /// Schema attribute indices referenced anywhere in the query's
  /// predicates — the predictor variables of the cost model classifiers.
  const std::vector<int>& PredicateAttrs() const { return predicate_attrs_; }

  /// The query's compiled predicate programs (null only if every predicate
  /// refused compilation). Shared by all engines evaluating this NFA.
  const std::shared_ptr<const PredVmModule>& vm_module() const {
    return vm_module_;
  }

 private:
  Nfa() = default;

  Query query_;
  const Schema* schema_ = nullptr;
  std::vector<std::unique_ptr<CompiledPredicate>> predicates_;
  std::vector<NfaState> states_;
  std::vector<NegationSpec> negations_;
  std::vector<int> slot_of_elem_;
  std::vector<std::vector<int>> states_for_type_;
  std::vector<std::vector<int>> negations_for_type_;
  std::vector<int> predicate_attrs_;
  std::shared_ptr<const PredVmModule> vm_module_;
};

}  // namespace cepshed

#endif  // CEPSHED_CEP_NFA_H_
