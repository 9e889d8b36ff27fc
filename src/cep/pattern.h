// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The query model: a SEQ pattern of (possibly Kleene-closed or negated)
// typed elements, a conjunction of WHERE predicates, and a WITHIN window —
// the query class the paper targets (§III-A), evaluated under the
// exhaustive skip-till-any-match selection policy.

#ifndef CEPSHED_CEP_PATTERN_H_
#define CEPSHED_CEP_PATTERN_H_

#include <climits>
#include <string>
#include <vector>

#include "src/cep/expr.h"
#include "src/cep/schema.h"
#include "src/common/status.h"
#include "src/common/time.h"

namespace cepshed {

/// \brief Event selection policy of a query (§III-A of the paper).
///
/// Exhaustive skip-till-any-match is the paper's default (and the policy
/// under which the monotonicity properties that make shedding safe hold);
/// the selective policies are provided for completeness — the paper names
/// them as non-monotonic counter-examples: under them, shedding can
/// *create* matches that exhaustive evaluation would not produce.
enum class SelectionPolicy : int {
  kSkipTillAnyMatch = 0,  ///< clone on every viable extension (exhaustive)
  kSkipTillNextMatch = 1, ///< each partial match takes the first viable event
  kStrictContiguity = 2,  ///< pattern events must be stream-adjacent
};

/// \brief One component of a SEQ pattern.
struct PatternElement {
  /// The variable the component binds (e.g. "a"); unique within a query.
  std::string variable;
  /// Event type name; resolved to an id during compilation.
  std::string event_type;
  /// Resolved event type id (set by Query::Validate / NFA compilation).
  int event_type_id = -1;
  /// True for Kleene closure components (`A+ a[]`).
  bool kleene = false;
  /// True for negated components (`!B b`); these veto matches.
  bool negated = false;
  /// Minimum repetitions for Kleene components (>= 1).
  int min_reps = 1;
  /// Maximum repetitions for Kleene components.
  int max_reps = INT_MAX;
};

/// \brief A complete CEP query: pattern, predicates, window.
struct Query {
  std::string name;
  std::vector<PatternElement> elements;
  /// WHERE conjuncts. Each predicate is attached to the pattern position
  /// where it becomes fully bound during NFA compilation.
  std::vector<ExprPtr> predicates;
  /// WITHIN window in microseconds.
  Duration window = 0;
  /// When > 0, the window counts *events* instead of time: a match may
  /// span at most this many stream positions (the paper's Fig. 12 uses
  /// "1K/2K/4K/8K events" windows). `window` must still be positive and
  /// is used for the cost model's time slices.
  uint64_t count_window = 0;
  /// Event selection policy (POLICY clause; defaults to the exhaustive
  /// skip-till-any-match).
  SelectionPolicy policy = SelectionPolicy::kSkipTillAnyMatch;

  /// Structural validation and name resolution: unique variables, known
  /// event types, window > 0, Kleene bounds sane, negated components not
  /// at the pattern edges, predicates resolvable. Resolves all predicates
  /// against `schema` (idempotent per predicate: call once).
  Status Validate(const Schema& schema);

  /// Number of non-negated components.
  int NumPositiveElements() const;

  /// Maps a pattern element index to its positive slot (events storage
  /// index) or -1 for negated components.
  std::vector<int> PositiveSlots() const;

  /// Renders the query in a SASE-like syntax for diagnostics.
  std::string ToString() const;
};

}  // namespace cepshed

#endif  // CEPSHED_CEP_PATTERN_H_
