// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Dataset DS1 of the paper (Table II): events with a categorical type in
// {A,B,C,D}, a numeric ID ~ U(1,10), and a numeric attribute V ~ U(1,10).
// The V distribution of C events can be controlled (Fig. 7's selectivity
// variance sweep) and flipped mid-stream (Fig. 12's adaptivity test).

#ifndef CEPSHED_WORKLOAD_DS1_H_
#define CEPSHED_WORKLOAD_DS1_H_

#include "src/cep/schema.h"
#include "src/cep/stream.h"
#include "src/common/rng.h"

namespace cepshed {

/// Builds the DS1/DS2-compatible ABCD schema (attributes ID, V).
Schema MakeDs1Schema();

/// \brief DS1 generator configuration.
struct Ds1Options {
  size_t num_events = 50000;
  /// Microseconds between consecutive events (uniform rate).
  Duration event_gap = 10;
  int num_ids = 10;
  int v_min = 1;
  int v_max = 10;
  /// Distribution of V for C events; negative = same as v_min/v_max.
  int c_v_min = -1;
  int c_v_max = -1;
  /// Event index at which the C.V distribution switches to
  /// [c_v_min2, c_v_max2] (0 = never; Fig. 12's worst-case flip).
  size_t flip_at = 0;
  int c_v_min2 = 12;
  int c_v_max2 = 20;
  /// Relative frequency of the types A,B,C,D.
  double type_weights[4] = {1.0, 1.0, 1.0, 1.0};
  uint64_t seed = 1;
};

/// Generates a DS1 stream over `schema` (must come from MakeDs1Schema).
EventStream GenerateDs1(const Schema& schema, const Ds1Options& options);

}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_DS1_H_
