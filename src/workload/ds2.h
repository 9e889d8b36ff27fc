// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Dataset DS2 of the paper (Table II): numeric payloads drawn from
// partially overlapping ranges, designed to make the resource cost of
// partial matches heterogeneous (query Q3's Euclidean-distance predicate):
//   A.x, A.y, B.x, B.y : P(0 < X <= 2) = 33%, P(2 < X <= 4) = 67%
//   B.v : 2 (33%) / 5 (67%)   C.v : 3 (33%) / 5 (67%)   D.v : 5 (33%) / 2 (67%)

#ifndef CEPSHED_WORKLOAD_DS2_H_
#define CEPSHED_WORKLOAD_DS2_H_

#include "src/cep/schema.h"
#include "src/cep/stream.h"
#include "src/common/rng.h"

namespace cepshed {

/// Builds the DS2 schema: types A,B,C,D; attributes ID, x, y, v.
Schema MakeDs2Schema();

/// \brief DS2 generator configuration.
struct Ds2Options {
  size_t num_events = 50000;
  Duration event_gap = 10;
  int num_ids = 10;
  uint64_t seed = 2;
};

/// Generates a DS2 stream over `schema` (must come from MakeDs2Schema).
EventStream GenerateDs2(const Schema& schema, const Ds2Options& options);

}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_DS2_H_
