// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Synthetic bike-sharing trip stream standing in for the citibike dataset
// [11] the paper evaluates (the real October-2018 CSVs are not available
// offline; see DESIGN.md §3 on why this substitution preserves the
// relevant behaviour). The generator reproduces the properties the
// paper's 'hot paths' query (Listing 1) exercises:
//  - trips chain per bike: a trip starts where the bike's previous trip
//    ended, so `a[i+1].start = a[i].end` holds along real chains;
//  - rush-hour spikes multiply the trip rate and bias destinations toward
//    the hot stations {7,8,9}, producing the partial-match explosion of
//    Fig. 1;
//  - a categorical user type (subscriber/customer) correlates with
//    chain length, giving the SI/SS baselines something to exploit.

#ifndef CEPSHED_WORKLOAD_CITIBIKE_H_
#define CEPSHED_WORKLOAD_CITIBIKE_H_

#include "src/cep/schema.h"
#include "src/cep/stream.h"
#include "src/common/rng.h"

namespace cepshed {

/// Builds the citibike schema: type BikeTrip; attributes bike, start, end,
/// user (0 = subscriber, 1 = customer).
Schema MakeCitibikeSchema();

/// \brief Generator configuration.
struct CitibikeOptions {
  size_t num_events = 40000;
  int num_stations = 50;
  int num_bikes = 100;
  /// Mean microseconds between trips off-peak. The default spreads 40k
  /// trips over roughly 40 hours, giving each bike ~10 trips per one-hour
  /// window off-peak (4x that in rush hours) — enough for the hot-path
  /// chains of Listing 1 without drowning the engine.
  double base_gap = 3.6e6;
  /// Rush hours multiply the trip rate by this factor...
  double rush_rate_factor = 4.0;
  /// ...for windows of this length...
  Duration rush_length = Minutes(30);
  /// ...every this often.
  Duration rush_period = Hours(3);
  /// Probability that a trip ends at a hot station {7,8,9} off-peak /
  /// during rush hours.
  double hot_end_prob = 0.1;
  double hot_end_prob_rush = 0.35;
  /// Fraction of subscriber trips (user = 0). Subscribers commute and
  /// chain; customers joyride (their bike is "teleported" afterwards,
  /// breaking chains).
  double subscriber_fraction = 0.7;
  uint64_t seed = 3;
};

/// Generates a synthetic citibike trip stream.
EventStream GenerateCitibike(const Schema& schema, const CitibikeOptions& options);

}  // namespace cepshed

#endif  // CEPSHED_WORKLOAD_CITIBIKE_H_
