// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Deterministic random number generation. All workload generators and
// randomized strategies draw from Rng so that experiments are reproducible
// from a seed.

#ifndef CEPSHED_COMMON_RNG_H_
#define CEPSHED_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cepshed {

/// \brief A seedable pseudo-random generator (xoshiro256**) with the
/// distribution helpers the workloads need.
///
/// xoshiro256** is used instead of std::mt19937_64 because its output is
/// stable across standard library implementations, keeping generated
/// datasets bit-identical everywhere.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed (SplitMix64 expansion).
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit draw.
  uint64_t Next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Standard normal draw (Box-Muller).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential draw with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Poisson draw with the given mean (Knuth for small, normal approx for
  /// large means).
  int64_t Poisson(double mean);

  /// Draws an index in [0, weights.size()) proportionally to weights.
  /// Requires a non-empty vector with non-negative entries and positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent child generator (for parallel substreams).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace cepshed

#endif  // CEPSHED_COMMON_RNG_H_
