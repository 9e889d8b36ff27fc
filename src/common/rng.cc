// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/common/rng.h"

#include <cassert>
#include <cmath>

namespace cepshed {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<int64_t>(Next());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t draw;
  do {
    draw = Next();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % span);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

double Rng::Normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

int64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    int64_t k = 0;
    double prod = UniformDouble();
    while (prod > limit) {
      ++k;
      prod *= UniformDouble();
    }
    return k;
  }
  // Normal approximation with continuity correction for large means.
  const double draw = Normal(mean, std::sqrt(mean));
  return draw < 0.0 ? 0 : static_cast<int64_t>(draw + 0.5);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double draw = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    draw -= weights[i];
    if (draw < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace cepshed
