// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests for the sketch substrate: the count-min sketch.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sketch/count_min.h"

namespace cepshed {
namespace {

TEST(CountMinTest, NeverUnderestimates) {
  CountMinSketch sketch(256, 4);
  Rng rng(1);
  std::vector<std::pair<uint64_t, double>> truth;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 10000));
    const double count = static_cast<double>(rng.UniformInt(1, 10));
    sketch.Add(key, count);
    truth.push_back({key, count});
  }
  // Aggregate per key.
  std::map<uint64_t, double> agg;
  for (auto& [k, c] : truth) agg[k] += c;
  for (auto& [k, c] : agg) {
    EXPECT_GE(sketch.Estimate(k) + 1e-9, c);
  }
}

TEST(CountMinTest, AccurateForFewKeys) {
  CountMinSketch sketch(1024, 4);
  for (uint64_t k = 0; k < 10; ++k) sketch.Add(k, static_cast<double>(k + 1));
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_DOUBLE_EQ(sketch.Estimate(k), static_cast<double>(k + 1));
  }
  EXPECT_DOUBLE_EQ(sketch.Estimate(999), 0.0);
}

TEST(CountMinTest, ScaleAndClear) {
  CountMinSketch sketch(64, 3);
  sketch.Add(7, 10.0);
  sketch.Scale(0.5);
  EXPECT_DOUBLE_EQ(sketch.Estimate(7), 5.0);
  sketch.Clear();
  EXPECT_DOUBLE_EQ(sketch.Estimate(7), 0.0);
}

}  // namespace
}  // namespace cepshed
