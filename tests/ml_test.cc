// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests for the ML substrate: k-means, gap statistic, decision tree,
// regression tree.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/ml/decision_tree.h"
#include "src/ml/gap_statistic.h"
#include "src/ml/kmeans.h"
#include "src/ml/regression_tree.h"

namespace cepshed {
namespace {

// Three well-separated 2D blobs.
std::vector<std::vector<double>> MakeBlobs(Rng* rng, int per_blob = 60) {
  std::vector<std::vector<double>> points;
  const double centers[3][2] = {{0, 0}, {10, 0}, {5, 10}};
  for (const auto& c : centers) {
    for (int i = 0; i < per_blob; ++i) {
      points.push_back({c[0] + rng->Normal(0, 0.5), c[1] + rng->Normal(0, 0.5)});
    }
  }
  return points;
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  Rng rng(1);
  auto points = MakeBlobs(&rng);
  auto result = KMeans(points, 3, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.size(), 3u);
  // All points of one blob share a label.
  for (int blob = 0; blob < 3; ++blob) {
    const int label = result->labels[static_cast<size_t>(blob * 60)];
    for (int i = 0; i < 60; ++i) {
      EXPECT_EQ(result->labels[static_cast<size_t>(blob * 60 + i)], label);
    }
  }
  EXPECT_LT(result->inertia, 200.0);
}

TEST(KMeansTest, KClampedToPointCount) {
  Rng rng(2);
  std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  auto result = KMeans(points, 10, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->centroids.size(), 2u);
}

TEST(KMeansTest, RejectsBadInput) {
  Rng rng(3);
  EXPECT_FALSE(KMeans({}, 2, &rng).ok());
  EXPECT_FALSE(KMeans({{1.0}}, 0, &rng).ok());
  EXPECT_FALSE(KMeans({{1.0}, {1.0, 2.0}}, 1, &rng).ok());
}

TEST(KMeansTest, WeightedPullsCentroidTowardHeavyPoint) {
  Rng rng(4);
  // Two points, one with 99x the weight; k=1 centroid must sit close to it.
  std::vector<std::vector<double>> points = {{0.0}, {10.0}};
  auto result = KMeansWeighted(points, {99.0, 1.0}, 1, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->centroids[0][0], 1.0);
}

TEST(GapStatisticTest, FindsThreeBlobs) {
  Rng rng(5);
  auto points = MakeBlobs(&rng);
  GapStatisticOptions opts;
  opts.k_min = 1;
  opts.k_max = 6;
  auto result = EstimateClusters(points, opts, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->best_k, 2);
  EXPECT_LE(result->best_k, 4);
}

TEST(GapStatisticTest, SingleBlobYieldsOneCluster) {
  Rng rng(6);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.Normal(0, 1), rng.Normal(0, 1)});
  }
  GapStatisticOptions opts;
  opts.k_min = 1;
  opts.k_max = 5;
  auto result = EstimateClusters(points, opts, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->best_k, 2);
}

TEST(DecisionTreeTest, LearnsAxisAlignedBoundary) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.UniformDouble(0, 10);
    const double b = rng.UniformDouble(0, 10);
    x.push_back({a, b});
    y.push_back(a + b <= 10.0 ? 0 : 1);
  }
  DecisionTree tree;
  DecisionTree::Options opts;
  opts.max_depth = 8;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  EXPECT_GT(tree.training_accuracy(), 0.95);
  EXPECT_EQ(tree.Predict({1.0, 1.0}), 0);
  EXPECT_EQ(tree.Predict({9.0, 9.0}), 1);
}

TEST(DecisionTreeTest, DepthIsBounded) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    x.push_back({rng.UniformDouble(0, 1)});
    y.push_back(static_cast<int>(rng.UniformInt(0, 3)));
  }
  DecisionTree tree;
  DecisionTree::Options opts;
  opts.max_depth = 3;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  EXPECT_LE(tree.Depth(), 4);  // depth counts nodes on path incl. leaf
}

TEST(DecisionTreeTest, PathsToClassAreConsistentWithPredict) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i);
    x.push_back({v});
    y.push_back(v < 50 ? 0 : 1);
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y, DecisionTree::Options{}).ok());
  const auto paths = tree.PathsToClass(0);
  ASSERT_FALSE(paths.empty());
  // A point satisfying a class-0 path must predict class 0.
  for (const auto& path : paths) {
    double probe = 25.0;
    bool satisfied = true;
    for (const auto& cond : path) {
      satisfied &= cond.less_equal ? probe <= cond.threshold : probe > cond.threshold;
    }
    if (satisfied) {
      EXPECT_EQ(tree.Predict({probe}), 0);
    }
  }
}

TEST(DecisionTreeTest, RejectsBadInput) {
  DecisionTree tree;
  EXPECT_FALSE(tree.Fit({}, {}, DecisionTree::Options{}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}}, {0, 1}, DecisionTree::Options{}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}}, {-1}, DecisionTree::Options{}).ok());
}

TEST(RegressionTreeTest, RecoversPiecewiseMeans) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  Rng rng(9);
  for (int i = 0; i < 600; ++i) {
    const double a = rng.UniformDouble(0, 10);
    x.push_back({a});
    y.push_back({a < 5 ? 100.0 : 200.0});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.min_samples_leaf = 20;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  EXPECT_NEAR(tree.Predict({2.0})[0], 100.0, 1.0);
  EXPECT_NEAR(tree.Predict({8.0})[0], 200.0, 1.0);
}

TEST(RegressionTreeTest, IgnoresIrrelevantFeature) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  Rng rng(10);
  for (int i = 0; i < 800; ++i) {
    const double useful = rng.UniformDouble(0, 10);
    const double noise = rng.UniformDouble(0, 10);
    x.push_back({noise, useful});
    y.push_back({useful < 5 ? 1.0 : 2.0});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.max_depth = 2;
  opts.min_samples_leaf = 50;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  // With a single split available, it must pick the informative feature:
  // leaves separated by the useful dimension.
  EXPECT_NEAR(tree.Predict({0.0, 2.0})[0], 1.0, 0.2);
  EXPECT_NEAR(tree.Predict({9.9, 8.0})[0], 2.0, 0.2);
}

TEST(RegressionTreeTest, MultiTargetLeavesCarryBothMeans) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  for (int i = 0; i < 200; ++i) {
    const double a = static_cast<double>(i % 2);
    x.push_back({a});
    y.push_back({a * 10.0, 5.0 - a * 5.0});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.min_samples_leaf = 10;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  const auto& lo = tree.Predict({0.0});
  const auto& hi = tree.Predict({1.0});
  EXPECT_NEAR(lo[0], 0.0, 0.01);
  EXPECT_NEAR(lo[1], 5.0, 0.01);
  EXPECT_NEAR(hi[0], 10.0, 0.01);
  EXPECT_NEAR(hi[1], 0.0, 0.01);
}

TEST(RegressionTreeTest, TrainingLeavesMatchPredictLeaf) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double a = rng.UniformDouble(0, 10);
    x.push_back({a});
    y.push_back({a});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.min_samples_leaf = 10;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(tree.PredictLeaf(x[i]), tree.training_leaves()[i]);
  }
}

// --- pinned fits --------------------------------------------------------
// Seeded datasets whose fitted trees are frozen by checksum: node count,
// every leaf's count and mean bits, training_leaves(), and PredictLeaf on
// probe points. Split search may be reorganized (presorting, buffers) but
// must pick the same splits and sum in the same order, so these stay
// bit-identical. The EXPECT failure prints the actual checksum.

struct TreeCase {
  uint64_t seed;
  size_t n;
  size_t features;
  size_t targets;
  /// 0: continuous features; k > 0: integer features in [0, k) (ties).
  int levels;
  /// Feature index held constant, or -1.
  int constant_feature;
  /// Every `dup_every`-th row repeats the previous row (0 = none).
  size_t dup_every;
  int min_samples_leaf;
  int max_depth;
  uint64_t checksum;
};

void MakeTreeData(const TreeCase& c, std::vector<std::vector<double>>* x,
                  std::vector<std::vector<double>>* y) {
  Rng rng(c.seed);
  for (size_t i = 0; i < c.n; ++i) {
    if (c.dup_every > 0 && i > 0 && i % c.dup_every == 0) {
      x->push_back(x->back());
      y->push_back(y->back());
      continue;
    }
    std::vector<double> row(c.features);
    for (size_t f = 0; f < c.features; ++f) {
      row[f] = c.levels > 0 ? static_cast<double>(rng.UniformInt(0, c.levels - 1))
                            : rng.UniformDouble(-5.0, 5.0);
    }
    if (c.constant_feature >= 0) row[static_cast<size_t>(c.constant_feature)] = 3.0;
    std::vector<double> target(c.targets);
    const double x0 = row[0];
    const double x1 = c.features > 1 ? row[1] : 0.0;
    target[0] = (x0 > 1.0 ? 4.0 : 0.5) + 0.3 * x1 + rng.Normal(0.0, 0.4);
    if (c.targets > 1) {
      target[1] = static_cast<double>(x0 + x1 > 2.0) * 3.0 +
                  static_cast<double>(rng.Poisson(1.5));
    }
    x->push_back(std::move(row));
    y->push_back(std::move(target));
  }
}

uint64_t TreeChecksum(const RegressionTree& tree, const TreeCase& c,
                      const std::vector<std::vector<double>>& x) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (8 * i));
      h *= 1099511628211ULL;
    }
  };
  auto mix_double = [&mix](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(tree.num_nodes());
  mix(tree.num_leaves());
  mix(static_cast<uint64_t>(tree.Depth()));
  for (size_t l = 0; l < tree.num_leaves(); ++l) {
    const RegressionTree::Leaf& leaf = tree.leaf(static_cast<int>(l));
    mix(leaf.count);
    for (double m : leaf.mean) mix_double(m);
  }
  for (int leaf : tree.training_leaves()) mix(static_cast<uint64_t>(leaf));
  Rng probes(c.seed ^ 0x9e3779b97f4a7c15ULL);
  for (int p = 0; p < 64; ++p) {
    std::vector<double> point(c.features);
    for (double& v : point) v = probes.UniformDouble(-6.0, 6.0);
    mix(static_cast<uint64_t>(tree.PredictLeaf(point)));
  }
  for (size_t i = 0; i < x.size(); i += 7) {
    mix(static_cast<uint64_t>(tree.PredictLeaf(x[i])));
  }
  return h;
}

TEST(RegressionTreeTest, PinnedFits) {
  const TreeCase cases[] = {
      // seed, n, d, m, levels, const, dup, min_leaf, depth, checksum
      {1, 400, 2, 2, 0, -1, 0, 20, 10, 0x3db8612f14d82925ULL},
      {2, 400, 2, 1, 0, -1, 0, 20, 10, 0x8ca2aab70b8d55dULL},
      {3, 600, 3, 2, 4, -1, 0, 25, 10, 0x63e96bfd9397fb4dULL},    // heavy ties
      {4, 600, 3, 1, 2, -1, 0, 10, 10, 0x2ca2ab83fa27717dULL},    // binary features
      {5, 500, 3, 2, 0, 1, 0, 20, 10, 0xf6e091c7cbb31c4cULL},     // constant middle column
      {6, 500, 2, 2, 0, 0, 0, 20, 10, 0x5f78a5d3121ceaf3ULL},     // constant splitting column
      {7, 300, 1, 1, 0, 0, 0, 10, 10, 0xd48e5cc894fe2880ULL},     // every column constant
      {8, 500, 2, 2, 0, -1, 3, 15, 10, 0x840bb7d7439b4d32ULL},    // duplicate rows
      {9, 500, 2, 1, 6, -1, 2, 15, 10, 0x29636202850e2a14ULL},    // duplicates + ties
      {10, 100, 2, 2, 0, -1, 0, 50, 10, 0x20607c52f30c2773ULL},   // n == 2 * min_leaf
      {11, 100, 2, 1, 3, -1, 0, 50, 10, 0xfcddde3e0802ffa8ULL},   // n == 2 * min_leaf, ties
      {12, 99, 2, 2, 0, -1, 0, 50, 10, 0xdbca153e93b35818ULL},    // one short of a split
      {13, 40, 2, 2, 0, -1, 0, 20, 10, 0x72a5e983d0aa8fe9ULL},    // n == 2 * min_leaf, small
      {14, 2000, 4, 2, 0, -1, 0, 50, 10, 0x6e0e1814d3dd8220ULL},  // deeper tree
      {15, 2000, 4, 1, 8, -1, 5, 30, 10, 0x46a9e5d5ac013d76ULL},
      {16, 800, 6, 2, 0, 3, 0, 20, 3, 0x54719b12e0d4a2eaULL},     // depth-capped
      {17, 800, 2, 2, 10, -1, 0, 1, 10, 0xbc17c95e8298f65eULL},   // tiny leaves
      {18, 800, 2, 1, 0, -1, 0, 1, 4, 0xd63ca341ca681dc0ULL},
      {19, 1200, 3, 2, 5, 2, 4, 40, 10, 0xd5c8699240921ab1ULL},   // everything at once
      {20, 1, 2, 2, 0, -1, 0, 1, 10, 0x702af111c08765d2ULL},      // single row
  };
  for (const TreeCase& c : cases) {
    std::vector<std::vector<double>> x;
    std::vector<std::vector<double>> y;
    MakeTreeData(c, &x, &y);
    RegressionTree tree;
    RegressionTree::Options opts;
    opts.min_samples_leaf = c.min_samples_leaf;
    opts.max_depth = c.max_depth;
    ASSERT_TRUE(tree.Fit(x, y, opts).ok()) << "case " << c.seed;
    const uint64_t got = TreeChecksum(tree, c, x);
    EXPECT_EQ(got, c.checksum) << "case " << c.seed << std::hex << " 0x" << got;
  }
}

TEST(RegressionTreeTest, PinnedConstantTargets) {
  // Constant targets leave only rounding residue in the node impurity, so
  // whether and where the tree splits hinges on the exact summation order.
  const TreeCase c{21, 200, 2, 2, 0, -1, 0, 50, 10, 0x430cea729a2cbf1aULL};
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  for (size_t i = 0; i < c.n; ++i) {
    x.push_back({static_cast<double>(i % 13), static_cast<double>(i)});
    y.push_back({2.5, -1.0});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.min_samples_leaf = c.min_samples_leaf;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  for (size_t l = 0; l < tree.num_leaves(); ++l) {
    EXPECT_DOUBLE_EQ(tree.leaf(static_cast<int>(l)).mean[0], 2.5);
  }
  const uint64_t got = TreeChecksum(tree, c, x);
  EXPECT_EQ(got, c.checksum) << std::hex << "0x" << got;
}

}  // namespace
}  // namespace cepshed
