// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// A multi-target regression tree (CART with variance-reduction splits).
// The cost model fits one per NFA state on (predicate attributes) ->
// (contribution, consumption): the leaves partition partial matches into
// attribute-defined groups with homogeneous expected cost — irrelevant
// attributes yield no variance reduction and are ignored automatically —
// and the leaf partition doubles as the class predicate of §V-A.

#ifndef CEPSHED_ML_REGRESSION_TREE_H_
#define CEPSHED_ML_REGRESSION_TREE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace cepshed {

/// \brief Multi-target CART regression tree.
class RegressionTree {
 public:
  struct Options {
    int max_depth = 10;
    int min_samples_leaf = 50;
    /// Minimum relative impurity decrease to accept a split.
    double min_gain = 1e-4;
  };

  /// \brief Statistics of one leaf.
  struct Leaf {
    size_t count = 0;
    /// Mean per target dimension.
    std::vector<double> mean;
  };

  RegressionTree() = default;

  /// Fits on X (n x d) and targets Y (n x m). Targets are internally
  /// normalized per dimension so that each contributes equally to the
  /// split criterion.
  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<std::vector<double>>& y, const Options& options);

  /// Dense leaf index for a feature vector. Requires a fitted tree.
  int PredictLeaf(const double* x, size_t n) const;
  int PredictLeaf(const std::vector<double>& x) const {
    return PredictLeaf(x.data(), x.size());
  }

  /// Mean target vector of the leaf a feature vector falls into.
  const std::vector<double>& Predict(const std::vector<double>& x) const {
    return leaves_[static_cast<size_t>(PredictLeaf(x))].mean;
  }

  bool fitted() const { return !nodes_.empty(); }
  size_t num_leaves() const { return leaves_.size(); }
  const Leaf& leaf(int index) const { return leaves_[static_cast<size_t>(index)]; }
  size_t num_nodes() const { return nodes_.size(); }
  int Depth() const;

  /// Leaf index of each training sample, in Fit input order.
  const std::vector<int>& training_leaves() const { return training_leaves_; }

 private:
  struct Node {
    int feature = -1;  // -1 for leaves
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    int leaf_index = -1;  // valid for leaves
  };

  /// Fit's scratch: inputs, normalized targets, and the presorted columns.
  struct FitState;

  int Build(FitState& s, size_t begin, size_t end, int depth);

  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;
  std::vector<int> training_leaves_;
  size_t num_features_ = 0;
  size_t num_targets_ = 0;
};

}  // namespace cepshed

#endif  // CEPSHED_ML_REGRESSION_TREE_H_
