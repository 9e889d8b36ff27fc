// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/ml/regression_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace cepshed {

// Split search visits a node's samples of each feature in (value, index)
// order. Fit sorts every feature column once; a split then stable-partitions
// the node's slice of each column, which keeps both children's slices in
// that same order. Each node thus sees exactly the sequence a per-node sort
// of its samples would produce, so split sums, chosen splits and leaves are
// identical to sorting at every node, at O(n) instead of O(n log n) a node.
struct RegressionTree::FitState {
  FitState(const std::vector<std::vector<double>>& x_in,
           const std::vector<std::vector<double>>& y_in, const Options& options_in)
      : x(x_in), y_raw(y_in), options(options_in), n(x_in.size()) {}

  const std::vector<std::vector<double>>& x;
  const std::vector<std::vector<double>>& y_raw;
  const Options& options;
  size_t n;
  /// Targets scaled to unit variance, row-major n x num_targets.
  std::vector<double> y_norm;
  /// Sample order of the node ranges; sums and leaves run in this order.
  std::vector<uint32_t> indices;
  /// Feature-major n x num_features: column f lists sample ids by
  /// (x[id][f], id); a node owns [begin, end) of every column.
  std::vector<uint32_t> sorted;
  /// Per sample: goes to the left child of the split being applied.
  std::vector<uint8_t> goes_left;
  /// Right-side spill of a column partition.
  std::vector<uint32_t> spill;
};

Status RegressionTree::Fit(const std::vector<std::vector<double>>& x,
                           const std::vector<std::vector<double>>& y,
                           const Options& options) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("regression tree: empty or mismatched data");
  }
  num_features_ = x[0].size();
  num_targets_ = y[0].size();
  if (num_targets_ == 0) {
    return Status::InvalidArgument("regression tree: no targets");
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != num_features_ || y[i].size() != num_targets_) {
      return Status::InvalidArgument("regression tree: ragged data");
    }
  }

  // Normalize targets to unit variance so each counts equally.
  std::vector<double> mean(num_targets_, 0.0);
  std::vector<double> scale(num_targets_, 1.0);
  for (const auto& row : y) {
    for (size_t t = 0; t < num_targets_; ++t) mean[t] += row[t];
  }
  for (auto& m : mean) m /= static_cast<double>(y.size());
  for (const auto& row : y) {
    for (size_t t = 0; t < num_targets_; ++t) {
      const double d = row[t] - mean[t];
      scale[t] += d * d;
    }
  }
  for (auto& s : scale) s = std::sqrt(s / static_cast<double>(y.size()));

  const size_t n = x.size();
  FitState s(x, y, options);
  s.y_norm.resize(n * num_targets_);
  for (size_t i = 0; i < n; ++i) {
    for (size_t t = 0; t < num_targets_; ++t) {
      s.y_norm[i * num_targets_ + t] = scale[t] > 0.0 ? y[i][t] / scale[t] : 0.0;
    }
  }
  s.indices.resize(n);
  std::iota(s.indices.begin(), s.indices.end(), 0u);
  s.sorted.resize(n * num_features_);
  for (size_t f = 0; f < num_features_; ++f) {
    const auto col = s.sorted.begin() + static_cast<ptrdiff_t>(f * n);
    std::iota(col, col + static_cast<ptrdiff_t>(n), 0u);
    std::sort(col, col + static_cast<ptrdiff_t>(n), [&x, f](uint32_t a, uint32_t b) {
      const double va = x[a][f];
      const double vb = x[b][f];
      return va < vb || (!(vb < va) && a < b);
    });
  }
  s.goes_left.resize(n);
  s.spill.resize(n);

  nodes_.clear();
  leaves_.clear();
  training_leaves_.assign(n, 0);
  Build(s, 0, n, 0);
  return Status::OK();
}

int RegressionTree::Build(FitState& s, size_t begin, size_t end, int depth) {
  const Options& options = s.options;
  const size_t n = end - begin;
  const size_t m = num_targets_;
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});

  // Node impurity: total SSE over normalized targets.
  std::vector<double> sum(m, 0.0);
  std::vector<double> sum_sq(m, 0.0);
  for (size_t i = begin; i < end; ++i) {
    const double* row = &s.y_norm[s.indices[i] * m];
    for (size_t t = 0; t < m; ++t) {
      sum[t] += row[t];
      sum_sq[t] += row[t] * row[t];
    }
  }
  double node_sse = 0.0;
  for (size_t t = 0; t < m; ++t) {
    node_sse += sum_sq[t] - sum[t] * sum[t] / static_cast<double>(n);
  }

  auto make_leaf = [&]() {
    Leaf leaf;
    leaf.count = n;
    leaf.mean.assign(m, 0.0);
    for (size_t i = begin; i < end; ++i) {
      const auto& row = s.y_raw[s.indices[i]];
      for (size_t t = 0; t < m; ++t) leaf.mean[t] += row[t];
    }
    for (auto& mu : leaf.mean) mu /= static_cast<double>(n);
    const int leaf_index = static_cast<int>(leaves_.size());
    for (size_t i = begin; i < end; ++i) {
      training_leaves_[s.indices[i]] = leaf_index;
    }
    nodes_[static_cast<size_t>(node_id)].leaf_index = leaf_index;
    leaves_.push_back(std::move(leaf));
    return node_id;
  };

  if (depth >= options.max_depth ||
      n < 2 * static_cast<size_t>(options.min_samples_leaf) || node_sse <= 1e-12) {
    return make_leaf();
  }

  // Best split by SSE reduction.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_sse = node_sse * (1.0 - options.min_gain);
  std::vector<double> left_sum(m);
  std::vector<double> left_sq(m);
  for (size_t f = 0; f < num_features_; ++f) {
    const uint32_t* column = &s.sorted[f * s.n + begin];
    std::fill(left_sum.begin(), left_sum.end(), 0.0);
    std::fill(left_sq.begin(), left_sq.end(), 0.0);
    double value = s.x[column[0]][f];
    for (size_t i = 0; i + 1 < n; ++i) {
      const double* row = &s.y_norm[column[i] * m];
      for (size_t t = 0; t < m; ++t) {
        left_sum[t] += row[t];
        left_sq[t] += row[t] * row[t];
      }
      const double next = s.x[column[i + 1]][f];
      if (value == next) continue;
      const double prev = value;
      value = next;
      const size_t nl = i + 1;
      const size_t nr = n - nl;
      if (nl < static_cast<size_t>(options.min_samples_leaf) ||
          nr < static_cast<size_t>(options.min_samples_leaf)) {
        continue;
      }
      double sse = 0.0;
      for (size_t t = 0; t < m; ++t) {
        const double rl = left_sq[t] - left_sum[t] * left_sum[t] / static_cast<double>(nl);
        const double rs = sum[t] - left_sum[t];
        const double rq = sum_sq[t] - left_sq[t];
        const double rr = rq - rs * rs / static_cast<double>(nr);
        sse += rl + rr;
      }
      if (sse < best_sse) {
        best_sse = sse;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (prev + next);
      }
    }
  }
  if (best_feature < 0) return make_leaf();

  const size_t bf = static_cast<size_t>(best_feature);
  for (size_t i = begin; i < end; ++i) {
    const uint32_t idx = s.indices[i];
    s.goes_left[idx] = s.x[idx][bf] <= best_threshold;
  }
  auto mid_it = std::partition(s.indices.begin() + static_cast<ptrdiff_t>(begin),
                               s.indices.begin() + static_cast<ptrdiff_t>(end),
                               [&s](uint32_t idx) { return s.goes_left[idx] != 0; });
  const size_t mid = static_cast<size_t>(mid_it - s.indices.begin());
  if (mid == begin || mid == end) return make_leaf();

  // Stable-partition every column's node slice: left ids stay in place in
  // order, right ids go through the spill buffer and follow them.
  for (size_t f = 0; f < num_features_; ++f) {
    uint32_t* column = &s.sorted[f * s.n];
    size_t left = begin;
    size_t right = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t idx = column[i];
      if (s.goes_left[idx] != 0) {
        column[left++] = idx;
      } else {
        s.spill[right++] = idx;
      }
    }
    std::copy(s.spill.begin(), s.spill.begin() + static_cast<ptrdiff_t>(right),
              column + left);
  }

  nodes_[static_cast<size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
  const int left = Build(s, begin, mid, depth + 1);
  nodes_[static_cast<size_t>(node_id)].left = left;
  const int right = Build(s, mid, end, depth + 1);
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

int RegressionTree::PredictLeaf(const double* x, size_t n) const {
  if (nodes_.empty()) return 0;
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    if (static_cast<size_t>(nd.feature) >= n) break;
    node = x[static_cast<size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  const int leaf = nodes_[static_cast<size_t>(node)].leaf_index;
  return leaf >= 0 ? leaf : 0;
}

int RegressionTree::Depth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> depth_of = [&](int node_id) -> int {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (node.feature < 0) return 1;
    return 1 + std::max(depth_of(node.left), depth_of(node.right));
  };
  return depth_of(0);
}

}  // namespace cepshed
