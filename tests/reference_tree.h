// The sort-per-node exact CART reference that src/forest/tree.cc's
// presorted builder must reproduce bit-for-bit, plus GBDT and random-forest
// drivers that mirror GbdtRegressor::Fit and RandomForest::Fit around it.
// Header-only; shared by tests/forest_test.cc and bench/bench_kernels.cpp
// (the tree_fit and forest_fit kernels). Nothing in src/ uses it.
//
// At every node the reference copies the node's index list, sorts it by
// (feature value, row index) for every candidate feature and scans the
// sorted order for the best variance-reduction threshold: O(n log n) per
// node per feature, which is what the presorted builder removes.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "forest/gbdt.h"
#include "forest/random_forest.h"
#include "forest/tree.h"

namespace sparktune::reference {

using Rows = std::vector<std::vector<double>>;
using Nodes = std::vector<RegressionTree::Node>;

class SortPerNodeTree {
 public:
  explicit SortPerNodeTree(TreeOptions options) : options_(options) {}

  void Fit(const Rows& x, const std::vector<double>& y,
           const std::vector<int>& sample_indices, Rng* rng) {
    num_features_ = x[0].size();
    nodes_.clear();
    std::vector<int> indices = sample_indices;
    if (indices.empty()) {
      indices.resize(x.size());
      std::iota(indices.begin(), indices.end(), 0);
    }
    Build(x, y, indices, 0, rng);
  }

  double Predict(const std::vector<double>& x) const {
    size_t cur = 0;
    while (!nodes_[cur].is_leaf) {
      const RegressionTree::Node& n = nodes_[cur];
      cur = static_cast<size_t>(
          x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right);
    }
    return nodes_[cur].value;
  }

  const Nodes& nodes() const { return nodes_; }

 private:
  struct Split {
    bool found = false;
    int feature = -1;
    double threshold = 0.0;
    double score = std::numeric_limits<double>::infinity();
  };

  static void BestSplitForFeature(const Rows& x, const std::vector<double>& y,
                                  const std::vector<int>& indices, int feature,
                                  int min_leaf, Split* best) {
    const size_t f = static_cast<size_t>(feature);
    std::vector<int> order(indices);
    // The pinned tie order: equal values break on the row index.
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double va = x[static_cast<size_t>(a)][f];
      const double vb = x[static_cast<size_t>(b)][f];
      return va < vb || (!(vb < va) && a < b);
    });
    const size_t n = order.size();
    double total_sum = 0.0, total_sq = 0.0;
    for (int i : order) {
      total_sum += y[static_cast<size_t>(i)];
      total_sq += y[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
    }
    double left_sum = 0.0, left_sq = 0.0;
    for (size_t k = 0; k + 1 < n; ++k) {
      double yi = y[static_cast<size_t>(order[k])];
      left_sum += yi;
      left_sq += yi * yi;
      double xv = x[static_cast<size_t>(order[k])][f];
      double xn = x[static_cast<size_t>(order[k + 1])][f];
      if (xn <= xv) continue;
      size_t nl = k + 1, nr = n - nl;
      if (nl < static_cast<size_t>(min_leaf) ||
          nr < static_cast<size_t>(min_leaf)) {
        continue;
      }
      double right_sum = total_sum - left_sum;
      double right_sq = total_sq - left_sq;
      double sse_left = left_sq - left_sum * left_sum / static_cast<double>(nl);
      double sse_right =
          right_sq - right_sum * right_sum / static_cast<double>(nr);
      double score = sse_left + sse_right;
      if (score < best->score - 1e-15) {
        best->found = true;
        best->feature = feature;
        best->threshold = 0.5 * (xv + xn);
        best->score = score;
      }
    }
  }

  int Build(const Rows& x, const std::vector<double>& y,
            std::vector<int>& indices, int depth, Rng* rng) {
    int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    double sum = 0.0, sq = 0.0;
    for (int i : indices) {
      sum += y[static_cast<size_t>(i)];
      sq += y[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
    }
    double mean = sum / static_cast<double>(indices.size());
    double node_sse = sq - sum * mean;
    nodes_.back().value = mean;
    nodes_.back().num_samples = static_cast<int>(indices.size());
    if (depth >= options_.max_depth ||
        static_cast<int>(indices.size()) < options_.min_samples_split) {
      return node_id;
    }
    std::vector<int> features;
    int nf = static_cast<int>(num_features_);
    if (options_.max_features > 0 && options_.max_features < nf) {
      features = rng->SampleWithoutReplacement(nf, options_.max_features);
    } else {
      features.resize(static_cast<size_t>(nf));
      std::iota(features.begin(), features.end(), 0);
    }
    Split best;
    for (int f : features) {
      BestSplitForFeature(x, y, indices, f, options_.min_samples_leaf, &best);
    }
    if (!best.found) return node_id;
    std::vector<int> left_idx, right_idx;
    for (int i : indices) {
      if (x[static_cast<size_t>(i)][static_cast<size_t>(best.feature)] <=
          best.threshold) {
        left_idx.push_back(i);
      } else {
        right_idx.push_back(i);
      }
    }
    if (left_idx.empty() || right_idx.empty()) return node_id;
    int left = Build(x, y, left_idx, depth + 1, rng);
    int right = Build(x, y, right_idx, depth + 1, rng);
    RegressionTree::Node& node = nodes_[static_cast<size_t>(node_id)];
    node.is_leaf = false;
    node.feature = best.feature;
    node.threshold = best.threshold;
    node.left = left;
    node.right = right;
    node.impurity_decrease = std::max(0.0, node_sse - best.score);
    return node_id;
  }

  TreeOptions options_;
  Nodes nodes_;
  size_t num_features_ = 0;
};

// GbdtRegressor::Fit's boosting loop around the reference tree: same base,
// residual refresh, per-round RNG fork, row subsample and early stop.
inline std::vector<Nodes> FitGbdt(const GbdtOptions& options, const Rows& x,
                                  const std::vector<double>& y) {
  std::vector<Nodes> trees;
  const double base = Mean(y);
  std::vector<double> pred(y.size(), base);
  std::vector<double> residual(y.size());
  Rng rng(options.seed);
  double best_rmse = std::numeric_limits<double>::infinity();
  int stall = 0;
  int n = static_cast<int>(x.size());
  int sub_n = std::max(2, static_cast<int>(options.subsample * n));
  for (int round = 0; round < options.num_rounds; ++round) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
    Rng round_rng = rng.Fork();
    std::vector<int> sample;
    if (sub_n < n) sample = round_rng.SampleWithoutReplacement(n, sub_n);
    SortPerNodeTree tree(options.tree);
    tree.Fit(x, residual, sample, &round_rng);
    for (size_t i = 0; i < y.size(); ++i) {
      pred[i] += options.learning_rate * tree.Predict(x[i]);
    }
    trees.push_back(tree.nodes());
    if (options.early_stop_rounds > 0) {
      double sse = 0.0;
      for (size_t i = 0; i < y.size(); ++i) {
        double e = y[i] - pred[i];
        sse += e * e;
      }
      double rmse = std::sqrt(sse / static_cast<double>(y.size()));
      if (rmse < best_rmse - 1e-9) {
        best_rmse = rmse;
        stall = 0;
      } else if (++stall >= options.early_stop_rounds) {
        break;
      }
    }
  }
  return trees;
}

// RandomForest::Fit around the reference tree: same feature fraction,
// per-tree RNG forks and bootstrap draws (duplicate rows included).
inline std::vector<Nodes> FitForest(const ForestOptions& options,
                                    const Rows& x,
                                    const std::vector<double>& y) {
  int nf = static_cast<int>(x[0].size());
  int max_features =
      options.feature_fraction > 0.0
          ? std::max(1, static_cast<int>(options.feature_fraction * nf))
          : std::max(1, static_cast<int>(std::sqrt(nf)));
  Rng rng(options.seed);
  int n = static_cast<int>(x.size());
  int boot_n = std::max(1, static_cast<int>(options.bootstrap_fraction * n));
  TreeOptions topts = options.tree;
  topts.max_features = max_features < nf ? max_features : -1;
  std::vector<Rng> tree_rngs =
      ForkRngs(&rng, static_cast<size_t>(options.num_trees));
  std::vector<Nodes> trees;
  for (Rng& tree_rng : tree_rngs) {
    std::vector<int> sample(static_cast<size_t>(boot_n));
    for (auto& s : sample) s = static_cast<int>(tree_rng.UniformInt(0, n - 1));
    SortPerNodeTree tree(topts);
    tree.Fit(x, y, sample, &tree_rng);
    trees.push_back(tree.nodes());
  }
  return trees;
}

// Bit-level node equality: every field, doubles compared by their bits.
inline bool SameNode(const RegressionTree::Node& a,
                     const RegressionTree::Node& b) {
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  return a.is_leaf == b.is_leaf && a.feature == b.feature &&
         bits(a.threshold) == bits(b.threshold) && a.left == b.left &&
         a.right == b.right && bits(a.value) == bits(b.value) &&
         a.num_samples == b.num_samples &&
         bits(a.impurity_decrease) == bits(b.impurity_decrease);
}

inline bool SameNodes(const Nodes& a, const Nodes& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameNode(a[i], b[i])) return false;
  }
  return true;
}

inline bool SameTrees(const std::vector<RegressionTree>& fitted,
                      const std::vector<Nodes>& reference) {
  if (fitted.size() != reference.size()) return false;
  for (size_t t = 0; t < fitted.size(); ++t) {
    if (!SameNodes(fitted[t].nodes(), reference[t])) return false;
  }
  return true;
}

}  // namespace sparktune::reference
