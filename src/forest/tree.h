// CART regression tree: exact greedy variance-reduction splits. Exposes its
// node structure so fANOVA can walk leaf cells and compute marginals.
//
// Split search is presorted: every feature's rows are sorted once, in
// (value, row index) order, into a SortedFeatures that all trees fit on the
// same rows share (every GBDT round, every forest tree). Each tree keeps one
// sorted segment per feature and stably partitions the segments down the
// tree, so the scan at each node is a linear pass over rows already in
// order. Ties between equal feature values break on the row index; the
// prefix sums the scan accumulates, and so every split, follow that order.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace sparktune {

struct TreeOptions {
  int max_depth = 14;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  // Features considered per split; -1 = all (set by RandomForest for
  // feature bagging).
  int max_features = -1;
};

// Every feature's rows of `x` in ascending (value, row index) order, plus
// each row's dense rank per feature (equal values share a rank, so the split
// scan detects ties without touching `x`). Keeps a pointer to `x`, which
// must outlive it.
class SortedFeatures {
 public:
  // Both arrays are feature-major with num_rows() entries per feature:
  // order[f * rows + k] is feature f's k-th row in (value, row) order, and
  // rank[f * rows + row] is that row's dense rank for feature f.
  template <typename Index>
  struct Columns {
    std::vector<Index> order;
    std::vector<Index> rank;
  };
  // Row ids and ranks take 16 bits when every row id fits (4 bytes per
  // (row, feature) cell in all), 32 bits otherwise.
  using Storage = std::variant<Columns<uint16_t>, Columns<uint32_t>>;

  // Needs at least one row, every row the same width.
  static Result<SortedFeatures> Build(
      const std::vector<std::vector<double>>& x);

  const std::vector<std::vector<double>>& x() const { return *x_; }
  size_t num_rows() const { return rows_; }
  size_t num_features() const { return features_; }
  const Storage& columns() const { return columns_; }

 private:
  SortedFeatures() = default;

  const std::vector<std::vector<double>>* x_ = nullptr;
  size_t rows_ = 0;
  size_t features_ = 0;
  Storage columns_;
};

class RegressionTree {
 public:
  struct Node {
    bool is_leaf = true;
    int feature = -1;
    double threshold = 0.0;
    int left = -1;   // node index, x[feature] <= threshold
    int right = -1;  // node index, x[feature] >  threshold
    double value = 0.0;  // leaf prediction (mean of samples)
    int num_samples = 0;
    // SSE decrease achieved by this node's split (0 for leaves); basis of
    // impurity feature importance.
    double impurity_decrease = 0.0;
  };

  explicit RegressionTree(TreeOptions options = {});

  // Fit on rows `x` (all the same width) and targets `y`. `sample_indices`
  // selects a bootstrap subset (empty = all rows; repeated rows count once
  // per occurrence). `rng` drives feature subsampling; required when
  // options.max_features != -1.
  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y,
             const std::vector<int>& sample_indices = {},
             Rng* rng = nullptr);
  // Same fit over a presort shared with other trees on the same rows.
  Status Fit(const SortedFeatures& sorted, const std::vector<double>& y,
             const std::vector<int>& sample_indices, Rng* rng);

  double Predict(const std::vector<double>& x) const;

  // Total impurity (SSE) decrease attributed to each feature, normalized to
  // sum to 1 (all zeros for a stump).
  std::vector<double> FeatureImportance() const;

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return nodes_.empty() ? -1 : 0; }
  size_t num_features() const { return num_features_; }

 private:
  template <typename Index>
  class Builder;

  TreeOptions options_;
  std::vector<Node> nodes_;
  size_t num_features_ = 0;
};

}  // namespace sparktune
