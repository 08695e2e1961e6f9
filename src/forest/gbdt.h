// Gradient-boosted regression trees (least-squares boosting) — the
// LightGBM stand-in for the meta-learner's task-similarity regressor
// (paper §5.1).
#pragma once

#include <vector>

#include "common/result.h"
#include "forest/tree.h"

namespace sparktune {

struct GbdtOptions {
  int num_rounds = 120;
  double learning_rate = 0.08;
  TreeOptions tree = {.max_depth = 4, .min_samples_leaf = 4,
                      .min_samples_split = 8, .max_features = -1};
  // Row subsampling per round (stochastic gradient boosting).
  double subsample = 0.8;
  uint64_t seed = 23;
  // Stop early when training RMSE improvement stalls for this many rounds
  // (0 disables).
  int early_stop_rounds = 0;
  // Threads for the per-round training-prediction refresh and for batched
  // inference: 1 = serial, 0 = global pool default width, k > 1 = up to k
  // threads. Bit-identical at any setting (each row owns its slot).
  int num_threads = 1;
};

class GbdtRegressor {
 public:
  explicit GbdtRegressor(GbdtOptions options = {});

  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y);

  double Predict(const std::vector<double>& x) const;

  // Batched scoring: candidate chunks walk the boosted trees in the outer
  // loop so each tree stays cache-hot across the chunk. out[i] equals
  // Predict(xs[i]) bit-for-bit (same per-candidate accumulation order).
  std::vector<double> PredictBatch(
      const std::vector<std::vector<double>>& xs) const;

  int num_trees() const { return static_cast<int>(trees_.size()); }
  double base_prediction() const { return base_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }

 private:
  GbdtOptions options_;
  double base_ = 0.0;
  std::vector<RegressionTree> trees_;
};

}  // namespace sparktune
