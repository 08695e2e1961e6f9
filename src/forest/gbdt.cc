#include "forest/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace sparktune {

GbdtRegressor::GbdtRegressor(GbdtOptions options) : options_(options) {}

Status GbdtRegressor::Fit(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("gbdt needs matching non-empty X and y");
  }
  // One presort serves every round: rounds change only the targets and
  // the row subsample.
  SPARKTUNE_ASSIGN_OR_RETURN(sorted, SortedFeatures::Build(x));
  trees_.clear();
  base_ = Mean(y);
  std::vector<double> pred(y.size(), base_);
  std::vector<double> residual(y.size());
  Rng rng(options_.seed);

  double best_rmse = std::numeric_limits<double>::infinity();
  int stall = 0;
  int n = static_cast<int>(x.size());
  int sub_n = std::max(2, static_cast<int>(options_.subsample * n));

  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - pred[i];
    Rng round_rng = rng.Fork();
    std::vector<int> sample;
    if (sub_n < n) {
      sample = round_rng.SampleWithoutReplacement(n, sub_n);
    }
    RegressionTree tree(options_.tree);
    SPARKTUNE_RETURN_IF_ERROR(tree.Fit(sorted, residual, sample, &round_rng));
    // Each row owns its slot, so refreshing the training predictions in
    // parallel is bit-identical to the serial loop.
    ParallelFor(options_.num_threads, y.size(), [&](size_t i) {
      pred[i] += options_.learning_rate * tree.Predict(x[i]);
    });
    trees_.push_back(std::move(tree));

    if (options_.early_stop_rounds > 0) {
      double sse = 0.0;
      for (size_t i = 0; i < y.size(); ++i) {
        double e = y[i] - pred[i];
        sse += e * e;
      }
      double rmse = std::sqrt(sse / static_cast<double>(y.size()));
      if (rmse < best_rmse - 1e-9) {
        best_rmse = rmse;
        stall = 0;
      } else if (++stall >= options_.early_stop_rounds) {
        break;
      }
    }
  }
  return Status::OK();
}

double GbdtRegressor::Predict(const std::vector<double>& x) const {
  double out = base_;
  for (const auto& tree : trees_) {
    out += options_.learning_rate * tree.Predict(x);
  }
  return out;
}

std::vector<double> GbdtRegressor::PredictBatch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<double> out(xs.size(), base_);
  if (xs.empty() || trees_.empty()) return out;
  const size_t m = xs.size();
  constexpr size_t kChunk = 64;
  const size_t num_chunks = (m + kChunk - 1) / kChunk;
  ParallelFor(options_.num_threads, num_chunks, [&](size_t c) {
    const size_t j0 = c * kChunk;
    const size_t j1 = std::min(m, j0 + kChunk);
    for (const auto& tree : trees_) {
      for (size_t j = j0; j < j1; ++j) {
        out[j] += options_.learning_rate * tree.Predict(xs[j]);
      }
    }
  });
  return out;
}

}  // namespace sparktune
