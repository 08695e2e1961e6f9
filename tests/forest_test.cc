// Tests for CART trees, random forests and GBDT.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "forest/gbdt.h"
#include "forest/random_forest.h"
#include "forest/tree.h"
#include "reference_tree.h"

namespace sparktune {
namespace {

// y = step function of x0: 1 if x0 > 0.5 else 0; x1 is noise.
void StepData(int n, std::vector<std::vector<double>>* x,
              std::vector<double>* y, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x->push_back({a, b});
    y->push_back(a > 0.5 ? 1.0 : 0.0);
  }
}

TEST(TreeTest, FitsStepFunctionExactly) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(200, &x, &y, 1);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_NEAR(tree.Predict({0.2, 0.5}), 0.0, 1e-9);
  EXPECT_NEAR(tree.Predict({0.9, 0.5}), 1.0, 1e-9);
}

TEST(TreeTest, RejectsBadInputs) {
  RegressionTree tree;
  EXPECT_FALSE(tree.Fit({}, {}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}}, {1.0, 2.0}).ok());
}

TEST(TreeTest, DepthLimitProducesStumpAtZeroDepth) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(100, &x, &y, 2);
  TreeOptions opts;
  opts.max_depth = 0;
  RegressionTree tree(opts);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_TRUE(tree.nodes()[0].is_leaf);
  EXPECT_NEAR(tree.nodes()[0].value, 0.5, 0.1);
}

TEST(TreeTest, MinSamplesLeafRespected) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(60, &x, &y, 3);
  TreeOptions opts;
  opts.min_samples_leaf = 10;
  RegressionTree tree(opts);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf) {
      EXPECT_GE(node.num_samples, 10);
    }
  }
}

TEST(TreeTest, ImportanceIdentifiesActiveFeature) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(300, &x, &y, 4);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  auto imp = tree.FeatureImportance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 0.9);
  EXPECT_LT(imp[1], 0.1);
}

TEST(TreeTest, FeatureSubsamplingNeedsRng) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(50, &x, &y, 5);
  TreeOptions opts;
  opts.max_features = 1;
  RegressionTree tree(opts);
  EXPECT_FALSE(tree.Fit(x, y).ok());  // no rng provided
  Rng rng(6);
  EXPECT_TRUE(tree.Fit(x, y, {}, &rng).ok());
}

TEST(ForestTest, PredictsSmoothFunction) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(std::sin(3.0 * a) + 0.5 * b);
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double sse = 0.0;
  for (int i = 0; i < 50; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    double pred = forest.Predict({a, b}).mean;
    double truth = std::sin(3.0 * a) + 0.5 * b;
    sse += (pred - truth) * (pred - truth);
  }
  EXPECT_LT(std::sqrt(sse / 50.0), 0.15);
}

TEST(ForestTest, VarianceHigherOffManifold) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(200, &x, &y, 8);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  // Near the decision boundary trees disagree more than deep inside a
  // region.
  double var_boundary = forest.Predict({0.5, 0.5}).variance;
  double var_inside = forest.Predict({0.05, 0.5}).variance;
  EXPECT_GE(var_boundary, var_inside);
}

TEST(ForestTest, ImportanceAggregatesAcrossTrees) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(300, &x, &y, 9);
  ForestOptions opts;
  opts.num_trees = 16;
  RandomForest forest(opts);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  auto imp = forest.FeatureImportance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], imp[1]);
}

TEST(ForestTest, DeterministicForSameSeed) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  StepData(100, &x, &y, 10);
  ForestOptions opts;
  opts.seed = 123;
  RandomForest f1(opts), f2(opts);
  ASSERT_TRUE(f1.Fit(x, y).ok());
  ASSERT_TRUE(f2.Fit(x, y).ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<double> q = {i / 20.0, 0.3};
    EXPECT_DOUBLE_EQ(f1.Predict(q).mean, f2.Predict(q).mean);
  }
}

TEST(GbdtTest, OutperformsSingleShallowTree) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(std::sin(5.0 * a) * std::cos(3.0 * b));
  }
  GbdtRegressor gbdt;
  ASSERT_TRUE(gbdt.Fit(x, y).ok());
  TreeOptions sopts;
  sopts.max_depth = 4;
  RegressionTree shallow(sopts);
  ASSERT_TRUE(shallow.Fit(x, y).ok());
  double sse_gbdt = 0.0, sse_tree = 0.0;
  for (int i = 0; i < 100; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    double truth = std::sin(5.0 * a) * std::cos(3.0 * b);
    sse_gbdt += std::pow(gbdt.Predict({a, b}) - truth, 2);
    sse_tree += std::pow(shallow.Predict({a, b}) - truth, 2);
  }
  EXPECT_LT(sse_gbdt, sse_tree);
}

TEST(GbdtTest, BasePredictionIsTargetMean) {
  GbdtRegressor gbdt;
  ASSERT_TRUE(gbdt.Fit({{0.1}, {0.9}}, {2.0, 4.0}).ok());
  EXPECT_DOUBLE_EQ(gbdt.base_prediction(), 3.0);
}

TEST(GbdtTest, EarlyStopLimitsRounds) {
  // Constant target: no residual improvement after round 1.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back({i / 50.0});
    y.push_back(1.0);
  }
  GbdtOptions opts;
  opts.num_rounds = 200;
  opts.early_stop_rounds = 3;
  GbdtRegressor gbdt(opts);
  ASSERT_TRUE(gbdt.Fit(x, y).ok());
  EXPECT_LT(gbdt.num_trees(), 20);
}

TEST(GbdtTest, RejectsEmpty) {
  GbdtRegressor gbdt;
  EXPECT_FALSE(gbdt.Fit({}, {}).ok());
}

// Rows for the presorted-vs-reference checks. Dense: every value distinct.
// Tied: every feature takes one of four levels, so most split scans cross
// long runs of equal values. Targets stay continuous, so the order of equal
// values shows in the rounding of the scan's sums.
void DenseOrTiedData(bool tied, int n, int nf, uint64_t seed,
                     std::vector<std::vector<double>>* x,
                     std::vector<double>* y) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(nf));
    for (auto& v : row) {
      v = tied ? std::floor(rng.Uniform() * 4.0) / 4.0 : rng.Uniform();
    }
    y->push_back(std::sin(4.0 * row[0]) + row[1] * row[2] +
                 0.1 * rng.Normal());
    x->push_back(std::move(row));
  }
}

TEST(PresortedTreeTest, SingleTreeMatchesSortPerNodeReference) {
  for (bool tied : {false, true}) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    DenseOrTiedData(tied, 150, 6, tied ? 31 : 32, &x, &y);
    TreeOptions opts;
    opts.min_samples_leaf = 1;
    opts.min_samples_split = 2;
    // All rows, then a bootstrap sample with repeated rows.
    Rng draw(33);
    std::vector<int> bootstrap(120);
    for (int& s : bootstrap) s = static_cast<int>(draw.UniformInt(0, 149));
    for (const std::vector<int>& sample : {std::vector<int>{}, bootstrap}) {
      RegressionTree tree(opts);
      ASSERT_TRUE(tree.Fit(x, y, sample).ok());
      reference::SortPerNodeTree ref(opts);
      ref.Fit(x, y, sample, nullptr);
      EXPECT_GT(ref.nodes().size(), 20u);
      EXPECT_TRUE(reference::SameNodes(tree.nodes(), ref.nodes()))
          << "tied=" << tied << " sample=" << sample.size();
    }
  }
}

TEST(PresortedTreeTest, FeatureSubsamplingDrawsTheReferenceRngStream) {
  for (bool tied : {false, true}) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    DenseOrTiedData(tied, 120, 8, 41, &x, &y);
    TreeOptions opts;
    opts.max_features = 3;
    Rng rng_a(42), rng_b(42);
    RegressionTree tree(opts);
    ASSERT_TRUE(tree.Fit(x, y, {}, &rng_a).ok());
    reference::SortPerNodeTree ref(opts);
    ref.Fit(x, y, {}, &rng_b);
    EXPECT_TRUE(reference::SameNodes(tree.nodes(), ref.nodes()));
    // Both consumed the same number of draws.
    EXPECT_EQ(rng_a.Next(), rng_b.Next());
  }
}

TEST(PresortedTreeTest, GbdtWithRowSubsampleMatchesReference) {
  for (bool tied : {false, true}) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    DenseOrTiedData(tied, 90, 10, 51, &x, &y);
    GbdtOptions opts;
    opts.num_rounds = 40;
    opts.subsample = 0.7;
    opts.tree.max_features = 4;
    GbdtRegressor gbdt(opts);
    ASSERT_TRUE(gbdt.Fit(x, y).ok());
    EXPECT_TRUE(reference::SameTrees(gbdt.trees(),
                                     reference::FitGbdt(opts, x, y)))
        << "tied=" << tied;
  }
}

TEST(PresortedTreeTest, ForestWithBootstrapAndFeatureBaggingMatchesReference) {
  for (bool tied : {false, true}) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    DenseOrTiedData(tied, 100, 9, 61, &x, &y);
    ForestOptions opts;
    opts.num_trees = 12;
    opts.bootstrap_fraction = 0.9;
    RandomForest forest(opts);
    ASSERT_TRUE(forest.Fit(x, y).ok());
    EXPECT_TRUE(reference::SameTrees(forest.trees(),
                                     reference::FitForest(opts, x, y)))
        << "tied=" << tied;
  }
}

TEST(PresortedTreeTest, ThirtyTwoBitRowIdsMatchReference) {
  // More rows than 16-bit row ids can address: the presort switches to
  // 32-bit storage. Tied values, a bootstrap sample with repeats.
  const int n = 66000;
  Rng rng(81);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < n; ++i) {
    double a = std::floor(rng.Uniform() * 50.0), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back(std::sin(a / 8.0) + b + 0.1 * rng.Normal());
  }
  std::vector<int> bootstrap(static_cast<size_t>(n));
  for (int& s : bootstrap) s = static_cast<int>(rng.UniformInt(0, n - 1));
  TreeOptions opts;
  opts.max_depth = 4;
  RegressionTree tree(opts);
  ASSERT_TRUE(tree.Fit(x, y, bootstrap).ok());
  reference::SortPerNodeTree ref(opts);
  ref.Fit(x, y, bootstrap, nullptr);
  EXPECT_EQ(ref.nodes().size(), 31u);
  EXPECT_TRUE(reference::SameNodes(tree.nodes(), ref.nodes()));
}

TEST(PresortedTreeTest, EqualValuesAccumulateInRowOrder) {
  // One feature with two tied levels, rows interleaved. The documented
  // scan order is (value, row): rows 1, 3, 4 (value 0) then 0, 2, 5
  // (value 1). The targets make the split's SSE depend on that order in
  // the last bits.
  const std::vector<std::vector<double>> x = {{1}, {0}, {1}, {0}, {0}, {1}};
  const std::vector<double> y = {0.7, 0.1, 1.1, 0.2, 0.3, 2.3};
  auto split_sse = [&](const std::vector<size_t>& order) {
    double total_sum = 0.0, total_sq = 0.0;
    for (size_t r : order) {
      total_sum += y[r];
      total_sq += y[r] * y[r];
    }
    double left_sum = 0.0, left_sq = 0.0;
    for (size_t k = 0; k < 3; ++k) {
      left_sum += y[order[k]];
      left_sq += y[order[k]] * y[order[k]];
    }
    double right_sum = total_sum - left_sum, right_sq = total_sq - left_sq;
    return (left_sq - left_sum * left_sum / 3.0) +
           (right_sq - right_sum * right_sum / 3.0);
  };
  double sum = 0.0, sq = 0.0;
  for (double v : y) {
    sum += v;
    sq += v * v;
  }
  const double node_sse = sq - sum * (sum / 6.0);
  const double pinned = node_sse - split_sse({1, 3, 4, 0, 2, 5});
  const double reversed = node_sse - split_sse({4, 3, 1, 5, 2, 0});
  ASSERT_NE(pinned, reversed);  // the order is observable
  EXPECT_EQ(pinned, 0x1.0555555555555p+1);

  TreeOptions opts;
  opts.max_depth = 1;
  opts.min_samples_leaf = 1;
  opts.min_samples_split = 2;
  RegressionTree tree(opts);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  ASSERT_EQ(tree.nodes().size(), 3u);
  const RegressionTree::Node& root = tree.nodes()[0];
  EXPECT_EQ(root.feature, 0);
  EXPECT_EQ(root.threshold, 0.5);
  EXPECT_EQ(root.impurity_decrease, pinned);
  EXPECT_EQ(tree.nodes()[static_cast<size_t>(root.left)].num_samples, 3);
}

TEST(PresortedTreeTest, RejectsRaggedRowsAndOutOfRangeSamples) {
  RegressionTree tree;
  EXPECT_FALSE(tree.Fit({{1.0, 2.0}, {3.0}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}, {2.0}}, {1.0, 2.0}, {0, 2}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}, {2.0}}, {1.0, 2.0}, {-1}).ok());
}

TEST(PresortedTreeTest, ForestAndGbdtIdenticalAtOneAndFourThreads) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  DenseOrTiedData(true, 120, 7, 71, &x, &y);
  ForestOptions fopts;
  fopts.num_trees = 16;
  GbdtOptions gopts;
  gopts.num_rounds = 30;
  std::vector<std::vector<reference::Nodes>> forests, boosted;
  for (int nt : {1, 4}) {
    fopts.num_threads = nt;
    gopts.num_threads = nt;
    RandomForest forest(fopts);
    ASSERT_TRUE(forest.Fit(x, y).ok());
    GbdtRegressor gbdt(gopts);
    ASSERT_TRUE(gbdt.Fit(x, y).ok());
    forests.emplace_back();
    for (const auto& t : forest.trees()) forests.back().push_back(t.nodes());
    boosted.emplace_back();
    for (const auto& t : gbdt.trees()) boosted.back().push_back(t.nodes());
  }
  ASSERT_EQ(boosted[0].size(), boosted[1].size());
  ASSERT_EQ(forests[0].size(), forests[1].size());
  for (size_t t = 0; t < forests[0].size(); ++t) {
    EXPECT_TRUE(reference::SameNodes(forests[0][t], forests[1][t]));
  }
  for (size_t t = 0; t < boosted[0].size(); ++t) {
    EXPECT_TRUE(reference::SameNodes(boosted[0][t], boosted[1][t]));
  }
}

}  // namespace
}  // namespace sparktune
