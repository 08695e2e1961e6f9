// E12: google-benchmark micro-benchmarks for the core computational
// kernels — GP fit/predict scaling, acquisition optimization, one simulated
// Spark execution, fANOVA decomposition, meta-feature extraction and the
// similarity regressor.
#include <benchmark/benchmark.h>

#include "bo/acq_optimizer.h"
#include "bo/acquisition.h"
#include "common/rng.h"
#include "fanova/fanova.h"
#include "forest/gbdt.h"
#include "meta/meta_features.h"
#include "model/features.h"
#include "model/gp.h"
#include "sparksim/hibench.h"
#include "sparksim/runtime_model.h"

namespace sparktune {
namespace {

std::vector<std::vector<double>> RandomRows(int n, int dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> x;
  x.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(dims));
    for (auto& v : row) v = rng.Uniform();
    x.push_back(std::move(row));
  }
  return x;
}

std::vector<double> Targets(const std::vector<std::vector<double>>& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) {
    double acc = 0.0;
    for (size_t d = 0; d < row.size(); ++d) acc += (d + 1) * row[d] * row[d];
    y.push_back(acc);
  }
  return y;
}

void BM_GpFit(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto x = RandomRows(n, 31, 1);
  auto y = Targets(x);
  std::vector<FeatureKind> schema(31, FeatureKind::kNumeric);
  for (auto _ : state) {
    GaussianProcess gp(schema);
    benchmark::DoNotOptimize(gp.Fit(x, y));
  }
}
BENCHMARK(BM_GpFit)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_GpPredict(benchmark::State& state) {
  auto x = RandomRows(40, 31, 2);
  auto y = Targets(x);
  std::vector<FeatureKind> schema(31, FeatureKind::kNumeric);
  GaussianProcess gp(schema);
  (void)gp.Fit(x, y);
  auto q = RandomRows(1, 31, 3)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.Predict(q));
  }
}
BENCHMARK(BM_GpPredict);

void BM_AcquisitionMaximize(benchmark::State& state) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  auto schema = BuildFeatureSchema(space, 0);
  auto configs = RandomRows(25, static_cast<int>(space.size()), 4);
  auto y = Targets(configs);
  GaussianProcess gp(schema);
  (void)gp.Fit(configs, y);
  EicAcquisition acq(&gp, y[0]);
  Subspace full = Subspace::Full(&space);
  AcquisitionOptimizer opt;
  Rng rng(5);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        opt.Maximize(full, encode, acq, {}, nullptr, &rng));
  }
}
BENCHMARK(BM_AcquisitionMaximize);

void BM_SimulatorExecute(benchmark::State& state) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  SparkSimulator sim(cluster);
  auto w = HiBenchTask("TeraSort");
  SparkConf conf = DecodeSparkConf(space, space.Default());
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Execute(*w, conf, w->input_gb, seed++));
  }
}
BENCHMARK(BM_SimulatorExecute);

void BM_Fanova30d(benchmark::State& state) {
  auto x = RandomRows(60, 30, 6);
  auto y = Targets(x);
  FanovaOptions opts;
  opts.compute_pairwise = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fanova::Analyze(x, y, opts));
  }
}
BENCHMARK(BM_Fanova30d);

void BM_MetaFeatureExtraction(benchmark::State& state) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  SparkSimulator sim(cluster);
  auto w = HiBenchTask("PageRank");
  SparkConf conf = DecodeSparkConf(space, space.Default());
  EventLog log = sim.Execute(*w, conf, w->input_gb, 7).event_log;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractMetaFeatures(log));
  }
}
BENCHMARK(BM_MetaFeatureExtraction);

void BM_GbdtFit(benchmark::State& state) {
  auto x = RandomRows(200, 75 * 3, 8);
  auto y = Targets(x);
  for (auto _ : state) {
    GbdtRegressor gbdt;
    benchmark::DoNotOptimize(gbdt.Fit(x, y));
  }
}
BENCHMARK(BM_GbdtFit);

}  // namespace
}  // namespace sparktune

BENCHMARK_MAIN();
