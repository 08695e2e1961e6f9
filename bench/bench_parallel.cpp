// Parallel suggestion-engine benchmark: times the GP hyper-sweep fit, the
// random-forest fit, fANOVA, and acquisition maximization at 1 thread vs a
// wide setting, verifies the outputs are bit-identical, and reports the
// speedups. On a single-core container the speedup collapses to ~1x (the
// pool still runs the parallel code paths); on 4+ cores the GP sweep and
// forest fit should clear 2x.
//
// Usage: bench_parallel --threads=N   (default: min(4, DefaultThreads()))
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bo/acq_optimizer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fanova/fanova.h"
#include "forest/random_forest.h"
#include "model/gp.h"

namespace sparktune {
namespace {

double NowSec() {
  using clock = std::chrono::steady_clock;
  // lint:allow(no-wall-clock) benchmark wall-time reporting only; never feeds tuner results
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Dataset {
  std::vector<FeatureKind> schema;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

// Spark-shaped data: 31 features (28 numeric, 2 categorical, 1 data size).
Dataset MakeDataset(size_t n, uint64_t seed) {
  Dataset d;
  for (int i = 0; i < 28; ++i) d.schema.push_back(FeatureKind::kNumeric);
  d.schema.push_back(FeatureKind::kCategorical);
  d.schema.push_back(FeatureKind::kCategorical);
  d.schema.push_back(FeatureKind::kDataSize);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(d.schema.size());
    for (size_t k = 0; k < row.size(); ++k) {
      row[k] = d.schema[k] == FeatureKind::kCategorical
                   ? (rng.Bernoulli(0.5) ? 1.0 : 0.0)
                   : rng.Uniform();
    }
    double y = 100.0;
    for (size_t k = 0; k < 6; ++k) y += 10.0 * std::sin(3.0 * row[k]);
    y += 20.0 * row.back() + rng.Normal();
    d.x.push_back(std::move(row));
    d.y.push_back(y);
  }
  return d;
}

struct Timing {
  double serial_sec = 0.0;
  double parallel_sec = 0.0;
  bool identical = false;
};

void Report(const char* name, const Timing& t) {
  std::printf("%-28s serial %8.3fs  parallel %8.3fs  speedup %5.2fx  %s\n",
              name, t.serial_sec, t.parallel_sec,
              t.parallel_sec > 0 ? t.serial_sec / t.parallel_sec : 0.0,
              t.identical ? "outputs identical" : "OUTPUTS DIFFER");
}

Timing BenchGp(const Dataset& d, int threads) {
  auto fit = [&](int nt, std::vector<double>* out) {
    GpOptions opts;
    opts.num_threads = nt;
    GaussianProcess gp(d.schema, opts);
    double t0 = NowSec();
    if (!gp.Fit(d.x, d.y).ok()) std::abort();
    double dt = NowSec() - t0;
    out->assign({gp.kernel_params().length_numeric,
                 gp.kernel_params().noise_variance,
                 gp.log_marginal_likelihood(), gp.Predict(d.x[0]).mean});
    return dt;
  };
  Timing t;
  std::vector<double> a, b;
  t.serial_sec = fit(1, &a);
  t.parallel_sec = fit(threads, &b);
  t.identical = a == b;
  return t;
}

Timing BenchForest(const Dataset& d, int threads) {
  auto fit = [&](int nt, std::vector<double>* out) {
    ForestOptions opts;
    opts.num_trees = 64;
    opts.num_threads = nt;
    RandomForest rf(opts);
    double t0 = NowSec();
    if (!rf.Fit(d.x, d.y).ok()) std::abort();
    double dt = NowSec() - t0;
    *out = rf.FeatureImportance();
    out->push_back(rf.Predict(d.x[0]).mean);
    return dt;
  };
  Timing t;
  std::vector<double> a, b;
  t.serial_sec = fit(1, &a);
  t.parallel_sec = fit(threads, &b);
  t.identical = a == b;
  return t;
}

Timing BenchFanova(const Dataset& d, int threads) {
  auto analyze = [&](int nt, std::vector<double>* out) {
    FanovaOptions opts;
    opts.forest.num_threads = nt;
    double t0 = NowSec();
    auto r = Fanova::Analyze(d.x, d.y, opts);
    double dt = NowSec() - t0;
    if (!r.ok()) std::abort();
    *out = r->CombinedImportance();
    out->push_back(r->total_variance);
    return dt;
  };
  Timing t;
  std::vector<double> a, b;
  t.serial_sec = analyze(1, &a);
  t.parallel_sec = analyze(threads, &b);
  t.identical = a == b;
  return t;
}

Timing BenchAcquisition(const Dataset& d, int threads) {
  ConfigSpace space;
  for (size_t k = 0; k < d.schema.size(); ++k) {
    if (!space.Add(Parameter::Float("p" + std::to_string(k), 0.0, 1.0, 0.5))
             .ok()) {
      std::abort();
    }
  }
  GaussianProcess gp(d.schema, {});
  if (!gp.Fit(d.x, d.y).ok()) std::abort();
  EicAcquisition acq(&gp, d.y[0]);
  Subspace full = Subspace::Full(&space);
  auto encode = [&](const Configuration& c) { return space.ToUnit(c); };
  RunHistory history;
  Rng hist_rng(7);
  for (size_t i = 0; i < 10; ++i) {
    Observation o;
    o.config = full.Sample(&hist_rng);
    o.feasible = true;
    history.Add(o);
  }
  auto maximize = [&](int nt, std::vector<double>* out) {
    AcqOptOptions opts;
    opts.num_candidates = 1024;
    opts.num_local_starts = 8;
    opts.local_steps = 32;
    opts.num_threads = nt;
    AcquisitionOptimizer opt(opts);
    Rng rng(42);
    double t0 = NowSec();
    AcqOptResult r =
        opt.Maximize(full, encode, acq, {}, &history, &rng);
    double dt = NowSec() - t0;
    out->assign(r.config.values().begin(), r.config.values().end());
    out->push_back(r.acq_value);
    return dt;
  };
  Timing t;
  std::vector<double> a, b;
  t.serial_sec = maximize(1, &a);
  t.parallel_sec = maximize(threads, &b);
  t.identical = a == b;
  return t;
}

}  // namespace
}  // namespace sparktune

int main(int argc, char** argv) {
  using namespace sparktune;
  bench::Flags flags(argc, argv);
  int threads = flags.Threads(std::min(4, ThreadPool::DefaultThreads()));
  if (!flags.Validate()) return 1;
  if (threads < 2) threads = 2;
  std::printf("bench_parallel: %d threads (hardware default %d)\n\n", threads,
              ThreadPool::DefaultThreads());

  Dataset gp_data = MakeDataset(60, 11);
  Dataset rf_data = MakeDataset(200, 12);
  Dataset fanova_data = MakeDataset(120, 13);

  Timing gp = BenchGp(gp_data, threads);
  Report("gp hyper-sweep fit (n=60)", gp);
  Timing rf = BenchForest(rf_data, threads);
  Report("forest fit (64 trees)", rf);
  Timing fn = BenchFanova(fanova_data, threads);
  Report("fanova (24 trees)", fn);
  Timing ac = BenchAcquisition(gp_data, threads);
  Report("acquisition maximize", ac);

  bool all_identical =
      gp.identical && rf.identical && fn.identical && ac.identical;
  std::printf("\n%s\n", all_identical
                            ? "all parallel outputs match serial bit-for-bit"
                            : "MISMATCH: parallel output differs from serial");
  return all_identical ? 0 : 1;
}
