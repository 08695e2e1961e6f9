// Hot-kernel microbenchmarks with built-in bit-equality self-checks: each
// optimized kernel (panelled upper solve, register-tiled SYRK
// factorization, columnar MixedKernel batch rows, parallel meta-feature
// extraction, presorted tree fits) is timed against its naive reference
// loop and verified bit-for-bit against it — the determinism invariant is
// part of the benchmark contract, not a separate test.
//
// The tree kernels time the presorted CART builder against the
// sort-per-node reference (tests/reference_tree.h) and compare every node:
// tree_fit is the similarity model's GBDT (150 rounds, depth 4) on
// symmetrized pair features of 16 tasks (272 rows x 225 heavily tied
// features); forest_fit is a bagged forest on tied data with duplicate
// bootstrap rows and feature subsampling. Self-check mode shrinks both.
//
// The candidate-scoring kernels time what the acquisition optimizer runs
// per candidate: resource_rate is SimulatorEvaluator::ResourceRate
// (resolved-index SparkConfLayout decode) against the by-name decoder,
// and encode is Advisor::Encode (cached log bounds, one allocation)
// against the closed-form unit codec plus a separate context vector
// (tests/reference_codec.h); both over 64 x m random production-group
// configurations (m in self-check mode).
//
// Outputs a table and BENCH_kernels.json (schema self-checked before the
// write, like BENCH_fleet.json).
//
// Flags: --n=N (matrix order / training rows, default 512), --m=N
// (right-hand-side columns / probe count, default 256), --logs=N (event
// logs for the meta-extraction kernel, default 256), --reps=N (timing
// repetitions, best-of, default 3), --threads=N (parallel kernels'
// width, default 4), --out=PATH, --min_speedup_x100=N (exit 1 if a
// linalg kernel's speedup — upper_solve or syrk_factor — lands below
// N/100; 0 disables; the other rows are reported, not gated),
// --self_check=1 (tiny ragged sizes, one rep, no speedup gate — the CI
// mode: only the bit-equality verdict matters).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bo/advisor.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "forest/gbdt.h"
#include "forest/random_forest.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "meta/meta_features.h"
#include "meta/similarity.h"
#include "model/kernel.h"
#include "reference_codec.h"
#include "reference_tree.h"
#include "sparksim/event_log.h"
#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"
#include "tuner/evaluator.h"

using namespace sparktune;
using namespace sparktune::bench;

namespace {

template <typename F>
double TimeMs(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    // lint:allow(no-wall-clock) benchmark wall-time reporting only; never feeds tuner results
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();  // lint:allow(no-wall-clock) benchmark timing, as above
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Prevents the optimizer from discarding untimed results.
// lint:allow(mutable-static) single-threaded benchmark driver's dead-code sink
double g_sink = 0.0;

struct KernelRow {
  const char* name;
  bool linalg = false;  // under the --min_speedup_x100 gate
  double naive_ms = 0.0;
  double fast_ms = 0.0;
  bool bit_identical = true;
  double speedup() const {
    return fast_ms > 0.0 ? naive_ms / fast_ms : 0.0;
  }
};

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng->Normal();
  }
  Matrix spd = a.MatMul(a.Transpose());
  spd.AddDiagonal(static_cast<double>(n));
  return spd;
}

// The documented reference loops the optimized kernels must reproduce
// bit-for-bit (cholesky.h): ascending k for the factorization, strictly
// descending k for the back substitution.
bool NaiveFactor(const Matrix& a, Matrix* l) {
  size_t n = a.rows();
  *l = Matrix(n, n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (size_t k = 0; k < j; ++k) d -= (*l)(j, k) * (*l)(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    (*l)(j, j) = std::sqrt(d);
    for (size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= (*l)(i, k) * (*l)(j, k);
      (*l)(i, j) = s / (*l)(j, j);
    }
  }
  return true;
}

Matrix NaiveUpperSolve(const Matrix& l, const Matrix& y) {
  const size_t n = l.rows();
  const size_t m = y.cols();
  Matrix x(n, m, 0.0);
  for (size_t c = 0; c < m; ++c) {
    for (size_t ii = n; ii-- > 0;) {
      double sum = y(ii, c);
      for (size_t k = n; k-- > ii + 1;) sum -= l(k, ii) * x(k, c);
      x(ii, c) = sum / l(ii, ii);
    }
  }
  return x;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

KernelRow BenchUpperSolve(size_t n, size_t m, int threads, int reps) {
  KernelRow row{"upper_solve", /*linalg=*/true};
  Rng rng(2023);
  Matrix a = RandomSpd(n, &rng);
  auto chol = Cholesky::Factor(a, 1e-10, 1e-2, threads);
  if (!chol.ok()) {
    row.bit_identical = false;
    return row;
  }
  Matrix y(n, m);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < m; ++c) y(r, c) = rng.Normal();
  }
  Matrix naive, fast;
  row.naive_ms = TimeMs(reps, [&] {
    naive = NaiveUpperSolve(chol->lower(), y);
    g_sink += naive(0, 0);
  });
  row.fast_ms = TimeMs(reps, [&] {
    fast = chol->SolveUpperMatrix(y, threads);
    g_sink += fast(0, 0);
  });
  row.bit_identical = BitEqual(naive, fast);
  return row;
}

KernelRow BenchSyrkFactor(size_t n, int threads, int reps) {
  KernelRow row{"syrk_factor", /*linalg=*/true};
  Rng rng(7177);
  Matrix a = RandomSpd(n, &rng);
  Matrix naive;
  bool naive_ok = true;
  row.naive_ms = TimeMs(reps, [&] {
    naive_ok = NaiveFactor(a, &naive);
    g_sink += naive(0, 0);
  });
  bool fast_ok = true;
  Matrix fast;
  row.fast_ms = TimeMs(reps, [&] {
    auto chol = Cholesky::Factor(a, 1e-10, 1e-2, threads);
    fast_ok = chol.ok() && chol->applied_jitter() == 0.0;
    if (fast_ok) fast = chol->lower();
    g_sink += fast(0, 0);
  });
  row.bit_identical = naive_ok && fast_ok && BitEqual(naive, fast);
  return row;
}

std::vector<std::vector<double>> MakeMixedRows(
    const std::vector<FeatureKind>& schema, size_t count, Rng* rng) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> r(schema.size());
    for (size_t f = 0; f < schema.size(); ++f) {
      r[f] = schema[f] == FeatureKind::kCategorical
                 ? (rng->Bernoulli(0.5) ? 1.0 : 0.0)
                 : rng->Uniform();
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

KernelRow BenchKernelBatch(size_t n, size_t m, int reps) {
  KernelRow row{"kernel_batch"};
  const std::vector<FeatureKind> schema = {
      FeatureKind::kNumeric,     FeatureKind::kNumeric,
      FeatureKind::kNumeric,     FeatureKind::kNumeric,
      FeatureKind::kNumeric,     FeatureKind::kNumeric,
      FeatureKind::kCategorical, FeatureKind::kCategorical,
      FeatureKind::kCategorical, FeatureKind::kDataSize};
  MixedKernel kernel(schema);
  Rng rng(4242);
  auto train = MakeMixedRows(schema, n, &rng);
  auto probes = MakeMixedRows(schema, m, &rng);
  std::vector<double> by_row(n * m), columnar(n * m);
  row.naive_ms = TimeMs(reps, [&] {
    for (size_t i = 0; i < n; ++i) {
      kernel.EvalRow(train[i], probes, by_row.data() + i * m);
    }
    g_sink += by_row[0];
  });
  row.fast_ms = TimeMs(reps, [&] {
    const MixedKernel::ProbeColumns cols = kernel.PackProbes(probes);
    MixedKernel::ColumnarScratch scratch;
    for (size_t i = 0; i < n; ++i) {
      kernel.EvalRowColumnar(train[i], cols, &scratch,
                             columnar.data() + i * m);
    }
    g_sink += columnar[0];
  });
  row.bit_identical = by_row == columnar;
  return row;
}

TaskMetricSummary RandomSummary(Rng* rng) {
  TaskMetricSummary s;
  s.mean = rng->Uniform() * 10.0;
  s.stddev = rng->Uniform();
  s.min = s.mean * 0.5;
  s.max = s.mean * 2.0;
  s.p50 = s.mean;
  s.p90 = s.mean * 1.5;
  s.skewness = rng->Uniform();
  s.total = s.mean * 100.0;
  return s;
}

EventLog MakeLog(Rng* rng) {
  EventLog log;
  log.app_name = "bench";
  log.is_sql = rng->Bernoulli(0.3);
  log.data_size_gb = 1.0 + rng->Uniform() * 10.0;
  const int stages = 4 + static_cast<int>(rng->Uniform() * 8.0);
  for (int s = 0; s < stages; ++s) {
    StageLog st;
    st.name = "stage";
    st.op = s % 2 == 0 ? StageOp::kMap : StageOp::kReduceByKey;
    st.num_tasks = 16 + static_cast<int>(rng->Uniform() * 200.0);
    st.iterations = 1;
    st.duration_sec = rng->Uniform() * 60.0;
    st.input_mb = rng->Uniform() * 4096.0;
    st.output_mb = rng->Uniform() * 4096.0;
    st.shuffle_read_mb = rng->Uniform() * 1024.0;
    st.shuffle_write_mb = rng->Uniform() * 1024.0;
    st.spill_mb = rng->Uniform() * 128.0;
    st.task_duration_sec = RandomSummary(rng);
    st.task_gc_sec = RandomSummary(rng);
    st.task_shuffle_read_mb = RandomSummary(rng);
    st.task_shuffle_write_mb = RandomSummary(rng);
    st.task_spill_mb = RandomSummary(rng);
    st.task_cpu_fraction = RandomSummary(rng);
    st.task_io_fraction = RandomSummary(rng);
    log.stages.push_back(std::move(st));
  }
  return log;
}

KernelRow BenchMetaExtract(size_t num_logs, int threads, int reps) {
  KernelRow row{"meta_extract"};
  Rng rng(9009);
  std::vector<EventLog> logs;
  logs.reserve(num_logs);
  for (size_t i = 0; i < num_logs; ++i) logs.push_back(MakeLog(&rng));
  std::vector<std::vector<double>> serial(num_logs), parallel(num_logs);
  row.naive_ms = TimeMs(reps, [&] {
    for (size_t i = 0; i < num_logs; ++i) {
      serial[i] = ExtractMetaFeatures(logs[i]);
    }
    g_sink += serial[0][0];
  });
  row.fast_ms = TimeMs(reps, [&] {
    ParallelFor(threads, num_logs, [&](size_t i) {
      parallel[i] = ExtractMetaFeatures(logs[i]);
    });
    g_sink += parallel[0][0];
  });
  row.bit_identical = serial == parallel;
  return row;
}

// The similarity model's training set for `tasks` tasks: one self-pair per
// task plus every cross-pair, each in both orderings, as [a, b, |a-b|] over
// 75 meta-features. Each task's features repeat across its pairs, so every
// column is heavily tied; labels are quantized like Kendall distances.
void SimilarityTrainingSet(int tasks, std::vector<std::vector<double>>* x,
                           std::vector<double>* y) {
  constexpr size_t kMeta = 75;
  Rng rng(1506);
  std::vector<std::vector<double>> meta(static_cast<size_t>(tasks));
  for (auto& m : meta) {
    m.resize(kMeta);
    for (double& v : m) v = rng.Uniform();
  }
  auto add = [&](const std::vector<double>& a, const std::vector<double>& b,
                 double d) {
    std::vector<double> row(a);
    row.insert(row.end(), b.begin(), b.end());
    for (size_t k = 0; k < kMeta; ++k) row.push_back(std::fabs(a[k] - b[k]));
    x->push_back(std::move(row));
    y->push_back(d);
  };
  for (const auto& m : meta) {
    add(m, m, 0.0);
    add(m, m, 0.0);
  }
  for (size_t i = 0; i + 1 < meta.size(); ++i) {
    for (size_t j = i + 1; j < meta.size(); ++j) {
      double d = std::round(64.0 * std::fabs(meta[i][0] - meta[j][0] +
                                             0.3 * rng.Normal())) / 64.0;
      add(meta[i], meta[j], d);
      add(meta[j], meta[i], d);
    }
  }
}

KernelRow BenchTreeFit(int tasks, int rounds, int reps) {
  KernelRow row{"tree_fit"};
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  SimilarityTrainingSet(tasks, &x, &y);
  GbdtOptions opts = SimilarityModelOptions{}.gbdt;
  opts.num_rounds = rounds;
  std::vector<reference::Nodes> naive;
  row.naive_ms = TimeMs(reps, [&] {
    naive = reference::FitGbdt(opts, x, y);
    g_sink += naive[0][0].value;
  });
  GbdtRegressor fast(opts);
  bool fast_ok = true;
  row.fast_ms = TimeMs(reps, [&] {
    fast_ok = fast.Fit(x, y).ok();
    g_sink += fast.base_prediction();
  });
  row.bit_identical = fast_ok && reference::SameTrees(fast.trees(), naive);
  return row;
}

KernelRow BenchForestFit(size_t n, int threads, int reps) {
  KernelRow row{"forest_fit"};
  Rng rng(5150);
  std::vector<std::vector<double>> x(n, std::vector<double>(24));
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : x[i]) v = std::floor(rng.Uniform() * 5.0);
    y[i] = x[i][0] * x[i][1] + rng.Normal();
  }
  ForestOptions opts;
  opts.num_trees = 16;
  opts.num_threads = threads;
  std::vector<reference::Nodes> naive;
  row.naive_ms = TimeMs(reps, [&] {
    naive = reference::FitForest(opts, x, y);
    g_sink += naive[0][0].value;
  });
  RandomForest fast(opts);
  bool fast_ok = true;
  row.fast_ms = TimeMs(reps, [&] {
    fast_ok = fast.Fit(x, y).ok();
    g_sink += fast.trees()[0].nodes()[0].value;
  });
  row.bit_identical = fast_ok && reference::SameTrees(fast.trees(), naive);
  return row;
}

std::vector<Configuration> RandomConfigs(const ConfigSpace& space,
                                         size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Configuration> configs;
  configs.reserve(count);
  for (size_t i = 0; i < count; ++i) configs.push_back(space.Sample(&rng));
  return configs;
}

KernelRow BenchResourceRate(size_t count, int reps) {
  KernelRow row{"resource_rate"};
  const ClusterSpec cluster = ClusterSpec::ProductionGroup();
  const ConfigSpace space = BuildSparkSpace(cluster);
  const SimulatorEvaluatorOptions opts;
  auto workload = HiBenchTask("WordCount");
  if (!workload.ok()) {
    row.bit_identical = false;
    return row;
  }
  SimulatorEvaluator eval(&space, *workload, cluster, DriftModel::None(),
                          opts);
  const std::vector<Configuration> configs = RandomConfigs(space, count, 61);
  std::vector<double> naive(count), fast(count);
  row.naive_ms = TimeMs(reps, [&] {
    for (size_t i = 0; i < count; ++i) {
      naive[i] = ResourceFunction(
          reference::DecodeSparkConfByName(space, configs[i]),
          opts.sim.mem_weight);
    }
    g_sink += naive[0];
  });
  row.fast_ms = TimeMs(reps, [&] {
    for (size_t i = 0; i < count; ++i) fast[i] = eval.ResourceRate(configs[i]);
    g_sink += fast[0];
  });
  row.bit_identical = naive == fast;
  return row;
}

KernelRow BenchEncode(size_t count, int reps) {
  KernelRow row{"encode"};
  const ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  const Advisor advisor(&space, AdvisorOptions{});
  const double data_gb = 37.5;
  const std::vector<Configuration> configs = RandomConfigs(space, count, 62);
  std::vector<std::vector<double>> naive(count), fast(count);
  row.naive_ms = TimeMs(reps, [&] {
    for (size_t i = 0; i < count; ++i) {
      naive[i] = reference::EncodeFeatures(
          space, configs[i],
          {NormalizeDataSize(data_gb,
                             advisor.options().datasize_reference_gb)});
    }
    g_sink += naive[0][0];
  });
  row.fast_ms = TimeMs(reps, [&] {
    for (size_t i = 0; i < count; ++i) {
      fast[i] = advisor.Encode(configs[i], data_gb);
    }
    g_sink += fast[0][0];
  });
  row.bit_identical = naive == fast;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool self_check = flags.Bool("self_check", false);
  // Self-check mode: ragged sizes (not multiples of the 48-wide panel or
  // the 8-wide register tile) exercise every remainder path; timings are
  // irrelevant, only the bit-equality verdicts gate.
  const size_t n =
      self_check ? 101 : static_cast<size_t>(flags.Int("n", 512));
  const size_t m = self_check ? 53 : static_cast<size_t>(flags.Int("m", 256));
  const size_t num_logs =
      self_check ? 17 : static_cast<size_t>(flags.Int("logs", 256));
  const int reps = self_check ? 1 : flags.Int("reps", 3);
  const int threads = flags.Threads(4);
  const double min_speedup =
      self_check ? 0.0 : flags.Int("min_speedup_x100", 0) / 100.0;
  const std::string out_path = flags.Out("BENCH_kernels.json");
  if (!flags.Validate()) return 1;

  std::vector<KernelRow> rows;
  rows.push_back(BenchUpperSolve(n, m, threads, reps));
  rows.push_back(BenchSyrkFactor(n, threads, reps));
  rows.push_back(BenchKernelBatch(n, m, reps));
  rows.push_back(BenchMetaExtract(num_logs, threads, reps));
  rows.push_back(self_check ? BenchTreeFit(6, 20, reps)
                            : BenchTreeFit(16, 150, reps));
  rows.push_back(BenchForestFit(n, threads, reps));
  const size_t configs = self_check ? m : 64 * m;
  rows.push_back(BenchResourceRate(configs, reps));
  rows.push_back(BenchEncode(configs, reps));

  std::printf("bench_kernels: n=%zu m=%zu logs=%zu threads=%d reps=%d\n\n",
              n, m, num_logs, threads, reps);
  std::printf("%-14s %12s %12s %9s %14s\n", "kernel", "naive_ms", "fast_ms",
              "speedup", "bit_identical");
  bool all_identical = true;
  for (const KernelRow& r : rows) {
    all_identical = all_identical && r.bit_identical;
    std::printf("%-14s %12.3f %12.3f %8.2fx %14s\n", r.name, r.naive_ms,
                r.fast_ms, r.speedup(), r.bit_identical ? "yes" : "NO");
  }
  std::printf("\n");

  Json doc = Json::Object();
  doc.Set("bench", Json::Str("kernels"));
  doc.Set("n", Json::Number(static_cast<double>(n)));
  doc.Set("m", Json::Number(static_cast<double>(m)));
  doc.Set("logs", Json::Number(static_cast<double>(num_logs)));
  doc.Set("threads", Json::Number(static_cast<double>(threads)));
  doc.Set("reps", Json::Number(static_cast<double>(reps)));
  doc.Set("self_check", Json::Bool(self_check));
  Json kernels = Json::Array();
  for (const KernelRow& r : rows) {
    Json k = Json::Object();
    k.Set("name", Json::Str(r.name));
    k.Set("naive_ms", Json::Number(r.naive_ms));
    k.Set("fast_ms", Json::Number(r.fast_ms));
    k.Set("speedup", Json::Number(r.speedup()));
    k.Set("bit_identical", Json::Bool(r.bit_identical));
    kernels.Append(std::move(k));
  }
  doc.Set("kernels", std::move(kernels));
  doc.Set("all_bit_identical", Json::Bool(all_identical));
  std::string dumped = doc.Dump();

  // Schema self-check: the emitted document must parse back and carry the
  // fields downstream tooling keys on; silent schema drift is a bench bug.
  auto parsed = Json::Parse(dumped);
  const char* required[] = {"kernels", "n", "threads", "all_bit_identical"};
  if (!parsed.ok() || !parsed->is_object()) {
    std::fprintf(stderr,
                 "BENCH_kernels.json self-check: emitted JSON does not "
                 "parse\n");
    return 1;
  }
  for (const char* field : required) {
    if (parsed->Get(field) == nullptr) {
      std::fprintf(stderr,
                   "BENCH_kernels.json self-check: missing field %s\n",
                   field);
      return 1;
    }
  }
  {
    std::ofstream out(out_path);
    out << dumped << "\n";
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_kernels: BIT MISMATCH against naive reference\n");
    return 1;
  }
  if (min_speedup > 0.0) {
    for (const KernelRow& r : rows) {
      if (r.linalg && r.speedup() < min_speedup) {
        std::fprintf(stderr,
                     "bench_kernels: %s speedup %.2fx below gate %.2fx\n",
                     r.name, r.speedup(), min_speedup);
        return 1;
      }
    }
  }
  return 0;
}
