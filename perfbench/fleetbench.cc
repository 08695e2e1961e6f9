// fleetbench: the fleet-tick benchmark program.
//
//   fleetbench --workload <fleet-tune|meta-transfer|rpc-apply> --seed N
//              --seconds S --trace <0|1>
//
// A run repeats episodes (fresh services, fixed inputs) until another one
// would end well past --seconds. The seed yields kVariants input variants;
// an untraced run plays them in turn, at least once each and over at least
// 100 timed ticks. Every episode must reproduce the outcome of the first
// episode of its variant bit for bit.
//
// --trace 0 reports the end-to-end metrics from untraced episodes.
// --trace 1 plays an untraced and a traced episode of each variant in
// turn and reports the per-layer metrics from the traced ones, plus
// trace.overhead_pct (how much slower the traced episodes tick). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {value, unit}}}. perfbench/README.md lists every
// metric.
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/strings.h"
#include "fleetbench.h"
#include "tracing.h"

namespace perfbench {

std::vector<std::string> Outcome::Diff(const Outcome& o) const {
  std::vector<std::string> diff;
  auto check = [&](const char* name, auto a, auto b) {
    if (a != b) diff.push_back(name);
  };
  check("tasks", tasks, o.tasks);
  check("slots", slots, o.slots);
  check("periods_ok", periods_ok, o.periods_ok);
  check("parked_slots", parked_slots, o.parked_slots);
  check("tuning_periods", tuning_periods, o.tuning_periods);
  check("infeasible", infeasible, o.infeasible);
  check("cost_reduction_pct", cost_reduction_pct, o.cost_reduction_pct);
  check("restarts", restarts, o.restarts);
  check("warm_started_tasks", warm_started_tasks, o.warm_started_tasks);
  check("kb_records", kb_records, o.kb_records);
  check("kb_unique_tasks", kb_unique_tasks, o.kb_unique_tasks);
  check("retrains", retrains, o.retrains);
  check("harvest_attempted", harvest_attempted, o.harvest_attempted);
  check("harvest_deferred", harvest_deferred, o.harvest_deferred);
  check("harvest_records", harvest_records, o.harvest_records);
  check("checkpoints_written", checkpoints_written, o.checkpoints_written);
  check("restarts_attempted", restarts_attempted, o.restarts_attempted);
  check("restored_tasks", restored_tasks, o.restored_tasks);
  check("replayed_periods", replayed_periods, o.replayed_periods);
  check("ops_attempted", ops_attempted, o.ops_attempted);
  check("ops_failed_scripted", ops_failed_scripted, o.ops_failed_scripted);
  check("ops_failed_unscripted", ops_failed_unscripted,
        o.ops_failed_unscripted);
  check("digest", digest, o.digest);
  return diff;
}

void FoldSlot(sparktune::TunerPhase phase, const sparktune::Observation& obs,
              TaskQuality* task, Outcome* outcome) {
  if (phase == sparktune::TunerPhase::kBaseline) {
    task->baseline_objective = obs.objective;
    task->baseline_feasible = obs.feasible;
  } else if (phase == sparktune::TunerPhase::kTuning) {
    ++outcome->tuning_periods;
    if (!obs.feasible) ++outcome->infeasible;
  }
  if (phase != sparktune::TunerPhase::kApplying && obs.feasible) {
    task->best_feasible = std::min(task->best_feasible, obs.objective);
  }
}

double CostReductionPct(const std::vector<TaskQuality>& tasks) {
  double sum = 0.0;
  long long counted = 0;
  for (const TaskQuality& task : tasks) {
    if (!task.baseline_feasible || task.baseline_objective <= 0.0) continue;
    sum += 1.0 - task.best_feasible / task.baseline_objective;
    ++counted;
  }
  return counted > 0 ? 100.0 * sum / static_cast<double>(counted) : 0.0;
}

namespace {

using sparktune::Median;
using sparktune::Quantile;

// Input variants per seed; see Main.
constexpr int kVariants = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Accepts "--name value" and "--name=value".
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    std::string name = arg.substr(2), value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (name == "workload") {
      args->workload = value;
    } else if (name == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (name == "trace") {
      args->trace = std::atoi(value.c_str()) != 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, long long attempted, long long failed,
                 const std::vector<Metric>& metrics) {
  using sparktune::Json;
  Json by_name = Json::Object();
  for (const Metric& metric : metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(metric.value));
    entry.Set("unit", Json::Str(metric.unit));
    by_name.Set(metric.name, std::move(entry));
  }
  Json result = Json::Object();
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Number(static_cast<double>(attempted)));
  result.Set("failed", Json::Number(static_cast<double>(failed)));
  result.Set("metrics", std::move(by_name));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

double Pct(long long part, long long whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0.0;
}

// Pooled over episodes: periods over the wall time of every timed tick.
double PeriodsPerSecond(const std::vector<Episode>& episodes) {
  double periods = 0.0, wall = 0.0;
  for (const Episode& e : episodes) {
    periods += static_cast<double>(e.outcome.periods_ok);
    wall += e.timing.tick_wall_s;
  }
  return wall > 0.0 ? periods / wall : 0.0;
}

long long TimedTicks(const std::vector<Episode>& episodes) {
  long long n = 0;
  for (const Episode& e : episodes) {
    n += static_cast<long long>(e.timing.tick_ms.size());
  }
  return n;
}

std::vector<Metric> EndToEnd(const std::vector<Episode>& episodes,
                             const std::map<int, Outcome>& variants) {
  // The outcome metrics are deterministic per variant; report their mean.
  double cost_reduction = 0.0, infeasible = 0.0;
  for (const auto& [variant, o] : variants) {
    cost_reduction += o.cost_reduction_pct / variants.size();
    infeasible += o.infeasible_pct() / variants.size();
  }
  std::vector<double> setup, ticks, rss;
  double cpu = 0.0, periods = 0.0;
  for (const Episode& e : episodes) {
    setup.push_back(e.timing.setup_s);
    rss.push_back(e.timing.peak_rss_mb);
    ticks.insert(ticks.end(), e.timing.tick_ms.begin(), e.timing.tick_ms.end());
    cpu += e.timing.cpu_s;
    periods += static_cast<double>(e.outcome.periods_ok);
  }
  std::printf("end-to-end: %zu untraced episodes, %zu timed ticks "
              "(tick percentiles over all of them), %.0f periods\n",
              episodes.size(), ticks.size(), periods);
  return {
      {"setup_s", Median(setup), "s"},
      {"periods_per_s", PeriodsPerSecond(episodes), "1/s"},
      {"tick_p50_ms", Quantile(ticks, 0.5), "ms"},
      {"tick_p90_ms", Quantile(ticks, 0.9), "ms"},
      {"cpu_ms_per_period", periods > 0.0 ? 1e3 * cpu / periods : 0.0, "ms"},
      {"peak_rss_mb", Median(rss), "MB"},
      {"cost_reduction_pct", cost_reduction, "%"},
      {"infeasible_pct", infeasible, "%"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Episode>& traced,
                             const std::vector<Episode>& untraced,
                             const Outcome& o) {
  auto median_of = [&](const char* name) {
    std::vector<double> v;
    for (const Episode& e : traced) {
      auto it = e.layers.find(name);
      if (it != e.layers.end()) v.push_back(it->second);
    }
    return Median(v);
  };
  const double untraced_rate = PeriodsPerSecond(untraced);
  const double traced_rate = PeriodsPerSecond(traced);
  std::printf("per-layer: %zu traced + %zu untraced episodes\n",
              traced.size(), untraced.size());
  return {
      {"service.execute_ms", median_of("service.execute_ms"), "ms"},
      {"service.execute_parallel_eff_pct",
       median_of("service.execute_parallel_eff_pct"), "%"},
      {"service.harvest_ms", median_of("service.harvest_ms"), "ms"},
      {"service.harvest_deferred_pct",
       Pct(o.harvest_deferred, o.harvest_attempted), "%"},
      {"harvest_tasks_per_s", median_of("harvest_tasks_per_s"), "1/s"},
      {"sparksim.runs", median_of("sparksim.runs"), "count"},
      {"sparksim.run_ms", median_of("sparksim.run_ms"), "ms"},
      {"sparksim.resource_rate_calls",
       median_of("sparksim.resource_rate_calls"), "count"},
      {"sparksim.resource_rate_ms", median_of("sparksim.resource_rate_ms"),
       "ms"},
      {"bo.self_ms", median_of("bo.self_ms"), "ms"},
      {"tuner.tuning_periods_pct", Pct(o.tuning_periods, o.periods_ok), "%"},
      {"tuner.restarts", static_cast<double>(o.restarts), "count"},
      {"forest.retrains", static_cast<double>(o.retrains), "count"},
      {"forest.retrain_ms", median_of("forest.retrain_ms"), "ms"},
      {"meta.fold_ms", median_of("meta.fold_ms"), "ms"},
      {"kb.records", static_cast<double>(o.kb_records), "count"},
      {"kb.unique_tasks", static_cast<double>(o.kb_unique_tasks), "count"},
      {"kb.duplicate_record_pct",
       Pct(o.kb_records - o.kb_unique_tasks, o.kb_records), "%"},
      {"meta.warm_started_tasks", static_cast<double>(o.warm_started_tasks),
       "count"},
      {"net.ping_us_p50", median_of("net.ping_us_p50"), "us"},
      {"net.ping_us_p90", median_of("net.ping_us_p90"), "us"},
      {"supervisor.tick_ms", median_of("supervisor.tick_ms"), "ms"},
      {"supervisor.checkpoint_ms", median_of("supervisor.checkpoint_ms"),
       "ms"},
      {"supervisor.checkpoint_written",
       static_cast<double>(o.checkpoints_written), "count"},
      {"supervisor.restart_ms", median_of("supervisor.restart_ms"), "ms"},
      {"supervisor.restored_tasks", static_cast<double>(o.restored_tasks),
       "count"},
      {"supervisor.replayed_periods",
       static_cast<double>(o.replayed_periods), "count"},
      {"supervisor.parked_slots", static_cast<double>(o.parked_slots),
       "count"},
      {"failed_pct",
       Pct(o.ops_failed_scripted + o.ops_failed_unscripted, o.ops_attempted),
       "%"},
      {"trace.overhead_pct",
       untraced_rate > 0.0 ? 100.0 * (untraced_rate - traced_rate) /
                                 untraced_rate
                           : 0.0,
       "%"},
  };
}

// A stopped run takes its shard workers with it: fleetbench leads its own
// process group (the workers inherit it), and a termination signal kills
// the whole group.
void KillGroup(int) { kill(0, SIGKILL); }

int Fail(const std::string& why) {
  std::fprintf(stderr, "fleetbench: %s\n", why.c_str());
  return 1;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: fleetbench --workload W --seed N --seconds S --trace 0|1");
  }

  setpgid(0, 0);
  std::signal(SIGTERM, KillGroup);
  std::signal(SIGINT, KillGroup);

  const bool meta = args.workload == "meta-transfer";
  const bool is_rpc = args.workload == "rpc-apply";
  RpcDeployment rpc;
  if (is_rpc) {
    rpc.shardd_path = PERFBENCH_SHARDD_PATH;
    rpc.work_dir = sparktune::StrFormat(".bench_run/rpc-%d",
                                        static_cast<int>(getpid()));
    if (sparktune::Status st = WarmUpRpc(rpc); !st.ok()) {
      return Fail("worker warm-up failed: " + st.ToString());
    }
  } else if (!meta && args.workload != "fleet-tune") {
    return Fail("unknown workload " + args.workload);
  }

  // Episode n runs input variant v of the seed (inputs from seed*K + v).
  // Untraced runs cycle v = n mod K; traced runs alternate an untraced and
  // a traced episode of the same variant. Every episode must reproduce the
  // outcome of the first episode of its variant.
  std::map<int, Outcome> first;
  std::map<int, RpcTrajectory> trajectories;
  std::vector<Episode> untraced, traced;
  long long attempted = 0, failed = 0;
  const int unit = args.trace ? 2 : 1;  // a traced run steps in pairs
  const int min_episodes = args.trace ? 2 : kVariants;
  const double start = NowS();
  for (int n = 0;; ++n) {
    // Stop after a whole unit, once every variant has run (one pair when
    // traced) over at least 100 timed ticks, and another unit would end
    // more than half a unit past --seconds.
    const double elapsed = NowS() - start;
    if (n >= min_episodes && n % unit == 0 &&
        (args.trace || TimedTicks(untraced) >= 100) &&
        elapsed + 0.5 * unit * elapsed / n > args.seconds) {
      break;
    }
    const bool trace_now = args.trace && n % 2 == 1;
    const int variant = (args.trace ? n / 2 : n) % kVariants;
    const uint64_t seed = args.seed * kVariants + variant;
    const bool new_variant = first.count(variant) == 0;
    sparktune::Result<Episode> episode =
        is_rpc ? RunRpcEpisode(rpc, seed, trace_now,
                               new_variant ? &trajectories[variant] : nullptr)
               : RunFleetEpisode(meta, seed, trace_now);
    if (!episode.ok()) {
      return Fail("episode failed: " + episode.status().ToString());
    }
    const Outcome& outcome = episode->outcome;
    attempted += outcome.ops_attempted;
    failed += outcome.ops_failed_unscripted;
    if (new_variant) {
      first[variant] = outcome;
    } else if (auto diff = first[variant].Diff(outcome); !diff.empty()) {
      std::string fields;
      for (const std::string& f : diff) fields += " " + f;
      std::fprintf(stderr,
                   "fleetbench: episode %d (%s) differs from the first "
                   "episode of variant %d in:%s\n",
                   n, trace_now ? "traced" : "untraced", variant,
                   fields.c_str());
      PrintResult(false, attempted, failed, {});
      return 1;
    }
    const Timing& t = episode->timing;
    std::printf("episode %d (variant %d, %s): setup %.2f ms, %zu ticks, "
                "%.1f periods/s, %.2f CPU ms/period, digest %016llx\n",
                n, variant, trace_now ? "traced" : "untraced",
                t.setup_s * 1e3, t.tick_ms.size(),
                outcome.periods_ok / t.tick_wall_s,
                1e3 * t.cpu_s / outcome.periods_ok,
                static_cast<unsigned long long>(outcome.digest));
    (trace_now ? traced : untraced).push_back(std::move(episode).value());
  }

  bool correct = failed == 0;
  if (!correct) {
    std::fprintf(stderr, "fleetbench: %lld unscripted operation failures\n",
                 failed);
  }
  // Outside every timed window: replay each variant's first rpc-apply
  // episode in-process.
  for (auto& [variant, trajectory] : trajectories) {
    sparktune::Status st = CheckRpcAgainstOracle(
        args.seed * kVariants + variant, trajectory, &first[variant]);
    if (!st.ok()) {
      std::fprintf(stderr, "fleetbench: oracle check failed: %s\n",
                   st.ToString().c_str());
      correct = false;
    }
  }
  for (const auto& [variant, o] : first) {
    std::printf("variant %d: %lld tasks, %lld periods, %lld operations, "
                "cost reduction %.2f%%, infeasible %.2f%%\n",
                variant, o.tasks, o.periods_ok, o.ops_attempted,
                o.cost_reduction_pct, o.infeasible_pct());
  }
  std::printf("%s seed %llu: %zu episodes in %.1f s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              untraced.size() + traced.size(), NowS() - start);
  PrintResult(correct, attempted, failed,
              args.trace ? PerLayer(traced, untraced, first.at(0))
                         : EndToEnd(untraced, first));
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
