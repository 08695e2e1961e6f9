// rpc-apply: the multi-process service. A ProcessSupervisor runs
// sparktune_shardd workers over Unix sockets with a shared repository.
// Tasks have a small tuning budget, so most periods are cheap applying
// periods and the tick's time goes to framing, the wire codecs, shard
// dispatch and checkpoint writes. One tick is Tick() then CheckpointAll().
// A few scripted KillShard -> RestartShard cycles exercise restore and
// replay: the killed shard's slots park (kUnavailable) for one tick.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "fleetbench.h"
#include "service/process_supervisor.h"
#include "service/supervisor_manifest.h"
#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"
#include "tracing.h"

namespace perfbench {

using sparktune::Median;
using sparktune::Observation;
using sparktune::Quantile;
using sparktune::Result;
using sparktune::Status;

namespace {

constexpr int kShards = 2;
constexpr int kTasks = 32;        // HiBench workloads round-robin
constexpr int kCohortTasks = 2;   // tasks registered per cohort
constexpr int kArrivalEvery = 4;  // ticks between cohorts
constexpr int kBudget = 12;       // BO iterations per task
constexpr int kTicks = 80;
constexpr int kKills = 3;  // scripted KillShard -> RestartShard cycles

std::vector<double> SlotVector(const Observation& obs) {
  std::vector<double> v = {obs.objective, obs.runtime_sec, obs.resource_rate,
                           static_cast<double>(obs.feasible),
                           static_cast<double>(obs.failure)};
  v.insert(v.end(), obs.config.values().begin(), obs.config.values().end());
  return v;
}

struct RpcTask {
  std::string id;
  sparktune::SimTaskSpec spec;
};

// The tuning problems are a fixed suite: suite entry k is task
// "rpc-task-k" running HiBench workload k mod 16 with an evaluator seed
// fixed by k. Its name fixes its rendezvous shard, so the shards' loads and
// the outcome metrics (cost_reduction_pct, infeasible_pct) are the same for
// every seed. The seed orders the arrivals and places the scripted kills.
constexpr uint64_t kSuiteSeed = 20230706;

std::vector<RpcTask> MakeTasks(uint64_t seed) {
  const std::vector<sparktune::WorkloadSpec> workloads =
      sparktune::AllHiBenchTasks();
  sparktune::Rng rng(seed * 2654435761ULL + 17);
  std::vector<RpcTask> tasks;
  for (int k : rng.Permutation(kTasks)) {
    RpcTask task;
    task.id = sparktune::StrFormat("rpc-task-%02d", k);
    task.spec.workload = workloads[k % workloads.size()].name;
    task.spec.seed = MixSeed(kSuiteSeed + static_cast<uint64_t>(k));
    tasks.push_back(std::move(task));
  }
  return tasks;
}

sparktune::ServiceConfig MakeConfig() {
  sparktune::ServiceConfig service;
  service.cluster = "hibench";
  service.budget = kBudget;
  service.ei_stop_threshold = 0.0;
  service.enable_meta = false;
  service.num_threads = 1;
  service.compact_event_logs = true;
  return service;
}

sparktune::ProcessSupervisorOptions MakeOptions(
    const RpcDeployment& deployment) {
  sparktune::ProcessSupervisorOptions options;
  options.shardd_path = deployment.shardd_path;
  options.socket_dir = deployment.work_dir;
  options.num_shards = kShards;
  options.service = MakeConfig();
  return options;
}

// Records the peak resident memory of each shard's worker. The manifest
// the supervisor rewrites after every transition names the current
// worker PIDs; a shard keeps the largest peak of its incarnations.
Status NoteWorkerPeaks(const sparktune::ProcessSupervisor& supervisor,
                       std::vector<double>* peak_mb) {
  SPARKTUNE_ASSIGN_OR_RETURN(
      manifest, sparktune::LoadSupervisorManifest(supervisor.manifest_path()));
  for (int s = 0; s < kShards; ++s) {
    if (!supervisor.shard_alive(s)) continue;
    const double mb = PeakRssMb(manifest.shards[s].pid);
    if (mb <= 0.0) {
      return Status::Internal(sparktune::StrFormat(
          "cannot read the peak memory of shard %d's worker", s));
    }
    (*peak_mb)[s] = std::max((*peak_mb)[s], mb);
  }
  return Status::OK();
}

// The scripted kills: the k-th lands before tick k*T/(K+1), moved by up
// to two ticks, on a shard drawn from the seed.
struct Kill {
  int tick = 0;
  int shard = 0;
};

std::vector<Kill> KillPlan(uint64_t seed) {
  sparktune::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 29);
  std::vector<Kill> kills;
  for (int k = 1; k <= kKills; ++k) {
    Kill kill;
    kill.tick = k * kTicks / (kKills + 1) +
                static_cast<int>(rng.UniformInt(-2, 2));
    kill.shard = static_cast<int>(rng.UniformInt(0, kShards - 1));
    kills.push_back(kill);
  }
  return kills;
}

}  // namespace

Status WarmUpRpc(const RpcDeployment& deployment) {
  std::error_code ec;
  std::filesystem::create_directories(deployment.work_dir, ec);
  Status st;
  {
    sparktune::ProcessSupervisor supervisor(MakeOptions(deployment));
    st = supervisor.Start();
    if (st.ok()) st = supervisor.Shutdown();
  }
  std::filesystem::remove_all(deployment.work_dir, ec);
  return st;
}

Result<Episode> RunRpcEpisode(const RpcDeployment& deployment,
                              uint64_t seed, bool traced,
                              RpcTrajectory* trajectory) {
  const std::vector<RpcTask> tasks = MakeTasks(seed);
  const std::string& work_dir = deployment.work_dir;
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + work_dir + ": " +
                            ec.message());
  }

  sparktune::ProcessSupervisorOptions options = MakeOptions(deployment);
  options.service.repository_dir = work_dir + "/repo";

  SpanLog log;
  SpanLog* spans = traced ? &log : nullptr;
  Episode episode;
  Outcome& out = episode.outcome;
  Timing& timing = episode.timing;
  const double children_cpu0 = ChildrenCpuS();

  const double setup_start = NowS();
  const double setup_cpu0 = SelfCpuS();
  auto supervisor = std::make_unique<sparktune::ProcessSupervisor>(options);
  if (Status st = supervisor->Start(); !st.ok()) return st;
  std::vector<std::string> ids;  // registered so far, in order
  auto register_cohort = [&]() -> Status {
    for (int k = 0; k < kCohortTasks && ids.size() < tasks.size(); ++k) {
      const RpcTask& task = tasks[ids.size()];
      SPARKTUNE_RETURN_IF_ERROR(supervisor->RegisterTask(task.id, task.spec));
      ids.push_back(task.id);
    }
    return Status::OK();
  };
  if (Status st = register_cohort(); !st.ok()) return st;
  timing.setup_s = NowS() - setup_start;
  double self_cpu = SelfCpuS() - setup_cpu0;

  const std::vector<Kill> kills = KillPlan(seed);
  std::vector<std::vector<std::vector<double>>> slots(tasks.size());
  std::vector<double> worker_peak_mb(kShards, 0.0);
  Digest digest;
  int killed = -1;
  for (int tick = 0; tick < kTicks; ++tick) {
    // Scripted chaos, outside the tick's timing: restart the shard killed
    // before the previous tick, or kill the next one.
    if (killed >= 0) {
      ++out.ops_attempted;
      ++out.restarts_attempted;
      const double cpu0 = SelfCpuS();
      Status st;
      {
        ScopedSpan span(spans, "supervisor.restart");
        st = supervisor->RestartShard(killed);
      }
      self_cpu += SelfCpuS() - cpu0;
      if (!st.ok()) return st;
      killed = -1;
    }
    if (tick > 0 && tick % kArrivalEvery == 0) {
      if (Status st = register_cohort(); !st.ok()) return st;
    }
    for (const Kill& kill : kills) {
      if (kill.tick != tick) continue;
      killed = kill.shard;
      ++out.ops_attempted;
      if (Status st = NoteWorkerPeaks(*supervisor, &worker_peak_mb);
          !st.ok()) {
        return st;
      }
      if (Status st = supervisor->KillShard(killed); !st.ok()) return st;
    }
    if (traced) {
      for (int s = 0; s < kShards; ++s) {
        if (!supervisor->shard_alive(s)) continue;
        ScopedSpan span(spans, "net.ping");
        if (Status st = supervisor->Ping(s); !st.ok()) return st;
      }
    }

    std::vector<Result<Observation>> results;
    sparktune::CheckpointReport report;
    const double cpu0 = SelfCpuS();
    const double t0 = NowS();
    {
      ScopedSpan tick_span(spans, "tick");
      {
        ScopedSpan span(spans, "supervisor.tick", tick_span.index());
        results = supervisor->Tick();
      }
      ScopedSpan span(spans, "supervisor.checkpoint", tick_span.index());
      report = supervisor->CheckpointAll();
    }
    const double wall = NowS() - t0;
    self_cpu += SelfCpuS() - cpu0;
    timing.tick_wall_s += wall;
    timing.tick_ms.push_back(wall * 1e3);

    // Untimed: account for every slot. A parked slot is expected exactly
    // for the tasks of the shard killed before this tick.
    if (results.size() != ids.size()) {
      return Status::Internal("tick returned a slot count unlike the fleet");
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      ++out.slots;
      ++out.ops_attempted;
      digest.Add(static_cast<long long>(i));
      if (!results[i].ok()) {
        const bool scripted =
            killed >= 0 && supervisor->shard_of(ids[i]) == killed &&
            results[i].status().code() == Status::Code::kUnavailable;
        ++(scripted ? out.ops_failed_scripted : out.ops_failed_unscripted);
        if (scripted) ++out.parked_slots;
        digest.Add(static_cast<long long>(results[i].status().code()));
        continue;
      }
      ++out.periods_ok;
      slots[i].push_back(SlotVector(*results[i]));
      digest.Add(slots[i].back());
    }
    out.ops_attempted += report.written + report.failed;
    out.ops_failed_unscripted += report.failed;
    out.checkpoints_written += report.written;
  }
  if (killed >= 0) return Status::Internal("episode ended with a dead shard");

  // Untimed: final clocks and incumbents over the wire, then shutdown.
  std::vector<long long> periods;
  std::vector<std::vector<double>> incumbents;
  for (const std::string& id : ids) {
    ++out.ops_attempted;
    Result<sparktune::Configuration> best = supervisor->FetchSuggestion(id);
    if (!best.ok()) return best.status();
    periods.push_back(supervisor->periods(id));
    incumbents.push_back(best->values());
    digest.Add(periods.back());
    digest.Add(incumbents.back());
  }
  if (Status st = NoteWorkerPeaks(*supervisor, &worker_peak_mb); !st.ok()) {
    return st;
  }
  const sparktune::ProcessSupervisorStats stats = supervisor->stats();
  out.restored_tasks = stats.restored_tasks;
  out.replayed_periods = stats.replayed_periods;
  if (stats.parked_slots != out.parked_slots) {
    return Status::Internal(sparktune::StrFormat(
        "supervisor counted %lld parked slots, the episode %lld",
        stats.parked_slots, out.parked_slots));
  }
  if (Status st = supervisor->Shutdown(); !st.ok()) return st;
  supervisor.reset();  // reaps every worker
  out.tasks = static_cast<long long>(ids.size());
  out.digest = digest.value();
  timing.cpu_s = self_cpu + (ChildrenCpuS() - children_cpu0);
  timing.peak_rss_mb = SelfPeakRssMb();
  for (double mb : worker_peak_mb) timing.peak_rss_mb += mb;
  std::filesystem::remove_all(work_dir, ec);

  if (trajectory != nullptr) {
    trajectory->ids = ids;
    trajectory->slots = std::move(slots);
    trajectory->periods = std::move(periods);
    trajectory->incumbents = std::move(incumbents);
  }
  if (traced) {
    auto& L = episode.layers;
    const std::vector<double> ping_ms = log.Durations("net.ping");
    L["net.ping_us_p50"] = 1e3 * Quantile(ping_ms, 0.5);
    L["net.ping_us_p90"] = 1e3 * Quantile(ping_ms, 0.9);
    L["supervisor.tick_ms"] = Median(log.Durations("supervisor.tick"));
    L["supervisor.checkpoint_ms"] =
        Median(log.Durations("supervisor.checkpoint"));
    L["supervisor.restart_ms"] = Median(log.Durations("supervisor.restart"));
  }
  return episode;
}

Status CheckRpcAgainstOracle(uint64_t seed, const RpcTrajectory& trajectory,
                             Outcome* outcome) {
  const std::vector<RpcTask> tasks = MakeTasks(seed);
  const sparktune::ServiceConfig service_config = MakeConfig();
  SPARKTUNE_ASSIGN_OR_RETURN(
      cluster, sparktune::ClusterFromName(service_config.cluster));
  const sparktune::ConfigSpace space = sparktune::BuildSparkSpace(cluster);
  // Tasks are independent, so the oracle steps them in rounds on four
  // threads; each task still sees exactly its own sequence of periods.
  sparktune::TuningServiceOptions options =
      sparktune::MakeServiceOptions(service_config);
  options.num_threads = 4;
  sparktune::TuningService oracle(&space, options);
  const size_t n = trajectory.ids.size();
  std::vector<std::unique_ptr<sparktune::JobEvaluator>> evaluators;
  size_t rounds = 0;
  for (size_t i = 0; i < n; ++i) {
    SPARKTUNE_ASSIGN_OR_RETURN(evaluator,
                               sparktune::BuildSimEvaluator(&space, cluster,
                                                            tasks[i].spec));
    SPARKTUNE_RETURN_IF_ERROR(
        oracle.RegisterTask(trajectory.ids[i], evaluator.get()));
    evaluators.push_back(std::move(evaluator));
    rounds = std::max(rounds, trajectory.slots[i].size());
  }
  std::vector<TaskQuality> quality(n);
  for (size_t r = 0; r < rounds; ++r) {
    std::vector<size_t> active;
    std::vector<std::string> ids;
    std::vector<sparktune::TunerPhase> phases;
    for (size_t i = 0; i < n; ++i) {
      if (trajectory.slots[i].size() <= r) continue;
      active.push_back(i);
      ids.push_back(trajectory.ids[i]);
      phases.push_back(oracle.tuner(ids.back())->phase());
    }
    const std::vector<Result<Observation>> want =
        oracle.ExecutePeriodicAll(ids);
    for (size_t k = 0; k < active.size(); ++k) {
      const size_t i = active[k];
      if (!want[k].ok() || SlotVector(*want[k]) != trajectory.slots[i][r]) {
        return Status::Internal(sparktune::StrFormat(
            "task %s period %zu differs from the in-process oracle",
            ids[k].c_str(), r + 1));
      }
      FoldSlot(phases[k], *want[k], &quality[i], outcome);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string& id = trajectory.ids[i];
    if (oracle.periods(id) != trajectory.periods[i]) {
      return Status::Internal(sparktune::StrFormat(
          "task %s period clock %lld, oracle %lld", id.c_str(),
          trajectory.periods[i], oracle.periods(id)));
    }
    if (oracle.tuner(id)->BestConfig().values() != trajectory.incumbents[i]) {
      return Status::Internal("task " + id +
                              " incumbent differs from the oracle");
    }
    outcome->restarts += oracle.tuner(id)->restarts();
  }
  outcome->cost_reduction_pct = CostReductionPct(quality);
  return Status::OK();
}

}  // namespace perfbench
