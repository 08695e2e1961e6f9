// fleet-tune and meta-transfer: the paper's §6.2 multi-tenant service run
// in-process. Production-fleet tasks arrive in cohorts; each task measures
// its manual baseline, runs the BO search, applies the incumbent for a few
// periods and then retires from the tick. One tick is ExecutePeriodicAll
// on the ETL service and then on the SQL service, followed (meta-transfer
// only) by a bounded HarvestDirty on each.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fleetbench.h"
#include "service/tuning_service.h"
#include "sparksim/production.h"
#include "sparksim/spark_conf.h"
#include "tracing.h"

namespace perfbench {

using sparktune::ConfigSpace;
using sparktune::Median;
using sparktune::Observation;
using sparktune::Result;
using sparktune::Status;
using sparktune::TunerPhase;
using sparktune::TuningService;

namespace {

constexpr uint64_t kSuiteSeed = 20230706;
constexpr int kCohortPerService = 1;  // ETL and SQL tasks per cohort
constexpr int kCohortTasks = 2 * kCohortPerService;
constexpr int kArrivalEvery = 2;  // ticks between cohorts
constexpr int kCohorts = 20;
constexpr int kBudget = 20;         // BO iterations per task
constexpr int kApplyPeriods = 3;    // applying periods before a task retires
constexpr int kHarvestPerTick = 1;  // HarvestDirty bound (meta only)
constexpr int kThreads = 2;         // ExecutePeriodicAll threads per service
constexpr int kSetupEvery = 8;      // ticks between set-up samples

// Does the knowledge base pass a similarity-retrain size (2, 4, 8, ...)
// while growing from `before` to `after` records?
bool CrossesRetrain(size_t before, size_t after) {
  for (size_t n = before + 1; n <= after; ++n) {
    if (n >= 2 && (n & (n - 1)) == 0) return true;
  }
  return false;
}

struct TaskTrack {
  int service = 0;  // 0 = ETL, 1 = SQL
  int periods = 0;
  bool registered = false;
};

// The serving side of an episode. The services point into `spaces`, so a
// Fleet is built in place and never moved.
struct Fleet {
  ConfigSpace spaces[2];
  std::unique_ptr<TuningService> services[2];
  std::vector<std::unique_ptr<sparktune::JobEvaluator>> evaluators;
  std::vector<TaskTrack> tracks;
  std::vector<TaskQuality> quality;
};

void DigestSlot(const Observation& obs, Digest* digest) {
  digest->Add(obs.objective);
  digest->Add(static_cast<long long>(obs.feasible));
  digest->Add(static_cast<long long>(obs.failure));
  digest->Add(obs.config.values());
}

}  // namespace

Result<Episode> RunFleetEpisode(bool meta, uint64_t seed, bool traced) {
  // Inputs, generated before the clock starts. The tasks are a fixed
  // production suite: the first ETL and SQL tasks of one generated fleet.
  // The seed orders their arrival (each cohort holds the same number of
  // ETL and SQL tasks) and seeds every evaluator and advisor.
  const int per_service = kCohorts * kCohortPerService;
  std::vector<sparktune::ProductionTask> by_kind[2];
  sparktune::ProductionFleetOptions fleet_options;
  fleet_options.num_tasks = 4 * per_service;
  for (const auto& task :
       sparktune::GenerateProductionFleet(fleet_options, kSuiteSeed)) {
    auto& kind = by_kind[task.workload.is_sql ? 1 : 0];
    if (static_cast<int>(kind.size()) < per_service) kind.push_back(task);
  }
  if (static_cast<int>(by_kind[0].size()) < per_service ||
      static_cast<int>(by_kind[1].size()) < per_service) {
    return Status::Internal("production fleet too small for the cohorts");
  }
  sparktune::Rng order(seed * 2654435761ULL + 11);
  std::vector<int> arrival[2] = {order.Permutation(per_service),
                                 order.Permutation(per_service)};
  // Cohort k: the next c arrivals of each kind, ETL first.
  std::vector<sparktune::ProductionTask> fleet;
  for (int k = 0; k < kCohorts; ++k) {
    for (int s = 0; s < 2; ++s) {
      for (int i = 0; i < kCohortPerService; ++i) {
        fleet.push_back(by_kind[s][arrival[s][k * kCohortPerService + i]]);
      }
    }
  }

  EvaluatorCounters counters;
  SpanLog log;
  SpanLog* spans = traced ? &log : nullptr;
  Episode episode;
  Outcome& out = episode.outcome;
  Timing& timing = episode.timing;

  sparktune::TuningServiceOptions options;
  options.tuner.budget = kBudget;
  options.tuner.ei_stop_threshold = 0.0;  // always the full search
  options.tuner.advisor.objective.beta = 0.5;
  options.enable_meta = meta;
  options.compact_event_logs = true;
  options.num_threads = kThreads;

  auto register_cohort = [&](Fleet* f, int cohort) -> Status {
    for (int k = 0; k < kCohortTasks; ++k) {
      const size_t t = static_cast<size_t>(cohort * kCohortTasks + k);
      const sparktune::ProductionTask& task = fleet[t];
      const int s = task.workload.is_sql ? 1 : 0;
      sparktune::SimulatorEvaluatorOptions eval_options;
      eval_options.seed = MixSeed((seed << 16) + t);
      eval_options.period_hours = task.period_hours;
      // Untraced episodes hand the services the bare simulator; traced
      // ones wrap it in the forwarding TimingEvaluator. Equal outcome
      // digests then show that the decorator and the spans change nothing.
      f->evaluators[t] = std::make_unique<sparktune::SimulatorEvaluator>(
          &f->spaces[s], task.workload, task.cluster, task.drift,
          eval_options);
      if (traced) {
        f->evaluators[t] = std::make_unique<TimingEvaluator>(
            std::move(f->evaluators[t]), &counters);
      }
      sparktune::TunerOptions per_task = options.tuner;
      per_task.advisor.seed = MixSeed((seed << 16) + 0x8000 + t);
      SPARKTUNE_RETURN_IF_ERROR(f->services[s]->RegisterTask(
          task.id, f->evaluators[t].get(), task.manual_config, per_task));
      f->tracks[t].service = s;
      f->tracks[t].registered = true;
    }
    return Status::OK();
  };
  // Set-up: build both services and register the first cohort on a fresh
  // fleet. One sample takes ~0.3 ms and is mostly scheduling noise, so the
  // episode also times throwaway set-ups between ticks, every kSetupEvery
  // ticks, and reports the median.
  std::vector<double> setups;
  auto set_up = [&]() -> Result<std::unique_ptr<Fleet>> {
    const double start = NowS();
    auto f = std::make_unique<Fleet>();
    f->spaces[0] =
        sparktune::BuildSparkSpace(sparktune::ClusterSpec::ProductionGroup());
    f->spaces[1] =
        sparktune::BuildSparkSpace(sparktune::ClusterSpec::SmallSqlGroup());
    for (int s = 0; s < 2; ++s) {
      f->services[s] = std::make_unique<TuningService>(&f->spaces[s], options);
    }
    f->evaluators.resize(fleet.size());
    f->tracks.resize(fleet.size());
    f->quality.resize(fleet.size());
    SPARKTUNE_RETURN_IF_ERROR(register_cohort(f.get(), 0));
    setups.push_back(NowS() - start);
    return f;
  };
  SPARKTUNE_ASSIGN_OR_RETURN(f, set_up());
  TuningService* services[2] = {f->services[0].get(), f->services[1].get()};
  std::vector<TaskTrack>& tracks = f->tracks;

  constexpr int kLifetime = 1 + kBudget + kApplyPeriods;
  constexpr int kTotalTicks = (kCohorts - 1) * kArrivalEvery + kLifetime;
  int next_cohort = 1;
  Digest digest;
  std::vector<bool> retrain_ticks;  // meta only: one entry per tick
  for (int tick = 0; tick < kTotalTicks; ++tick) {
    if (tick > 0 && tick % kArrivalEvery == 0 && next_cohort < kCohorts) {
      SPARKTUNE_RETURN_IF_ERROR(register_cohort(f.get(), next_cohort++));
    }
    if (tick > 0 && tick % kSetupEvery == 0) {
      SPARKTUNE_RETURN_IF_ERROR(set_up().status());
    }
    // Untimed bookkeeping: who fires this tick, and in which phase.
    std::vector<std::string> ids[2];
    std::vector<size_t> index[2];
    std::vector<TunerPhase> phase[2];
    for (size_t t = 0; t < fleet.size(); ++t) {
      if (!tracks[t].registered || tracks[t].periods >= kLifetime) continue;
      const int s = tracks[t].service;
      ids[s].push_back(fleet[t].id);
      index[s].push_back(t);
      phase[s].push_back(services[s]->tuner(fleet[t].id)->phase());
    }

    std::vector<Result<Observation>> slots[2];
    sparktune::HarvestReport harvest;
    size_t kb_before = 0, kb_after = 0;
    const double cpu0 = SelfCpuS();
    const double t0 = NowS();
    {
      ScopedSpan tick_span(spans, "tick");
      for (int s = 0; s < 2; ++s) {
        ScopedSpan span(spans, "execute", tick_span.index());
        slots[s] = services[s]->ExecutePeriodicAll(ids[s]);
      }
      if (meta) {
        // One service harvests per tick, alternating, so the knowledge
        // bases grow at half a record per tick at most and the two
        // services never retrain in the same tick.
        TuningService* service = services[tick % 2];
        kb_before = service->knowledge_base().records().size();
        ScopedSpan span(spans, "harvest", tick_span.index());
        harvest = service->HarvestDirty(kHarvestPerTick);
        kb_after = service->knowledge_base().records().size();
      }
    }
    const double wall = NowS() - t0;
    timing.cpu_s += SelfCpuS() - cpu0;
    timing.tick_wall_s += wall;
    timing.tick_ms.push_back(wall * 1e3);

    // Untimed: fold the slots into the outcome.
    for (int s = 0; s < 2; ++s) {
      for (size_t i = 0; i < slots[s].size(); ++i) {
        TaskTrack& track = tracks[index[s][i]];
        ++out.slots;
        ++out.ops_attempted;
        ++track.periods;
        digest.Add(static_cast<long long>(index[s][i]));
        if (!slots[s][i].ok()) {
          ++out.ops_failed_unscripted;
          digest.Add(static_cast<long long>(slots[s][i].status().code()));
          continue;
        }
        ++out.periods_ok;
        DigestSlot(*slots[s][i], &digest);
        FoldSlot(phase[s][i], *slots[s][i], &f->quality[index[s][i]], &out);
      }
    }
    if (meta) {
      out.harvest_attempted += harvest.attempted;
      out.harvest_deferred += harvest.deferred;
      out.ops_attempted += harvest.attempted;
      out.ops_failed_unscripted += harvest.failed;
      out.harvest_records += static_cast<long long>(kb_after - kb_before);
      retrain_ticks.push_back(CrossesRetrain(kb_before, kb_after));
      if (retrain_ticks.back()) ++out.retrains;
    }
  }
  timing.peak_rss_mb = SelfPeakRssMb();
  timing.setup_s = Median(setups);

  // Untimed: end-of-episode state read through the public accessors.
  for (size_t t = 0; t < fleet.size(); ++t) {
    const TaskTrack& track = tracks[t];
    const sparktune::OnlineTuner* tuner =
        services[track.service]->tuner(fleet[t].id);
    ++out.tasks;
    out.restarts += tuner->restarts();
    if (tuner->advisor() != nullptr &&
        !tuner->advisor()->SaveState().warm_start.empty()) {
      ++out.warm_started_tasks;
    }
    digest.Add(tuner->BestConfig().values());
  }
  out.cost_reduction_pct = CostReductionPct(f->quality);
  for (const auto& service : services) {
    const auto& records = service->knowledge_base().records();
    std::set<std::string> unique;
    for (const auto& record : records) unique.insert(record.id);
    out.kb_records += static_cast<long long>(records.size());
    out.kb_unique_tasks += static_cast<long long>(unique.size());
  }
  out.digest = digest.value();

  if (traced) {
    auto& L = episode.layers;
    const double execute_wall = log.TotalMs("execute");
    const double execute_cpu = log.TotalCpuMs("execute");
    // Like from like: the execute spans' process CPU minus the thread CPU
    // the evaluator spent inside its calls.
    const double sim_cpu_ms =
        counters.run.busy_ms() + counters.resource_rate.busy_ms();
    // Execute spans add up per parent tick; harvest spans come one per
    // tick, in tick order.
    std::map<int, double> execute_ms_by_tick;
    std::vector<double> harvest_ms;
    for (const Span& span : log.spans()) {
      if (span.name == "execute") execute_ms_by_tick[span.parent] += span.ms();
      if (span.name == "harvest") harvest_ms.push_back(span.ms());
    }
    std::vector<double> execute_ms;
    for (const auto& [tick, ms] : execute_ms_by_tick) execute_ms.push_back(ms);
    L["service.execute_ms"] = Median(execute_ms);
    L["service.execute_parallel_eff_pct"] =
        execute_wall > 0.0 ? 100.0 * execute_cpu /
                                 (execute_wall * kThreads)
                           : 0.0;
    L["sparksim.runs"] = static_cast<double>(counters.run.calls.load());
    L["sparksim.run_ms"] = counters.run.busy_ms();
    L["sparksim.resource_rate_calls"] =
        static_cast<double>(counters.resource_rate.calls.load());
    L["sparksim.resource_rate_ms"] = counters.resource_rate.busy_ms();
    L["bo.self_ms"] = execute_cpu - sim_cpu_ms;
    if (meta) {
      double retrain_ms = 0.0, fold_ms = 0.0;
      for (size_t k = 0; k < harvest_ms.size(); ++k) {
        (retrain_ticks[k] ? retrain_ms : fold_ms) += harvest_ms[k];
      }
      const double total_ms = retrain_ms + fold_ms;
      L["service.harvest_ms"] = total_ms / kTotalTicks;
      L["forest.retrain_ms"] = retrain_ms;
      L["meta.fold_ms"] = fold_ms;
      L["harvest_tasks_per_s"] =
          total_ms > 0.0 ? out.harvest_records / (total_ms / 1e3) : 0.0;
    }
  }
  return episode;
}

}  // namespace perfbench
