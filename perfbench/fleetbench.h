// The fleet-tick benchmark's episode model. One episode builds a fresh
// fleet from the seed, drives it through a fixed number of closed-loop
// ticks (fire a tick, wait for every slot, fire the next), and returns
//   * an Outcome: everything that is a function of (workload, seed) alone —
//     slot counts, tuning quality, knowledge-base sizes, a digest of every
//     slot and final incumbent. Every episode of a run, traced or not, must
//     produce the same Outcome; any difference fails the run.
//   * a Timing: set-up time, per-tick wall times and CPU, peak memory.
//   * layer numbers, filled only when the episode is traced.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bo/history.h"
#include "common/result.h"
#include "tuner/online_tuner.h"

namespace perfbench {

// SplitMix64 finalizer for seeds the benchmark derives. SimulatorEvaluator
// seeds each execution's stream with seed * 0x9E3779B97F4A7C15 + execution,
// the same constant Rng's SplitMix seeding steps by, so evaluators with
// adjacent seeds would draw overlapping, shifted noise streams.
inline uint64_t MixSeed(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Outcome {
  long long tasks = 0;
  long long slots = 0;         // tick slots attempted
  long long periods_ok = 0;    // slots that executed a period
  long long parked_slots = 0;  // scripted kUnavailable slots (rpc-apply)
  long long tuning_periods = 0;
  long long infeasible = 0;  // tuning-phase slots that failed or broke a
                             // constraint
  double cost_reduction_pct = 0.0;
  long long restarts = 0;  // tuner degradation restarts, summed over tasks
  long long warm_started_tasks = 0;
  long long kb_records = 0;
  long long kb_unique_tasks = 0;
  long long retrains = 0;  // similarity retrains (doubling schedule)
  long long harvest_attempted = 0;
  long long harvest_deferred = 0;
  long long harvest_records = 0;  // records the knowledge base grew by
  long long checkpoints_written = 0;
  long long restarts_attempted = 0;  // RestartShard calls (rpc-apply)
  long long restored_tasks = 0;
  long long replayed_periods = 0;
  // failed_pct accounting: every attempted operation, the failures the
  // workload scripts (parked slots), and the ones it does not.
  long long ops_attempted = 0;
  long long ops_failed_scripted = 0;
  long long ops_failed_unscripted = 0;
  uint64_t digest = 0;  // every slot in order plus every final incumbent

  double infeasible_pct() const {
    return tuning_periods > 0
               ? 100.0 * static_cast<double>(infeasible) /
                     static_cast<double>(tuning_periods)
               : 0.0;
  }
  // Names of the fields that differ from `other` (empty when equal).
  std::vector<std::string> Diff(const Outcome& other) const;
};

struct Timing {
  double setup_s = 0.0;
  std::vector<double> tick_ms;
  double tick_wall_s = 0.0;
  double cpu_s = 0.0;  // serving-process CPU attributed to the ticks
  double peak_rss_mb = 0.0;
};

struct Episode {
  Outcome outcome;
  Timing timing;
  std::map<std::string, double> layers;  // traced episodes only
};

// Quality bookkeeping of one task, folded slot by slot in tick order.
struct TaskQuality {
  double baseline_objective = 0.0;
  bool baseline_feasible = false;
  double best_feasible = std::numeric_limits<double>::infinity();
};

// Folds one executed slot, run in `phase`, into its task and into the
// outcome's tuning-phase and infeasible counts.
void FoldSlot(sparktune::TunerPhase phase, const sparktune::Observation& obs,
              TaskQuality* task, Outcome* outcome);

// Mean over tasks with a feasible, positive baseline of
// 1 - best feasible objective / baseline objective, in percent.
double CostReductionPct(const std::vector<TaskQuality>& tasks);

// In-process workloads: fleet-tune (meta off) and meta-transfer (meta on).
sparktune::Result<Episode> RunFleetEpisode(bool meta, uint64_t seed,
                                           bool traced);

// Where the multi-process workload (rpc-apply) finds its worker binary
// and keeps its sockets and repository.
struct RpcDeployment {
  std::string shardd_path;
  std::string work_dir;  // relative to the working directory: socket paths
                         // must stay under the 108-byte sun_path limit
};

// Slots of one rpc-apply episode kept for the oracle check.
struct RpcTrajectory {
  std::vector<std::string> ids;
  std::vector<std::vector<std::vector<double>>> slots;  // [task][period]
  std::vector<long long> periods;                       // final clocks
  std::vector<std::vector<double>> incumbents;          // fetched by wire
};

// Spawns and stops the workers once, untimed, so the first episode does
// not pay for loading the worker binary.
sparktune::Status WarmUpRpc(const RpcDeployment& deployment);

sparktune::Result<Episode> RunRpcEpisode(const RpcDeployment& deployment,
                                         uint64_t seed, bool traced,
                                         RpcTrajectory* trajectory);

// Replays the episode's tasks through an in-process TuningService built
// with BuildSimEvaluator + MakeServiceOptions and compares every slot,
// final period clock and incumbent. Also fills the outcome fields that
// need each slot's tuner phase, which only the oracle can see.
sparktune::Status CheckRpcAgainstOracle(uint64_t seed,
                                        const RpcTrajectory& trajectory,
                                        Outcome* outcome);

}  // namespace perfbench
