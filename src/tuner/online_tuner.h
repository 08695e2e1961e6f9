// OnlineTune controller (paper §3.1, §3.3): orchestrates the per-job online
// tuning loop against the data platform. States:
//
//   baseline  -> measure the manual configuration once, derive the
//                constraints (T_max, R_max = factor x baseline metrics);
//   tuning    -> Advisor::Suggest per periodic execution, until the budget
//                exhausts or the EI stopping criterion fires;
//   applying  -> keep running the best-found configuration; continuous
//                degradation vs. the expected objective triggers a restart
//                of tuning (workload shifted).
#pragma once

#include <memory>
#include <optional>

#include "bo/advisor.h"
#include "common/backoff.h"
#include "tuner/evaluator.h"

namespace sparktune {

enum class TunerPhase { kBaseline, kTuning, kApplying };

struct TunerOptions {
  // Tuning budget in iterations (online executions used for search).
  int budget = 20;
  AdvisorOptions advisor;

  // Constraints = factor x baseline metrics (paper §6.2: "twice the metrics
  // of the manual configurations"). Ignored if measure_baseline is false —
  // then advisor.objective must carry explicit thresholds.
  bool measure_baseline = true;
  double constraint_runtime_factor = 2.0;
  double constraint_resource_factor = 2.0;

  // Early stop when relative EI drops below this threshold (<=0 disables).
  double ei_stop_threshold = 0.10;
  int min_iterations_before_stop = 8;

  // Restart when the applied config's objective exceeds expectation by
  // `degradation_factor` for `degradation_window` consecutive executions
  // (0 disables).
  double degradation_factor = 1.3;
  int degradation_window = 3;

  // Infra-failure handling (DESIGN.md §7). The tuner uses max_attempts to
  // bound how often the same pending suggestion is retried; the service
  // watchdog uses the backoff/circuit-breaker fields.
  RetryPolicy retry;
};

// Serialized mutable state of an OnlineTuner (checkpoint payload).
// `executions` counts evaluator Run() calls, which is exactly how far a
// rebuilt evaluator must be fast-forwarded (JobEvaluator::SkipExecutions)
// on restore. Resolved constraints travel with the snapshot because they
// were derived from the baseline run, not from options.
struct TunerState {
  int phase = 0;  // TunerPhase as int
  double runtime_max = std::numeric_limits<double>::infinity();
  double resource_max = std::numeric_limits<double>::infinity();
  std::optional<Observation> baseline_obs;
  int tuning_iterations = 0;
  int executions = 0;
  bool stopped_early = false;
  int restarts = 0;
  int degradation_streak = 0;
  std::optional<Configuration> pending_config;
  int pending_attempts = 0;
  bool has_advisor = false;
  AdvisorState advisor;  // valid iff has_advisor
};

struct TuningReport {
  Configuration best_config;
  double best_objective = 0.0;
  std::optional<Observation> baseline;
  int tuning_iterations = 0;
  bool stopped_early = false;
  int restarts = 0;
};

class OnlineTuner {
 public:
  // `baseline` is the manual/pre-tuning configuration (defaults to the
  // space default when empty).
  OnlineTuner(const ConfigSpace* space, JobEvaluator* evaluator,
              TunerOptions options,
              std::optional<Configuration> baseline = std::nullopt);

  // One periodic execution (suggest/apply + run + record). Returns the
  // observation of that execution. An infra failure (Outcome kInfra) is
  // returned but never fed to the advisor: the suggestion stays pending
  // and the next Step retries it (up to options.retry.max_attempts), so
  // infrastructure faults cannot poison the safety labels or advance the
  // advisor's RNG streams.
  Observation Step();

  // Degraded-mode execution for a parked (circuit-broken) task: run the
  // incumbent/baseline configuration without consulting the advisor. The
  // observation is marked `degraded` and recorded nowhere, leaving the
  // tuning trajectory untouched for when the breaker closes.
  Observation StepDegraded();

  // Convenience: run `executions` steps and summarize.
  TuningReport RunToCompletion(int executions);

  TunerPhase phase() const { return phase_; }
  const RunHistory& history() const;
  Configuration BestConfig() const;
  double BestObjective() const;
  const std::optional<Observation>& baseline_observation() const {
    return baseline_obs_;
  }
  // Advisor access for meta-learning wiring; null until the baseline has
  // been measured (or immediately if measure_baseline is false).
  Advisor* advisor() { return advisor_.get(); }
  const Advisor* advisor() const { return advisor_.get(); }

  int tuning_iterations() const { return tuning_iterations_; }
  bool stopped_early() const { return stopped_early_; }
  int restarts() const { return restarts_; }
  const TuningObjective& objective() const { return objective_; }
  // Event log of the most recent execution (meta-feature source). Empty
  // after CompactLastEventLog() until the next execution refills it.
  const EventLog& last_event_log() const { return last_event_log_; }
  // Fleet diet: release the retained event log (stage records plus metric
  // distributions), keeping only a compact digest. Callers that need the
  // full log must consume it before the end of the period.
  void CompactLastEventLog();
  // Digest of the log most recently compacted ({} until first compaction).
  const EventLogSummary& last_event_summary() const {
    return last_event_summary_;
  }

  // Pending meta hooks applied when the advisor is created.
  void SetWarmStartConfigs(std::vector<Configuration> configs);
  void SetObjectiveSurrogateFactory(SurrogateFactory factory);
  void SeedImportance(std::vector<double> scores, double weight = 1.0);

  // Total evaluator Run() calls issued so far (the fast-forward distance a
  // rebuilt evaluator needs on restore).
  int executions() const { return executions_; }

  // Snapshot / restore the full mutable state (checkpoint support).
  // Restore expects a tuner built over the same space, options, and
  // baseline; the evaluator is NOT rewound here — the caller fast-forwards
  // it with JobEvaluator::SkipExecutions(state.executions).
  TunerState SaveState() const;
  void RestoreState(const TunerState& s);

 private:
  Observation MakeObservation(const Configuration& config,
                              const JobEvaluator::Outcome& outcome,
                              int iteration) const;
  void EnsureAdvisor();

  const ConfigSpace* space_;
  JobEvaluator* evaluator_;
  TunerOptions options_;
  Configuration baseline_config_;
  TuningObjective objective_;  // with resolved constraints

  TunerPhase phase_;
  std::unique_ptr<Advisor> advisor_;
  std::optional<Observation> baseline_obs_;
  EventLog last_event_log_;
  EventLogSummary last_event_summary_;
  int tuning_iterations_ = 0;
  int executions_ = 0;
  bool stopped_early_ = false;
  int restarts_ = 0;
  int degradation_streak_ = 0;

  // Suggestion awaiting a successful execution: set when the advisor is
  // consulted, kept across infra failures (bounded by retry.max_attempts)
  // so a retry re-runs the same configuration instead of burning a fresh
  // advisor draw.
  std::optional<Configuration> pending_config_;
  int pending_attempts_ = 0;

  // Deferred meta hooks.
  std::vector<Configuration> pending_warm_start_;
  SurrogateFactory pending_factory_;
  std::vector<std::pair<std::vector<double>, double>> pending_importance_;
};

}  // namespace sparktune
