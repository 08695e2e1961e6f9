#include "tuner/online_tuner.h"

#include <cassert>
#include <cmath>

namespace sparktune {

OnlineTuner::OnlineTuner(const ConfigSpace* space, JobEvaluator* evaluator,
                         TunerOptions options,
                         std::optional<Configuration> baseline)
    : space_(space),
      evaluator_(evaluator),
      options_(std::move(options)),
      objective_(options_.advisor.objective) {
  assert(space_ != nullptr && evaluator_ != nullptr);
  baseline_config_ =
      baseline.has_value() ? space_->Legalize(*baseline) : space_->Default();
  phase_ = options_.measure_baseline ? TunerPhase::kBaseline
                                     : TunerPhase::kTuning;
  if (!options_.measure_baseline) EnsureAdvisor();
}

void OnlineTuner::SetWarmStartConfigs(std::vector<Configuration> configs) {
  if (advisor_) {
    advisor_->SetWarmStartConfigs(std::move(configs));
  } else {
    pending_warm_start_ = std::move(configs);
  }
}

void OnlineTuner::SetObjectiveSurrogateFactory(SurrogateFactory factory) {
  if (advisor_) {
    advisor_->SetObjectiveSurrogateFactory(std::move(factory));
  } else {
    pending_factory_ = std::move(factory);
  }
}

void OnlineTuner::SeedImportance(std::vector<double> scores, double weight) {
  if (advisor_) {
    advisor_->SeedImportance(scores, weight);
  } else {
    pending_importance_.emplace_back(std::move(scores), weight);
  }
}

void OnlineTuner::EnsureAdvisor() {
  if (advisor_) return;
  AdvisorOptions aopts = options_.advisor;
  aopts.objective = objective_;
  if (!aopts.resource_fn) {
    aopts.resource_fn = [this](const Configuration& c) {
      return evaluator_->ResourceRate(c);
    };
  }
  advisor_ = std::make_unique<Advisor>(space_, std::move(aopts));
  if (!pending_warm_start_.empty()) {
    advisor_->SetWarmStartConfigs(std::move(pending_warm_start_));
    pending_warm_start_.clear();
  }
  if (pending_factory_) {
    advisor_->SetObjectiveSurrogateFactory(std::move(pending_factory_));
    pending_factory_ = nullptr;
  }
  for (auto& [scores, weight] : pending_importance_) {
    advisor_->SeedImportance(scores, weight);
  }
  pending_importance_.clear();
}

Observation OnlineTuner::MakeObservation(const Configuration& config,
                                         const JobEvaluator::Outcome& outcome,
                                         int iteration) const {
  Observation obs;
  obs.config = config;
  obs.runtime_sec = outcome.runtime_sec;
  obs.resource_rate = outcome.resource_rate;
  obs.memory_gb_hours = outcome.memory_gb_hours;
  obs.cpu_core_hours = outcome.cpu_core_hours;
  obs.data_size_gb = outcome.data_size_gb;
  obs.hours = outcome.hours;
  obs.failure = outcome.failure;
  obs.objective = objective_.Value(outcome.runtime_sec, outcome.resource_rate);
  obs.feasible =
      !outcome.failed() &&
      objective_.Feasible(outcome.runtime_sec, outcome.resource_rate);
  obs.iteration = iteration;
  return obs;
}

Observation OnlineTuner::Step() {
  ++executions_;
  switch (phase_) {
    case TunerPhase::kBaseline: {
      JobEvaluator::Outcome outcome = evaluator_->Run(baseline_config_);
      if (outcome.failure == FailureKind::kInfra) {
        // The baseline never actually ran: stay in kBaseline and retry next
        // period rather than deriving constraints from a phantom run.
        return MakeObservation(baseline_config_, outcome, 0);
      }
      last_event_log_ = outcome.event_log;
      // Derive constraints from the manual metrics.
      objective_.runtime_max =
          outcome.runtime_sec * options_.constraint_runtime_factor;
      objective_.resource_max =
          outcome.resource_rate * options_.constraint_resource_factor;
      Observation obs = MakeObservation(baseline_config_, outcome, 0);
      baseline_obs_ = obs;
      EnsureAdvisor();
      advisor_->Observe(obs);
      phase_ = TunerPhase::kTuning;
      return obs;
    }
    case TunerPhase::kTuning: {
      EnsureAdvisor();
      Configuration config;
      if (pending_config_.has_value()) {
        config = *pending_config_;
      } else {
        config = advisor_->Suggest(evaluator_->NextDataSizeHintGb(),
                                   evaluator_->NextHours());
        pending_config_ = config;
        pending_attempts_ = 0;
      }
      JobEvaluator::Outcome outcome = evaluator_->Run(config);
      if (outcome.failure == FailureKind::kInfra) {
        // The platform failed, not the configuration: keep the suggestion
        // pending for a retry and keep the outcome away from the advisor so
        // infra noise never becomes an unsafe-config label nor advances the
        // suggestion RNG streams.
        if (++pending_attempts_ >= options_.retry.max_attempts) {
          pending_config_.reset();
          pending_attempts_ = 0;
        }
        return MakeObservation(config, outcome, tuning_iterations_);
      }
      pending_config_.reset();
      pending_attempts_ = 0;
      last_event_log_ = outcome.event_log;
      ++tuning_iterations_;
      Observation obs = MakeObservation(config, outcome, tuning_iterations_);
      advisor_->Observe(obs);

      bool budget_done = tuning_iterations_ >= options_.budget;
      bool ei_stop = false;
      if (options_.ei_stop_threshold > 0.0 &&
          tuning_iterations_ >= options_.min_iterations_before_stop &&
          !advisor_->last_was_initial() && !advisor_->last_was_agd()) {
        double incumbent = advisor_->BestObjective();
        // In log space the raw EI is already a relative improvement (nats);
        // otherwise normalize by the incumbent.
        double rel_ei = advisor_->options().log_targets
                            ? advisor_->last_raw_ei()
                            : advisor_->last_raw_ei() / incumbent;
        if (std::isfinite(incumbent) && incumbent > 0.0 &&
            rel_ei < options_.ei_stop_threshold) {
          ei_stop = true;
        }
      }
      if (budget_done || ei_stop) {
        stopped_early_ = ei_stop && !budget_done;
        phase_ = TunerPhase::kApplying;
        degradation_streak_ = 0;
      }
      return obs;
    }
    case TunerPhase::kApplying: {
      Configuration best = BestConfig();
      JobEvaluator::Outcome outcome = evaluator_->Run(best);
      if (outcome.failure == FailureKind::kInfra) {
        // Not evidence about the configuration: skip the degradation-restart
        // bookkeeping entirely.
        return MakeObservation(best, outcome, tuning_iterations_);
      }
      last_event_log_ = outcome.event_log;
      Observation obs = MakeObservation(best, outcome, tuning_iterations_);

      // Continuous-degradation restart check (§3.3).
      if (options_.degradation_window > 0 && advisor_) {
        double expected = advisor_->BestObjective();
        if (std::isfinite(expected) &&
            obs.objective > expected * options_.degradation_factor) {
          if (++degradation_streak_ >= options_.degradation_window) {
            ++restarts_;
            tuning_iterations_ = 0;
            stopped_early_ = false;
            degradation_streak_ = 0;
            advisor_->ResetForRestart();
            phase_ = TunerPhase::kTuning;
          }
        } else {
          degradation_streak_ = 0;
        }
      }
      return obs;
    }
  }
  // Unreachable.
  return Observation{};
}

Observation OnlineTuner::StepDegraded() {
  ++executions_;
  Configuration best = BestConfig();
  JobEvaluator::Outcome outcome = evaluator_->Run(best);
  last_event_log_ = outcome.event_log;
  Observation obs = MakeObservation(best, outcome, tuning_iterations_);
  obs.degraded = true;
  // Deliberately not observed: a parked task's incumbent replays must not
  // shift the trajectory it resumes later.
  return obs;
}

TunerState OnlineTuner::SaveState() const {
  TunerState s;
  s.phase = static_cast<int>(phase_);
  s.runtime_max = objective_.runtime_max;
  s.resource_max = objective_.resource_max;
  s.baseline_obs = baseline_obs_;
  s.tuning_iterations = tuning_iterations_;
  s.executions = executions_;
  s.stopped_early = stopped_early_;
  s.restarts = restarts_;
  s.degradation_streak = degradation_streak_;
  s.pending_config = pending_config_;
  s.pending_attempts = pending_attempts_;
  s.has_advisor = advisor_ != nullptr;
  if (advisor_) s.advisor = advisor_->SaveState();
  return s;
}

void OnlineTuner::RestoreState(const TunerState& s) {
  phase_ = static_cast<TunerPhase>(s.phase);
  objective_.runtime_max = s.runtime_max;
  objective_.resource_max = s.resource_max;
  baseline_obs_ = s.baseline_obs;
  tuning_iterations_ = s.tuning_iterations;
  executions_ = s.executions;
  stopped_early_ = s.stopped_early;
  restarts_ = s.restarts;
  degradation_streak_ = s.degradation_streak;
  pending_config_ = s.pending_config;
  pending_attempts_ = s.pending_attempts;
  if (s.has_advisor) {
    // EnsureAdvisor copies objective_ (with the constraints restored above)
    // into the advisor options, so the rebuilt advisor sees the same
    // thresholds the checkpointed one derived from its baseline.
    EnsureAdvisor();
    advisor_->RestoreState(s.advisor);
  }
}

TuningReport OnlineTuner::RunToCompletion(int executions) {
  for (int i = 0; i < executions; ++i) Step();
  TuningReport report;
  report.best_config = BestConfig();
  report.best_objective = BestObjective();
  report.baseline = baseline_obs_;
  report.tuning_iterations = tuning_iterations_;
  report.stopped_early = stopped_early_;
  report.restarts = restarts_;
  return report;
}

void OnlineTuner::CompactLastEventLog() {
  if (last_event_log_.stages.empty()) return;  // already compact
  last_event_summary_ = SummarizeEventLog(last_event_log_);
  last_event_log_ = EventLog{};  // releases the stage arena
}

const RunHistory& OnlineTuner::history() const {
  static const RunHistory kEmpty;
  return advisor_ ? advisor_->history() : kEmpty;
}

Configuration OnlineTuner::BestConfig() const {
  if (advisor_) {
    const RunHistory& h = advisor_->history();
    int best = h.BestFeasibleIndex();
    if (best >= 0) return h.config(static_cast<size_t>(best));
  }
  return baseline_config_;
}

double OnlineTuner::BestObjective() const {
  return advisor_ ? advisor_->BestObjective()
                  : std::numeric_limits<double>::infinity();
}

}  // namespace sparktune
