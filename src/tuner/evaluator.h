// JobEvaluator: the boundary between the tuner and the execution substrate.
// One Run() = one online periodic execution of the Spark job with the given
// configuration. SimulatorEvaluator backs it with the Spark simulator and a
// data-size drift process.
#pragma once

#include <cstdint>

#include "common/failure.h"
#include "sparksim/drift.h"
#include "sparksim/event_log.h"
#include "sparksim/runtime_model.h"
#include "sparksim/spark_conf.h"
#include "space/config_space.h"

namespace sparktune {

// Collapse the simulator's fine-grained failure taxonomy into the tuner's:
// every simulated failure is configuration-induced (the simulator has no
// infrastructure faults — those come from FaultInjectingEvaluator).
FailureKind MapSimFailure(SimFailureKind kind);

class JobEvaluator {
 public:
  struct Outcome {
    double runtime_sec = 0.0;
    double resource_rate = 0.0;  // R(x)
    double memory_gb_hours = 0.0;
    double cpu_core_hours = 0.0;
    // Typed failure taxonomy (common/failure.h): kOom/kTimeout are
    // configuration-induced; kInfra is an execution-substrate fault the
    // service watchdog retries without blaming the configuration.
    FailureKind failure = FailureKind::kNone;
    double data_size_gb = -1.0;  // <0 when unobservable
    double hours = -1.0;         // execution start, hours since task start
    EventLog event_log;

    bool failed() const { return IsFailure(failure); }
  };

  virtual ~JobEvaluator() = default;

  // Execute the job once with `config`; advances the evaluator's clock.
  virtual Outcome Run(const Configuration& config) = 0;

  // White-box resource rate R(x) of a configuration (no execution).
  virtual double ResourceRate(const Configuration& config) const = 0;

  // Expected input size of the next execution (<0 = unknown).
  virtual double NextDataSizeHintGb() const { return -1.0; }

  // Start time (hours since the task started) of the next execution;
  // always known for periodic jobs.
  virtual double NextHours() const { return -1.0; }

  // Fast-forward the clock by `n` executions without running anything.
  // Checkpoint restore uses this so a rebuilt evaluator resumes at the
  // same simulated time (and, for fault injectors, the same fault-schedule
  // cursor). Default: no-op for stateless evaluators.
  virtual void SkipExecutions(int n) { (void)n; }
};

struct SimulatorEvaluatorOptions {
  double period_hours = 1.0;  // one execution per period
  SimOptions sim;
  // Expose the true data size to the tuner (false simulates the paper's
  // data-privacy case where only time-of-day context is available).
  bool datasize_observable = true;
  uint64_t seed = 1;
};

class SimulatorEvaluator final : public JobEvaluator {
 public:
  SimulatorEvaluator(const ConfigSpace* space, WorkloadSpec workload,
                     ClusterSpec cluster, DriftModel drift,
                     SimulatorEvaluatorOptions options = {});

  Outcome Run(const Configuration& config) override;
  double ResourceRate(const Configuration& config) const override;
  double NextDataSizeHintGb() const override;
  double NextHours() const override;
  void SkipExecutions(int n) override { executions_ += n; }

  int executions() const { return executions_; }
  const WorkloadSpec& workload() const { return workload_; }
  const SparkSimulator& simulator() const { return simulator_; }

 private:
  double DataSizeForExecution(int index) const;

  // Parameter positions in the evaluator's space, resolved once; Run and
  // ResourceRate decode through it.
  SparkConfLayout layout_;
  WorkloadSpec workload_;
  DriftModel drift_;
  SimulatorEvaluatorOptions options_;
  SparkSimulator simulator_;
  int executions_ = 0;
};

}  // namespace sparktune
