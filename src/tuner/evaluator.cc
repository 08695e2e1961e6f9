#include "tuner/evaluator.h"

#include <cassert>

namespace sparktune {

FailureKind MapSimFailure(SimFailureKind kind) {
  switch (kind) {
    case SimFailureKind::kNone:
      return FailureKind::kNone;
    // Memory-class failures, incl. kNoExecutors: the configuration asked
    // for containers the cluster cannot grant, which is as
    // configuration-induced as an OOM kill.
    case SimFailureKind::kNoExecutors:
    case SimFailureKind::kExecutorOom:
    case SimFailureKind::kContainerKill:
    case SimFailureKind::kDriverOom:
      return FailureKind::kOom;
    case SimFailureKind::kFetchTimeout:
      return FailureKind::kTimeout;
  }
  return FailureKind::kNone;
}

SimulatorEvaluator::SimulatorEvaluator(const ConfigSpace* space,
                                       WorkloadSpec workload,
                                       ClusterSpec cluster, DriftModel drift,
                                       SimulatorEvaluatorOptions options)
    : layout_(*space),
      workload_(std::move(workload)),
      drift_(drift),
      options_(options),
      simulator_(std::move(cluster), options.sim) {
  assert(workload_.Valid());
}

double SimulatorEvaluator::DataSizeForExecution(int index) const {
  double hours = index * options_.period_hours;
  return workload_.input_gb *
         drift_.Multiplier(hours, options_.seed, index);
}

JobEvaluator::Outcome SimulatorEvaluator::Run(const Configuration& config) {
  double data_gb = DataSizeForExecution(executions_);
  SparkConf conf = layout_.Decode(config);
  uint64_t run_seed =
      options_.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(executions_);
  ExecutionResult result =
      simulator_.Execute(workload_, conf, data_gb, run_seed);
  ++executions_;

  Outcome out;
  out.runtime_sec = result.runtime_sec;
  out.resource_rate = result.resource_rate;
  out.memory_gb_hours = result.memory_gb_hours;
  out.cpu_core_hours = result.cpu_core_hours;
  out.failure = MapSimFailure(result.failure);
  out.data_size_gb = options_.datasize_observable ? data_gb : -1.0;
  out.hours = (executions_ - 1) * options_.period_hours;
  out.event_log = std::move(result.event_log);
  return out;
}

double SimulatorEvaluator::ResourceRate(const Configuration& config) const {
  SparkConf conf = layout_.Decode(config);
  return ResourceFunction(conf, options_.sim.mem_weight);
}

double SimulatorEvaluator::NextHours() const {
  return executions_ * options_.period_hours;
}

double SimulatorEvaluator::NextDataSizeHintGb() const {
  if (!options_.datasize_observable) return -1.0;
  // The platform can estimate the upcoming input from upstream tables; the
  // drift mean (without run noise) is that estimate.
  DriftModel noiseless = drift_;
  noiseless.noise_sigma = 0.0;
  return workload_.input_gb *
         noiseless.Multiplier(executions_ * options_.period_hours,
                              options_.seed, executions_);
}

}  // namespace sparktune
