// Reference codecs that the candidate-scoring hot path must reproduce
// bit-for-bit:
//   * DecodeSparkConfByName: one ConfigSpace::Get(c, name) per SparkConf
//     field, the decoder SparkConfLayout replaces;
//   * ToUnit / FromUnit: the closed-form log-scale unit codec, recomputing
//     log(lo) and log(hi) on every call;
//   * EncodeFeatures: the unit vector followed by a separately built
//     context vector, the composition Advisor::Encode replaces;
//   * Neighbor: Subspace::Neighbor through a free-dim unit vector
//     (encode all free dims, perturb, decode all), which the in-place
//     Subspace::Neighbor replaces.
// Header-only; shared by tests/sparksim_test.cc, tests/space_test.cc and
// bench/bench_kernels.cpp (the resource_rate and encode kernels). Nothing
// in src/ uses it.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "space/config_space.h"
#include "space/subspace.h"
#include "sparksim/spark_conf.h"

namespace sparktune::reference {

inline SparkConf DecodeSparkConfByName(const ConfigSpace& space,
                                       const Configuration& c) {
  namespace sp = spark_param;
  auto get = [&](const char* name) { return space.Get(c, name); };
  SparkConf conf;
  conf.executor_instances = static_cast<int>(get(sp::kExecutorInstances));
  conf.executor_cores = static_cast<int>(get(sp::kExecutorCores));
  conf.executor_memory_gb = get(sp::kExecutorMemory);
  conf.executor_memory_overhead_mb = get(sp::kExecutorMemoryOverhead);
  conf.driver_cores = static_cast<int>(get(sp::kDriverCores));
  conf.driver_memory_gb = get(sp::kDriverMemory);
  conf.default_parallelism = static_cast<int>(get(sp::kDefaultParallelism));
  conf.sql_shuffle_partitions =
      static_cast<int>(get(sp::kSqlShufflePartitions));
  conf.memory_fraction = get(sp::kMemoryFraction);
  conf.memory_storage_fraction = get(sp::kMemoryStorageFraction);
  conf.shuffle_compress = get(sp::kShuffleCompress) >= 0.5;
  conf.shuffle_spill_compress = get(sp::kShuffleSpillCompress) >= 0.5;
  conf.broadcast_compress = get(sp::kBroadcastCompress) >= 0.5;
  conf.rdd_compress = get(sp::kRddCompress) >= 0.5;
  conf.io_codec = static_cast<Codec>(
      static_cast<int>(get(sp::kIoCompressionCodec)));
  conf.serializer =
      static_cast<Serializer>(static_cast<int>(get(sp::kSerializer)));
  conf.kryo_buffer_kb = get(sp::kKryoBufferKb);
  conf.kryo_buffer_max_mb = get(sp::kKryoBufferMaxMb);
  conf.reducer_max_size_in_flight_mb = get(sp::kReducerMaxSizeInFlight);
  conf.shuffle_file_buffer_kb = get(sp::kShuffleFileBuffer);
  conf.shuffle_sort_bypass_merge_threshold =
      static_cast<int>(get(sp::kShuffleSortBypassMergeThreshold));
  conf.shuffle_io_num_connections_per_peer =
      static_cast<int>(get(sp::kShuffleIoNumConnectionsPerPeer));
  conf.speculation = get(sp::kSpeculation) >= 0.5;
  conf.speculation_multiplier = get(sp::kSpeculationMultiplier);
  conf.locality_wait_sec = get(sp::kLocalityWait);
  conf.scheduler_revive_interval_ms = get(sp::kSchedulerReviveInterval);
  conf.task_max_failures = static_cast<int>(get(sp::kTaskMaxFailures));
  conf.broadcast_block_size_mb = get(sp::kBroadcastBlockSize);
  conf.storage_memory_map_threshold_mb =
      get(sp::kStorageMemoryMapThreshold);
  conf.network_timeout_sec = get(sp::kNetworkTimeout);
  return conf;
}

// Every field equal (doubles compared exactly; decoded values are finite).
inline bool SameSparkConf(const SparkConf& a, const SparkConf& b) {
  return a.executor_instances == b.executor_instances &&
         a.executor_cores == b.executor_cores &&
         a.executor_memory_gb == b.executor_memory_gb &&
         a.executor_memory_overhead_mb == b.executor_memory_overhead_mb &&
         a.driver_cores == b.driver_cores &&
         a.driver_memory_gb == b.driver_memory_gb &&
         a.default_parallelism == b.default_parallelism &&
         a.sql_shuffle_partitions == b.sql_shuffle_partitions &&
         a.memory_fraction == b.memory_fraction &&
         a.memory_storage_fraction == b.memory_storage_fraction &&
         a.shuffle_compress == b.shuffle_compress &&
         a.shuffle_spill_compress == b.shuffle_spill_compress &&
         a.broadcast_compress == b.broadcast_compress &&
         a.rdd_compress == b.rdd_compress && a.io_codec == b.io_codec &&
         a.serializer == b.serializer &&
         a.kryo_buffer_kb == b.kryo_buffer_kb &&
         a.kryo_buffer_max_mb == b.kryo_buffer_max_mb &&
         a.reducer_max_size_in_flight_mb == b.reducer_max_size_in_flight_mb &&
         a.shuffle_file_buffer_kb == b.shuffle_file_buffer_kb &&
         a.shuffle_sort_bypass_merge_threshold ==
             b.shuffle_sort_bypass_merge_threshold &&
         a.shuffle_io_num_connections_per_peer ==
             b.shuffle_io_num_connections_per_peer &&
         a.speculation == b.speculation &&
         a.speculation_multiplier == b.speculation_multiplier &&
         a.locality_wait_sec == b.locality_wait_sec &&
         a.scheduler_revive_interval_ms == b.scheduler_revive_interval_ms &&
         a.task_max_failures == b.task_max_failures &&
         a.broadcast_block_size_mb == b.broadcast_block_size_mb &&
         a.storage_memory_map_threshold_mb ==
             b.storage_memory_map_threshold_mb &&
         a.network_timeout_sec == b.network_timeout_sec;
}

inline double ToUnit(const Parameter& p, double value) {
  if (!p.is_numeric() || !p.log_scale()) return p.ToUnit(value);
  if (p.hi() == p.lo()) return 0.5;
  double lv = std::log(std::max(value, p.lo()));
  return std::clamp((lv - std::log(p.lo())) /
                        (std::log(p.hi()) - std::log(p.lo())),
                    0.0, 1.0);
}

inline double FromUnit(const Parameter& p, double unit) {
  if (!p.is_numeric() || !p.log_scale()) return p.FromUnit(unit);
  unit = std::clamp(unit, 0.0, 1.0);
  double v = std::exp(std::log(p.lo()) +
                      unit * (std::log(p.hi()) - std::log(p.lo())));
  return p.type() == ParamType::kInt ? p.Legalize(v) : v;
}

inline std::vector<double> EncodeFeatures(
    const ConfigSpace& space, const Configuration& c,
    const std::vector<double>& context) {
  std::vector<double> features(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    features[i] = ToUnit(space.param(i), c[i]);
  }
  features.insert(features.end(), context.begin(), context.end());
  return features;
}

inline Configuration Neighbor(const Subspace& sub, const Configuration& c,
                              double sigma, Rng* rng) {
  const ConfigSpace& space = sub.space();
  const std::vector<int>& free = sub.free_indices();
  std::vector<double> u(free.size());
  for (size_t k = 0; k < free.size(); ++k) {
    const size_t idx = static_cast<size_t>(free[k]);
    u[k] = ToUnit(space.param(idx), c[idx]);
  }
  bool changed = false;
  double p_mutate = free.empty() ? 0.0 : 1.0 / static_cast<double>(free.size());
  for (size_t k = 0; k < u.size(); ++k) {
    if (rng->Bernoulli(p_mutate)) {
      u[k] = std::clamp(u[k] + rng->Normal(0.0, sigma), 0.0, 1.0);
      changed = true;
    }
  }
  if (!changed && !u.empty()) {
    size_t k = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(u.size()) - 1));
    u[k] = std::clamp(u[k] + rng->Normal(0.0, sigma), 0.0, 1.0);
  }
  Configuration out = sub.base();
  for (size_t k = 0; k < free.size(); ++k) {
    const size_t idx = static_cast<size_t>(free[k]);
    out[idx] = FromUnit(space.param(idx), u[k]);
  }
  return out;
}

}  // namespace sparktune::reference
