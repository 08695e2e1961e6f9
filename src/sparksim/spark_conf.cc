#include "sparksim/spark_conf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sparktune {

ConfigSpace BuildSparkSpace(const ClusterSpec& cluster) {
  ConfigSpace space;
  namespace sp = spark_param;

  // Resource shape. Instance cap: what the cluster could hold with the
  // smallest executors, bounded to keep the space sane.
  int max_instances =
      std::clamp(cluster.total_cores(), 8, 1024);
  int default_instances = std::max(2, cluster.num_nodes * 2);
  int max_cores = std::min(8, cluster.cores_per_node);
  double max_exec_mem =
      std::clamp(cluster.mem_per_node_gb / 2.0, 4.0, 48.0);

  auto add = [&space](Parameter p) {
    Status s = space.Add(std::move(p));
    assert(s.ok());
    (void)s;
  };

  add(Parameter::Int(sp::kExecutorInstances, 1, max_instances,
                     default_instances, /*log_scale=*/true));
  add(Parameter::Int(sp::kExecutorCores, 1, max_cores, 2));
  add(Parameter::Int(sp::kExecutorMemory, 1,
                     static_cast<int64_t>(max_exec_mem), 4,
                     /*log_scale=*/true));
  add(Parameter::Int(sp::kExecutorMemoryOverhead, 384, 4096, 384,
                     /*log_scale=*/true));
  add(Parameter::Int(sp::kDriverCores, 1, 8, 2));
  add(Parameter::Int(sp::kDriverMemory, 1, 16, 4, /*log_scale=*/true));
  // Spark defaults spark.default.parallelism to the total core count for
  // distributed shuffles.
  int default_parallelism = std::clamp(cluster.total_cores(), 8, 2000);
  add(Parameter::Int(sp::kDefaultParallelism, 8, 2000, default_parallelism,
                     /*log_scale=*/true));
  add(Parameter::Int(sp::kSqlShufflePartitions, 8, 2000, 200,
                     /*log_scale=*/true));
  add(Parameter::Float(sp::kMemoryFraction, 0.3, 0.9, 0.6));
  add(Parameter::Float(sp::kMemoryStorageFraction, 0.1, 0.9, 0.5));
  add(Parameter::Bool(sp::kShuffleCompress, true));
  add(Parameter::Bool(sp::kShuffleSpillCompress, true));
  add(Parameter::Bool(sp::kBroadcastCompress, true));
  add(Parameter::Bool(sp::kRddCompress, false));
  add(Parameter::Categorical(sp::kIoCompressionCodec,
                             {"lz4", "snappy", "zstd"}, 0));
  add(Parameter::Categorical(sp::kSerializer,
                             {"org.apache.spark.serializer.JavaSerializer",
                              "org.apache.spark.serializer.KryoSerializer"},
                             0));
  add(Parameter::Int(sp::kKryoBufferKb, 16, 256, 64, /*log_scale=*/true));
  add(Parameter::Int(sp::kKryoBufferMaxMb, 8, 256, 64, /*log_scale=*/true));
  add(Parameter::Int(sp::kReducerMaxSizeInFlight, 8, 256, 48,
                     /*log_scale=*/true));
  add(Parameter::Int(sp::kShuffleFileBuffer, 8, 256, 32, /*log_scale=*/true));
  add(Parameter::Int(sp::kShuffleSortBypassMergeThreshold, 100, 1000, 200));
  add(Parameter::Int(sp::kShuffleIoNumConnectionsPerPeer, 1, 8, 1));
  add(Parameter::Bool(sp::kSpeculation, false));
  add(Parameter::Float(sp::kSpeculationMultiplier, 1.1, 5.0, 1.5));
  add(Parameter::Float(sp::kLocalityWait, 0.0, 10.0, 3.0));
  add(Parameter::Int(sp::kSchedulerReviveInterval, 100, 5000, 1000,
                     /*log_scale=*/true));
  add(Parameter::Int(sp::kTaskMaxFailures, 1, 8, 4));
  add(Parameter::Int(sp::kBroadcastBlockSize, 1, 16, 4));
  add(Parameter::Int(sp::kStorageMemoryMapThreshold, 1, 10, 2));
  add(Parameter::Int(sp::kNetworkTimeout, 60, 600, 120));

  assert(static_cast<int>(space.size()) == kNumSparkParams);
  return space;
}

SparkConfLayout::SparkConfLayout(const ConfigSpace& space) {
  namespace sp = spark_param;
  auto at = [&space](const char* name) {
    int i = space.IndexOf(name);
    assert(i >= 0 && "unknown parameter name");
    return static_cast<size_t>(i);
  };
  executor_instances_ = at(sp::kExecutorInstances);
  executor_cores_ = at(sp::kExecutorCores);
  executor_memory_ = at(sp::kExecutorMemory);
  executor_memory_overhead_ = at(sp::kExecutorMemoryOverhead);
  driver_cores_ = at(sp::kDriverCores);
  driver_memory_ = at(sp::kDriverMemory);
  default_parallelism_ = at(sp::kDefaultParallelism);
  sql_shuffle_partitions_ = at(sp::kSqlShufflePartitions);
  memory_fraction_ = at(sp::kMemoryFraction);
  memory_storage_fraction_ = at(sp::kMemoryStorageFraction);
  shuffle_compress_ = at(sp::kShuffleCompress);
  shuffle_spill_compress_ = at(sp::kShuffleSpillCompress);
  broadcast_compress_ = at(sp::kBroadcastCompress);
  rdd_compress_ = at(sp::kRddCompress);
  io_codec_ = at(sp::kIoCompressionCodec);
  serializer_ = at(sp::kSerializer);
  kryo_buffer_kb_ = at(sp::kKryoBufferKb);
  kryo_buffer_max_mb_ = at(sp::kKryoBufferMaxMb);
  reducer_max_size_in_flight_ = at(sp::kReducerMaxSizeInFlight);
  shuffle_file_buffer_ = at(sp::kShuffleFileBuffer);
  shuffle_sort_bypass_merge_threshold_ =
      at(sp::kShuffleSortBypassMergeThreshold);
  shuffle_io_num_connections_per_peer_ =
      at(sp::kShuffleIoNumConnectionsPerPeer);
  speculation_ = at(sp::kSpeculation);
  speculation_multiplier_ = at(sp::kSpeculationMultiplier);
  locality_wait_ = at(sp::kLocalityWait);
  scheduler_revive_interval_ = at(sp::kSchedulerReviveInterval);
  task_max_failures_ = at(sp::kTaskMaxFailures);
  broadcast_block_size_ = at(sp::kBroadcastBlockSize);
  storage_memory_map_threshold_ = at(sp::kStorageMemoryMapThreshold);
  network_timeout_ = at(sp::kNetworkTimeout);
}

SparkConf SparkConfLayout::Decode(const Configuration& c) const {
  SparkConf conf;
  conf.executor_instances = static_cast<int>(c[executor_instances_]);
  conf.executor_cores = static_cast<int>(c[executor_cores_]);
  conf.executor_memory_gb = c[executor_memory_];
  conf.executor_memory_overhead_mb = c[executor_memory_overhead_];
  conf.driver_cores = static_cast<int>(c[driver_cores_]);
  conf.driver_memory_gb = c[driver_memory_];
  conf.default_parallelism = static_cast<int>(c[default_parallelism_]);
  conf.sql_shuffle_partitions = static_cast<int>(c[sql_shuffle_partitions_]);
  conf.memory_fraction = c[memory_fraction_];
  conf.memory_storage_fraction = c[memory_storage_fraction_];
  conf.shuffle_compress = c[shuffle_compress_] >= 0.5;
  conf.shuffle_spill_compress = c[shuffle_spill_compress_] >= 0.5;
  conf.broadcast_compress = c[broadcast_compress_] >= 0.5;
  conf.rdd_compress = c[rdd_compress_] >= 0.5;
  conf.io_codec = static_cast<Codec>(static_cast<int>(c[io_codec_]));
  conf.serializer =
      static_cast<Serializer>(static_cast<int>(c[serializer_]));
  conf.kryo_buffer_kb = c[kryo_buffer_kb_];
  conf.kryo_buffer_max_mb = c[kryo_buffer_max_mb_];
  conf.reducer_max_size_in_flight_mb = c[reducer_max_size_in_flight_];
  conf.shuffle_file_buffer_kb = c[shuffle_file_buffer_];
  conf.shuffle_sort_bypass_merge_threshold =
      static_cast<int>(c[shuffle_sort_bypass_merge_threshold_]);
  conf.shuffle_io_num_connections_per_peer =
      static_cast<int>(c[shuffle_io_num_connections_per_peer_]);
  conf.speculation = c[speculation_] >= 0.5;
  conf.speculation_multiplier = c[speculation_multiplier_];
  conf.locality_wait_sec = c[locality_wait_];
  conf.scheduler_revive_interval_ms = c[scheduler_revive_interval_];
  conf.task_max_failures = static_cast<int>(c[task_max_failures_]);
  conf.broadcast_block_size_mb = c[broadcast_block_size_];
  conf.storage_memory_map_threshold_mb = c[storage_memory_map_threshold_];
  conf.network_timeout_sec = c[network_timeout_];
  return conf;
}

SparkConf DecodeSparkConf(const ConfigSpace& space, const Configuration& c) {
  return SparkConfLayout(space).Decode(c);
}

double ResourceFunction(const SparkConf& conf, double mem_weight) {
  double executors =
      static_cast<double>(conf.executor_instances) *
      (static_cast<double>(conf.executor_cores) +
       mem_weight * conf.container_mem_gb());
  double driver = static_cast<double>(conf.driver_cores) +
                  mem_weight * conf.driver_memory_gb;
  return executors + driver;
}

std::vector<std::string> ExpertParameterRanking() {
  namespace sp = spark_param;
  // Mirrors the paper's Table 5 ordering for the head of the list.
  return {
      sp::kExecutorInstances,
      sp::kExecutorMemory,
      sp::kMemoryStorageFraction,
      sp::kDefaultParallelism,
      sp::kMemoryFraction,
      sp::kExecutorCores,
      sp::kIoCompressionCodec,
      sp::kShuffleFileBuffer,
      sp::kShuffleCompress,
      sp::kSerializer,
      sp::kSqlShufflePartitions,
      sp::kExecutorMemoryOverhead,
      sp::kReducerMaxSizeInFlight,
      sp::kRddCompress,
      sp::kShuffleSpillCompress,
      sp::kSpeculation,
      sp::kLocalityWait,
      sp::kShuffleIoNumConnectionsPerPeer,
      sp::kKryoBufferKb,
      sp::kKryoBufferMaxMb,
      sp::kDriverMemory,
      sp::kDriverCores,
      sp::kBroadcastCompress,
      sp::kBroadcastBlockSize,
      sp::kShuffleSortBypassMergeThreshold,
      sp::kSpeculationMultiplier,
      sp::kSchedulerReviveInterval,
      sp::kTaskMaxFailures,
      sp::kStorageMemoryMapThreshold,
      sp::kNetworkTimeout,
  };
}

}  // namespace sparktune
