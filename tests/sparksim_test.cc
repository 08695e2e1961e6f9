// Tests for the Spark simulator substrate: cluster placement, the
// 30-parameter space, workload validity, drift.
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"
#include "sparksim/cluster.h"
#include "sparksim/drift.h"
#include "sparksim/hibench.h"
#include "sparksim/spark_conf.h"
#include "sparksim/workload.h"
#include "reference_codec.h"
#include "tuner/evaluator.h"

namespace sparktune {
namespace {

TEST(ClusterTest, PlacementPacksByCoresAndMemory) {
  ClusterSpec c;
  c.num_nodes = 2;
  c.cores_per_node = 16;
  c.mem_per_node_gb = 64.0;
  // 4-core, 8 GB executors: per node min(16/4, 64/8) = 4 -> capacity 8.
  Placement p = PlaceExecutors(c, 100, 4, 8.0);
  EXPECT_EQ(p.granted_executors, 8);
  EXPECT_FALSE(p.fully_granted);
  // Memory-bound: 1-core 32 GB executors -> min(16, 2) = 2/node -> 4.
  p = PlaceExecutors(c, 100, 1, 32.0);
  EXPECT_EQ(p.granted_executors, 4);
}

TEST(ClusterTest, FullyGrantedWhenFits) {
  ClusterSpec c = ClusterSpec::HiBenchCluster();
  Placement p = PlaceExecutors(c, 10, 2, 4.0);
  EXPECT_EQ(p.granted_executors, 10);
  EXPECT_TRUE(p.fully_granted);
}

TEST(ClusterTest, OversizedExecutorGetsNothing) {
  ClusterSpec c;
  c.num_nodes = 2;
  c.cores_per_node = 8;
  c.mem_per_node_gb = 16.0;
  Placement p = PlaceExecutors(c, 4, 2, 32.0);  // memory larger than a node
  EXPECT_EQ(p.granted_executors, 0);
}

TEST(SparkConfTest, SpaceHasThirtyParameters) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::HiBenchCluster());
  EXPECT_EQ(static_cast<int>(space.size()), kNumSparkParams);
  // Table 5 head parameters exist.
  EXPECT_GE(space.IndexOf(spark_param::kExecutorInstances), 0);
  EXPECT_GE(space.IndexOf(spark_param::kMemoryStorageFraction), 0);
  EXPECT_GE(space.IndexOf(spark_param::kIoCompressionCodec), 0);
}

TEST(SparkConfTest, DecodeMatchesConfiguration) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  Configuration c = space.Default();
  space.Set(&c, spark_param::kExecutorInstances, 12);
  space.Set(&c, spark_param::kExecutorCores, 3);
  space.Set(&c, spark_param::kExecutorMemory, 6);
  space.Set(&c, spark_param::kSerializer, 1);
  space.Set(&c, spark_param::kShuffleCompress, 0);
  SparkConf conf = DecodeSparkConf(space, c);
  EXPECT_EQ(conf.executor_instances, 12);
  EXPECT_EQ(conf.executor_cores, 3);
  EXPECT_DOUBLE_EQ(conf.executor_memory_gb, 6.0);
  EXPECT_EQ(conf.serializer, Serializer::kKryo);
  EXPECT_FALSE(conf.shuffle_compress);
  EXPECT_NEAR(conf.container_mem_gb(), 6.0 + 384.0 / 1024.0, 1e-9);
}

TEST(SparkConfTest, ResourceFunctionIsWhiteBoxAndMonotone) {
  ClusterSpec cluster = ClusterSpec::HiBenchCluster();
  ConfigSpace space = BuildSparkSpace(cluster);
  Configuration c = space.Default();
  SparkConf base = DecodeSparkConf(space, c);
  double r0 = ResourceFunction(base);
  space.Set(&c, spark_param::kExecutorInstances,
            space.Get(c, spark_param::kExecutorInstances) * 2);
  double r1 = ResourceFunction(DecodeSparkConf(space, c));
  EXPECT_GT(r1, r0);
  space.Set(&c, spark_param::kExecutorMemory, 32);
  double r2 = ResourceFunction(DecodeSparkConf(space, c));
  EXPECT_GT(r2, r1);
}

TEST(SparkConfTest, ExpertRankingNamesResolve) {
  ConfigSpace space = BuildSparkSpace(ClusterSpec::ProductionGroup());
  auto ranking = ExpertParameterRanking();
  EXPECT_EQ(ranking.size(), space.size());
  for (const auto& name : ranking) {
    EXPECT_GE(space.IndexOf(name), 0) << name;
  }
  // Mirrors Table 5's top entries.
  EXPECT_EQ(ranking[0], spark_param::kExecutorInstances);
  EXPECT_EQ(ranking[1], spark_param::kExecutorMemory);
}

TEST(SparkConfTest, RangesScaleWithCluster) {
  ConfigSpace small = BuildSparkSpace(ClusterSpec::SmallSqlGroup());
  ConfigSpace big = BuildSparkSpace(ClusterSpec::ProductionGroup());
  int idx = small.IndexOf(spark_param::kExecutorInstances);
  EXPECT_LT(small.param(static_cast<size_t>(idx)).hi(),
            big.param(static_cast<size_t>(idx)).hi());
}

TEST(WorkloadTest, AllHiBenchTasksValid) {
  auto tasks = AllHiBenchTasks();
  EXPECT_EQ(tasks.size(), 16u);
  for (const auto& w : tasks) {
    EXPECT_TRUE(w.Valid()) << w.name;
    EXPECT_GE(w.DagDepth(), 2) << w.name;
    EXPECT_GT(w.input_gb, 0.0) << w.name;
  }
}

TEST(WorkloadTest, HeadlineTasksMatchPaper) {
  auto tasks = HeadlineHiBenchTasks();
  ASSERT_EQ(tasks.size(), 6u);
  std::vector<std::string> names;
  for (const auto& w : tasks) names.push_back(w.name);
  EXPECT_EQ(names, (std::vector<std::string>{"Bayes", "KMeans", "NWeight",
                                             "WordCount", "PageRank",
                                             "TeraSort"}));
}

TEST(WorkloadTest, LookupByName) {
  auto w = HiBenchTask("TeraSort");
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->name, "TeraSort");
  EXPECT_FALSE(HiBenchTask("NoSuchTask").ok());
}

TEST(WorkloadTest, ShuffleOpClassification) {
  EXPECT_TRUE(IsShuffleOp(StageOp::kReduceByKey));
  EXPECT_TRUE(IsShuffleOp(StageOp::kJoin));
  EXPECT_TRUE(IsShuffleOp(StageOp::kSortByKey));
  EXPECT_FALSE(IsShuffleOp(StageOp::kMap));
  EXPECT_FALSE(IsShuffleOp(StageOp::kSource));
  EXPECT_FALSE(IsShuffleOp(StageOp::kBroadcastJoin));
}

TEST(WorkloadTest, InvalidDagRejected) {
  WorkloadSpec w;
  w.name = "bad";
  StageSpec s;
  s.op = StageOp::kMap;
  s.deps = {0};  // self/forward reference
  w.stages.push_back(s);
  EXPECT_FALSE(w.Valid());
}

TEST(DriftTest, NoneIsIdentity) {
  DriftModel d = DriftModel::None();
  for (double h : {0.0, 5.0, 100.0}) {
    EXPECT_DOUBLE_EQ(d.Multiplier(h, 1, 0), 1.0);
  }
}

TEST(DriftTest, DiurnalOscillatesAroundBase) {
  DriftModel d = DriftModel::Diurnal(0.3, 0.0);
  double lo = 10.0, hi = 0.0;
  for (int h = 0; h < 24; ++h) {
    double m = d.Multiplier(h, 1, h);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_NEAR(lo, 0.7, 0.02);
  EXPECT_NEAR(hi, 1.3, 0.02);
  // Periodicity.
  EXPECT_NEAR(d.Multiplier(3.0, 1, 0), d.Multiplier(27.0, 1, 0), 1e-9);
}

// The Spark parameters of `space`, re-added in a seeded random order.
ConfigSpace ShuffledCopy(const ConfigSpace& space, uint64_t seed) {
  std::vector<Parameter> params = space.params();
  Rng rng(seed);
  for (size_t i = params.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(params[i - 1], params[j]);
  }
  ConfigSpace shuffled;
  for (Parameter& p : params) EXPECT_TRUE(shuffled.Add(std::move(p)).ok());
  return shuffled;
}

TEST(SparkConfTest, LayoutDecoderFollowsNamesNotPositions) {
  // The resolved-index decoder (SparkConfLayout, behind
  // SimulatorEvaluator::Run and ResourceRate) must match the by-name
  // reference bit for bit on every field, including on a space that holds
  // the same parameters in another order.
  auto workload = HiBenchTask("WordCount");
  ASSERT_TRUE(workload.ok());
  for (const ClusterSpec& cluster :
       {ClusterSpec::ProductionGroup(), ClusterSpec::SmallSqlGroup()}) {
    ConfigSpace space = BuildSparkSpace(cluster);
    ConfigSpace shuffled = ShuffledCopy(space, 77);
    size_t moved = 0;
    for (size_t j = 0; j < shuffled.size(); ++j) {
      moved += shuffled.param(j).name() != space.param(j).name();
    }
    ASSERT_GT(moved, shuffled.size() / 2);
    SparkConfLayout layout(space);
    SparkConfLayout shuffled_layout(shuffled);
    SimulatorEvaluatorOptions opts;
    SimulatorEvaluator eval(&space, *workload, cluster, DriftModel::None(),
                            opts);
    SimulatorEvaluator shuffled_eval(&shuffled, *workload, cluster,
                                     DriftModel::None(), opts);
    Rng rng(2024);
    for (int k = 0; k < 1000; ++k) {
      Configuration c = space.Sample(&rng);
      Configuration cs(std::vector<double>(shuffled.size()));
      for (size_t j = 0; j < shuffled.size(); ++j) {
        cs[j] = c[static_cast<size_t>(
            space.IndexOf(shuffled.param(j).name()))];
      }
      const SparkConf ref = reference::DecodeSparkConfByName(space, c);
      ASSERT_TRUE(reference::SameSparkConf(layout.Decode(c), ref)) << k;
      ASSERT_TRUE(reference::SameSparkConf(DecodeSparkConf(space, c), ref));
      ASSERT_TRUE(
          reference::SameSparkConf(shuffled_layout.Decode(cs), ref));
      ASSERT_TRUE(reference::SameSparkConf(
          reference::DecodeSparkConfByName(shuffled, cs), ref));
      const uint64_t want = std::bit_cast<uint64_t>(
          ResourceFunction(ref, opts.sim.mem_weight));
      ASSERT_EQ(std::bit_cast<uint64_t>(eval.ResourceRate(c)), want) << k;
      ASSERT_EQ(std::bit_cast<uint64_t>(shuffled_eval.ResourceRate(cs)),
                want)
          << k;
    }
  }
}

TEST(DriftTest, NoiseIsDeterministicPerExecution) {
  DriftModel d = DriftModel::Diurnal(0.2, 0.1);
  EXPECT_DOUBLE_EQ(d.Multiplier(5.0, 42, 3), d.Multiplier(5.0, 42, 3));
  EXPECT_NE(d.Multiplier(5.0, 42, 3), d.Multiplier(5.0, 42, 4));
}

TEST(DriftTest, TrendGrows) {
  DriftModel d;
  d.trend_per_day = 0.01;
  EXPECT_GT(d.Multiplier(24.0 * 30, 1, 0), d.Multiplier(0.0, 1, 0));
}

}  // namespace
}  // namespace sparktune
