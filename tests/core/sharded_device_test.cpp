// ShardedDevice contract tests: a 1-shard device reproduces the
// unsharded device bit-for-bit, and for any fixed shard count the merged
// output is deterministic — identical across repeated runs and identical
// with or without a worker pool.
#include "core/sharded_device.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "../support/report_testing.hpp"
#include "common/thread_pool.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"

using nd::testing::observe_one;

namespace nd::core {
namespace {

using nd::testing::classify_trace;
using nd::testing::expect_reports_equal;

trace::TraceConfig small_trace() {
  trace::TraceConfig config;
  config.flow_count = 600;
  config.bytes_per_interval = 3'000'000;
  config.num_intervals = 3;
  config.seed = 123;
  return config;
}

MultistageFilterConfig filter_config(std::uint64_t seed) {
  MultistageFilterConfig config;
  config.flow_memory_entries = 128;
  config.depth = 3;
  config.buckets_per_stage = 64;
  config.threshold = 40'000;
  config.seed = seed;
  return config;
}

ShardedDevice::Factory filter_factory() {
  return [](std::uint32_t, std::uint64_t seed) {
    return std::make_unique<MultistageFilter>(filter_config(seed));
  };
}

/// Run the classified trace through a device via observe_batch and
/// collect the per-interval reports.
std::vector<Report> run_batched(MeasurementDevice& device) {
  std::vector<Report> reports;
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    device.observe_batch(interval);
    reports.push_back(device.end_interval());
  }
  return reports;
}

TEST(ShardedDevice, OneShardMatchesUnshardedExactly) {
  // A 1-shard factory that ignores the derived seed reproduces the
  // unsharded device: routing is trivial and merging is the identity.
  ShardedDeviceConfig config;
  config.shards = 1;
  ShardedDevice sharded(config, [](std::uint32_t, std::uint64_t) {
    return std::make_unique<MultistageFilter>(filter_config(9));
  });
  MultistageFilter unsharded(filter_config(9));

  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  for (const auto& interval : intervals) {
    sharded.observe_batch(interval);
    unsharded.observe_batch(interval);
    expect_reports_equal(sharded.end_interval(), unsharded.end_interval());
  }
  EXPECT_EQ(sharded.packets_processed(), unsharded.packets_processed());
}

TEST(ShardedDevice, OneShardObserveMatchesUnshardedToo) {
  ShardedDeviceConfig config;
  config.shards = 1;
  ShardedDevice sharded(config, [](std::uint32_t, std::uint64_t) {
    return std::make_unique<MultistageFilter>(filter_config(9));
  });
  MultistageFilter unsharded(filter_config(9));

  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  for (const auto& interval : intervals) {
    for (const auto& packet : interval) {
      observe_one(sharded, packet.key, packet.bytes);
      observe_one(unsharded, packet.key, packet.bytes);
    }
    expect_reports_equal(sharded.end_interval(), unsharded.end_interval());
  }
}

TEST(ShardedDevice, RepeatedRunsAreDeterministic) {
  auto run_once = [] {
    ShardedDeviceConfig config;
    config.shards = 8;
    config.seed = 4;
    ShardedDevice device(config, filter_factory());
    return run_batched(device);
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_reports_equal(first[i], second[i]);
  }
}

TEST(ShardedDevice, PoolDoesNotChangeOutput) {
  // The determinism contract: the worker pool changes wall clock only.
  // Compare no-pool, 0-worker (inline), 1-worker, and multi-worker runs
  // bit for bit.
  auto run_with_pool = [](common::ThreadPool* pool) {
    ShardedDeviceConfig config;
    config.shards = 5;
    config.seed = 4;
    config.pool = pool;
    ShardedDevice device(config, filter_factory());
    return run_batched(device);
  };
  const auto serial = run_with_pool(nullptr);
  common::ThreadPool zero(0);
  const auto inline_pool = run_with_pool(&zero);
  common::ThreadPool one(1);
  const auto single = run_with_pool(&one);
  common::ThreadPool four(4);
  const auto parallel = run_with_pool(&four);
  ASSERT_EQ(serial.size(), inline_pool.size());
  ASSERT_EQ(serial.size(), single.size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_reports_equal(serial[i], inline_pool[i]);
    expect_reports_equal(serial[i], single[i]);
    expect_reports_equal(serial[i], parallel[i]);
  }
}

TEST(ShardedDevice, ObserveAndBatchAgree) {
  ShardedDeviceConfig config;
  config.shards = 4;
  config.seed = 2;
  ShardedDevice scalar(config, filter_factory());
  ShardedDevice batched(config, filter_factory());
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  for (const auto& interval : intervals) {
    for (const auto& packet : interval) {
      observe_one(scalar, packet.key, packet.bytes);
    }
    batched.observe_batch(interval);
    expect_reports_equal(scalar.end_interval(), batched.end_interval());
  }
}

TEST(ShardedDevice, PooledBatchMatchesInlineObserve) {
  // The two ends of the contract in one run: the pooled batch fan-out
  // against the inline device fed batches of one packet.
  ShardedDeviceConfig config;
  config.shards = 4;
  config.seed = 9;
  common::ThreadPool pool(2);
  ShardedDeviceConfig pooled_config = config;
  pooled_config.pool = &pool;
  ShardedDevice batched(pooled_config, filter_factory());
  ShardedDevice scalar(config, filter_factory());
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    batched.observe_batch(interval);
    for (const auto& packet : interval) {
      observe_one(scalar, packet.key, packet.bytes);
    }
    expect_reports_equal(batched.end_interval(), scalar.end_interval());
  }
}

TEST(ShardedDevice, RoutingIsStableAndCoversAllShards) {
  ShardedDeviceConfig config;
  config.shards = 8;
  config.seed = 1;
  ShardedDevice device(config, filter_factory());
  std::set<std::uint32_t> seen;
  for (std::uint64_t fp = 1; fp <= 4096; ++fp) {
    const std::uint32_t shard = device.shard_of(fp);
    ASSERT_LT(shard, device.shard_count());
    EXPECT_EQ(shard, device.shard_of(fp));  // stable per fingerprint
    // The fleet's routing function: a FleetSliceDevice member owns
    // exactly the flows this shard does.
    EXPECT_EQ(shard, shard_route(config.seed, config.shards, fp));
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 8u);  // 4096 flows must touch every shard
}

TEST(ShardedDevice, ShardSeedsAreDistinctPerShard) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t shard = 0; shard < 64; ++shard) {
    seeds.insert(shard_seed(7, shard));
  }
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_NE(shard_seed(7, 0), shard_seed(8, 0));
}

TEST(ShardedDevice, AccessorsAggregateOverShards) {
  ShardedDeviceConfig config;
  config.shards = 4;
  ShardedDevice device(config, filter_factory());
  EXPECT_EQ(device.shard_count(), 4u);
  EXPECT_EQ(device.flow_memory_capacity(), 4u * 128u);
  EXPECT_EQ(device.name(), "sharded(multistage-filter)x4");
  EXPECT_EQ(device.threshold(), 40'000u);

  device.set_threshold(90'000);
  EXPECT_EQ(device.threshold(), 90'000u);
  for (std::uint32_t s = 0; s < device.shard_count(); ++s) {
    EXPECT_EQ(device.shard(s).threshold(), 90'000u);
  }

  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  device.observe_batch(intervals.front());
  std::uint64_t per_shard_packets = 0;
  for (std::uint32_t s = 0; s < device.shard_count(); ++s) {
    per_shard_packets += device.shard(s).packets_processed();
  }
  EXPECT_EQ(device.packets_processed(), per_shard_packets);
  EXPECT_EQ(device.packets_processed(), intervals.front().size());
}

TEST(ShardedDevice, MergedReportPartitionsTheFlowSpace) {
  // Every reported flow must live on the shard its fingerprint routes
  // to, and no flow may appear twice in the merged report.
  ShardedDeviceConfig config;
  config.shards = 8;
  config.seed = 3;
  ShardedDevice device(config, filter_factory());
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  device.observe_batch(intervals.front());
  const Report merged = device.end_interval();
  ASSERT_FALSE(merged.flows.empty());
  std::set<std::uint64_t> fingerprints;
  for (const ReportedFlow& flow : merged.flows) {
    EXPECT_TRUE(fingerprints.insert(flow.key.fingerprint()).second)
        << "duplicate flow in merged report";
  }
}

TEST(ShardedDevice, WorksWithSampleAndHoldInner) {
  ShardedDeviceConfig config;
  config.shards = 3;
  config.seed = 6;
  auto factory = [](std::uint32_t, std::uint64_t seed) {
    SampleAndHoldConfig inner;
    inner.flow_memory_entries = 128;
    inner.threshold = 40'000;
    inner.seed = seed;
    return std::make_unique<SampleAndHold>(inner);
  };
  // Deterministic and pool-invariant with this inner device too.
  common::ThreadPool pool(2);
  ShardedDeviceConfig pooled_config = config;
  pooled_config.pool = &pool;
  ShardedDevice a(config, factory);
  ShardedDevice b(pooled_config, factory);
  const auto first = run_batched(a);
  const auto second = run_batched(b);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_reports_equal(first[i], second[i]);
  }
}

}  // namespace
}  // namespace nd::core
