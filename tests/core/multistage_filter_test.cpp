#include "core/multistage_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../support/report_testing.hpp"

using nd::testing::observe_one;

namespace nd::core {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

void feed(MeasurementDevice& device, const packet::FlowKey& k,
          common::ByteCount total, std::uint32_t packet_size = 500) {
  while (total > 0) {
    const auto size = static_cast<std::uint32_t>(
        std::min<common::ByteCount>(packet_size, total));
    observe_one(device, k, size);
    total -= size;
  }
}

MultistageFilterConfig basic_config() {
  MultistageFilterConfig config;
  config.flow_memory_entries = 1000;
  config.depth = 4;
  config.buckets_per_stage = 1000;
  config.threshold = 100'000;
  config.conservative_update = false;
  config.shielding = false;
  config.seed = 42;
  return config;
}

TEST(MultistageFilter, LargeFlowAlwaysCaught) {
  // The headline guarantee: no false negatives, deterministically.
  MultistageFilter device(basic_config());
  feed(device, key(1), 100'000);
  const Report report = device.end_interval();
  ASSERT_NE(find_flow(report, key(1)), nullptr);
}

TEST(MultistageFilter, SmallLonelyFlowNeverPasses) {
  // A single small flow with empty stages cannot reach the threshold.
  MultistageFilter device(basic_config());
  feed(device, key(1), 50'000);
  const Report report = device.end_interval();
  EXPECT_EQ(find_flow(report, key(1)), nullptr);
  EXPECT_TRUE(report.flows.empty());
}

TEST(MultistageFilter, EstimateErrorBoundedByThreshold) {
  // No flow can send T bytes without entering the flow memory, so the
  // undercount is < T (Section 4.2.1).
  MultistageFilterConfig config = basic_config();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    MultistageFilter device(config);
    feed(device, key(1), 1'000'000);
    const Report report = device.end_interval();
    const auto* flow = find_flow(report, key(1));
    ASSERT_NE(flow, nullptr);
    EXPECT_GT(flow->estimated_bytes,
              1'000'000u - config.threshold - 1500u);
    EXPECT_LE(flow->estimated_bytes, 1'000'000u);
  }
}

TEST(MultistageFilter, CountersResetBetweenIntervals) {
  MultistageFilter device(basic_config());
  feed(device, key(1), 90'000);  // just below T: fills counters
  (void)device.end_interval();
  // Counters were reinitialized, so the same sub-threshold traffic
  // again does not pass.
  feed(device, key(1), 90'000);
  const Report report = device.end_interval();
  EXPECT_EQ(find_flow(report, key(1)), nullptr);
}

TEST(MultistageFilter, CounterAccessor) {
  MultistageFilterConfig config = basic_config();
  config.depth = 2;
  config.buckets_per_stage = 8;
  MultistageFilter device(config);
  observe_one(device, key(1), 500);
  common::ByteCount sum = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t b = 0; b < 8; ++b) {
      sum += device.counter(s, b);
    }
  }
  EXPECT_EQ(sum, 1000u);  // 500 in one bucket per stage
}

TEST(MultistageFilter, ConservativeUpdateRaisesToMinOnly) {
  MultistageFilterConfig config = basic_config();
  config.conservative_update = true;
  config.depth = 3;
  config.buckets_per_stage = 4;
  MultistageFilter device(config);

  // First flow loads some buckets.
  observe_one(device, key(1), 900);
  // Second flow: wherever it shares a bucket with flow 1, conservative
  // update must not inflate that bucket beyond max(old, min+size).
  observe_one(device, key(2), 100);

  common::ByteCount total = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      total += device.counter(s, b);
    }
  }
  // Plain update would give exactly 3*(900+100) = 3000; conservative
  // update gives at most that.
  EXPECT_LE(total, 3000u);
}

TEST(MultistageFilter, ConservativeNeverBelowPlainDetection) {
  // Conservative update must not introduce false negatives: a flow
  // reaching T still passes.
  MultistageFilterConfig config = basic_config();
  config.conservative_update = true;
  MultistageFilter device(config);
  feed(device, key(1), 100'000);
  const Report report = device.end_interval();
  EXPECT_NE(find_flow(report, key(1)), nullptr);
}

TEST(MultistageFilter, PassingPacketLeavesCountersUntouchedConservative) {
  MultistageFilterConfig config = basic_config();
  config.conservative_update = true;
  config.depth = 2;
  config.buckets_per_stage = 4;
  config.threshold = 1000;
  MultistageFilter device(config);

  observe_one(device, key(1), 1000);  // passes immediately (size >= T)
  // Second conservative-update rule: no counter was updated.
  common::ByteCount total = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      total += device.counter(s, b);
    }
  }
  EXPECT_EQ(total, 0u);
  const Report report = device.end_interval();
  EXPECT_NE(find_flow(report, key(1)), nullptr);
}

TEST(MultistageFilter, ShieldingStopsCounterUpdatesForTrackedFlows) {
  MultistageFilterConfig config = basic_config();
  config.shielding = true;
  config.depth = 2;
  config.buckets_per_stage = 4;
  config.threshold = 1000;
  config.conservative_update = false;
  MultistageFilter device(config);

  observe_one(device, key(1), 1000);  // passes, enters flow memory
  const common::ByteCount after_pass = [&] {
    common::ByteCount total = 0;
    for (std::uint32_t s = 0; s < 2; ++s) {
      for (std::uint64_t b = 0; b < 4; ++b) total += device.counter(s, b);
    }
    return total;
  }();
  observe_one(device, key(1), 500);  // shielded: no counter updates
  common::ByteCount after_shielded = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      after_shielded += device.counter(s, b);
    }
  }
  EXPECT_EQ(after_shielded, after_pass);

  const Report report = device.end_interval();
  const auto* flow = find_flow(report, key(1));
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->estimated_bytes, 1500u);  // entry still counted fully
}

TEST(MultistageFilter, WithoutShieldingTrackedFlowsKeepFeedingCounters) {
  MultistageFilterConfig config = basic_config();
  config.shielding = false;
  config.depth = 2;
  config.buckets_per_stage = 4;
  config.threshold = 1000;
  MultistageFilter device(config);

  observe_one(device, key(1), 1000);  // passes (plain update: counters += )
  observe_one(device, key(1), 500);   // tracked but NOT shielded
  common::ByteCount total = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t b = 0; b < 4; ++b) total += device.counter(s, b);
  }
  EXPECT_EQ(total, 2 * 1500u);
}

TEST(MultistageFilter, SerialNoFalseNegatives) {
  MultistageFilterConfig config = basic_config();
  config.serial = true;
  MultistageFilter device(config);
  feed(device, key(1), 100'000);
  const Report report = device.end_interval();
  EXPECT_NE(find_flow(report, key(1)), nullptr);
}

TEST(MultistageFilter, SerialStagesShieldLaterStages) {
  MultistageFilterConfig config = basic_config();
  config.serial = true;
  config.depth = 3;
  config.buckets_per_stage = 4;
  config.threshold = 3000;  // per-stage threshold 1000
  config.conservative_update = false;
  MultistageFilter device(config);

  observe_one(device, key(1), 500);  // stops at stage 0 (500 < 1000)
  common::ByteCount stage1_total = 0;
  common::ByteCount stage0_total = 0;
  for (std::uint64_t b = 0; b < 4; ++b) {
    stage0_total += device.counter(0, b);
    stage1_total += device.counter(1, b);
  }
  EXPECT_EQ(stage0_total, 500u);
  EXPECT_EQ(stage1_total, 0u);
}

TEST(MultistageFilter, SerialConservativeNoFalseNegatives) {
  MultistageFilterConfig config = basic_config();
  config.serial = true;
  config.conservative_update = true;
  MultistageFilter device(config);
  feed(device, key(1), 100'000);
  const Report report = device.end_interval();
  EXPECT_NE(find_flow(report, key(1)), nullptr);
}

TEST(MultistageFilter, DroppedPassesWhenMemoryFull) {
  MultistageFilterConfig config = basic_config();
  config.flow_memory_entries = 2;
  config.threshold = 1000;
  MultistageFilter device(config);
  for (std::uint32_t i = 0; i < 10; ++i) {
    observe_one(device, key(i), 1000);  // every flow passes instantly
  }
  EXPECT_EQ(device.dropped_passes(), 8u);
  const Report report = device.end_interval();
  EXPECT_EQ(report.flows.size(), 2u);
}

TEST(MultistageFilter, SetThresholdAffectsSerialStageThreshold) {
  MultistageFilterConfig config = basic_config();
  config.serial = true;
  config.depth = 4;
  config.threshold = 4000;
  MultistageFilter device(config);
  device.set_threshold(8000);
  EXPECT_EQ(device.threshold(), 8000u);
  // A 2000-byte packet reaches stage threshold 8000/4 = 2000: passes.
  observe_one(device, key(1), 2000);
  const Report report = device.end_interval();
  EXPECT_NE(find_flow(report, key(1)), nullptr);
}

TEST(MultistageFilter, NamesAndCapacity) {
  MultistageFilterConfig config = basic_config();
  MultistageFilter parallel(config);
  EXPECT_EQ(parallel.name(), "multistage-filter");
  config.serial = true;
  MultistageFilter serial(config);
  EXPECT_EQ(serial.name(), "serial-multistage-filter");
  EXPECT_EQ(parallel.flow_memory_capacity(), 1000u);
}

TEST(MultistageFilter, PreserveEntriesExactNextInterval) {
  MultistageFilterConfig config = basic_config();
  config.preserve = flowmem::PreservePolicy::kPreserve;
  config.shielding = true;
  config.conservative_update = true;
  MultistageFilter device(config);

  feed(device, key(1), 500'000);
  (void)device.end_interval();
  feed(device, key(1), 300'000);
  const Report second = device.end_interval();
  const auto* flow = find_flow(second, key(1));
  ASSERT_NE(flow, nullptr);
  EXPECT_TRUE(flow->exact);
  EXPECT_EQ(flow->estimated_bytes, 300'000u);
}

TEST(MultistageFilter, MemoryAccessAccounting) {
  MultistageFilterConfig config = basic_config();
  config.depth = 4;
  MultistageFilter device(config);
  observe_one(device, key(1), 100);
  // 1 flow-memory lookup + d reads + d writes.
  EXPECT_EQ(device.memory_accesses(), 1u + 4u + 4u);
  EXPECT_EQ(device.packets_processed(), 1u);
}

}  // namespace
}  // namespace nd::core
