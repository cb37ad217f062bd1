#include "baseline/sampled_netflow.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../support/report_testing.hpp"

using nd::testing::observe_one;

namespace nd::baseline {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

TEST(SampledNetFlow, DeterministicSamplesEveryXth) {
  SampledNetFlowConfig config;
  config.sampling_divisor = 4;
  config.deterministic = true;
  SampledNetFlow device(config);
  for (int i = 0; i < 16; ++i) {
    observe_one(device, key(1), 100);
  }
  const auto report = device.end_interval();
  ASSERT_EQ(report.flows.size(), 1u);
  // 4 of 16 packets sampled, each 100 bytes, scaled by 4 = 1600.
  EXPECT_EQ(report.flows[0].estimated_bytes, 1600u);
}

TEST(SampledNetFlow, EstimateUnbiasedOverRuns) {
  SampledNetFlowConfig config;
  config.sampling_divisor = 16;
  double sum = 0.0;
  constexpr int kRuns = 300;
  constexpr std::uint64_t kTruth = 100 * 1000;  // 100 packets x 1000 B
  for (int run = 0; run < kRuns; ++run) {
    config.seed = static_cast<std::uint64_t>(run) + 1;
    SampledNetFlow device(config);
    for (int i = 0; i < 100; ++i) {
      observe_one(device, key(1), 1000);
    }
    const auto report = device.end_interval();
    if (!report.flows.empty()) {
      sum += static_cast<double>(report.flows[0].estimated_bytes);
    }
  }
  EXPECT_NEAR(sum / kRuns, static_cast<double>(kTruth), kTruth * 0.10);
}

TEST(SampledNetFlow, CanOverestimate) {
  // Unlike sample and hold, NetFlow estimates are not lower bounds —
  // the paper's argument against using it for billing. Find a seed
  // where the estimate exceeds the truth.
  bool overestimated = false;
  for (std::uint64_t seed = 1; seed <= 50 && !overestimated; ++seed) {
    SampledNetFlowConfig config;
    config.sampling_divisor = 16;
    config.seed = seed;
    SampledNetFlow device(config);
    for (int i = 0; i < 64; ++i) {
      observe_one(device, key(1), 1000);
    }
    const auto report = device.end_interval();
    if (!report.flows.empty() &&
        report.flows[0].estimated_bytes > 64'000) {
      overestimated = true;
    }
  }
  EXPECT_TRUE(overestimated);
}

TEST(SampledNetFlow, SmallFlowsOftenMissed) {
  // 1-packet flows survive only with probability 1/16.
  SampledNetFlowConfig config;
  config.sampling_divisor = 16;
  config.seed = 99;
  SampledNetFlow device(config);
  for (std::uint32_t f = 0; f < 1600; ++f) {
    observe_one(device, key(f), 40);
  }
  const auto report = device.end_interval();
  EXPECT_NEAR(static_cast<double>(report.flows.size()), 100.0, 40.0);
}

TEST(SampledNetFlow, ReportClearsPerInterval) {
  SampledNetFlowConfig config;
  config.deterministic = true;
  config.sampling_divisor = 1;
  SampledNetFlow device(config);
  observe_one(device, key(1), 100);
  (void)device.end_interval();
  const auto second = device.end_interval();
  EXPECT_TRUE(second.flows.empty());
}

TEST(SampledNetFlow, DivisorOneIsExact) {
  SampledNetFlowConfig config;
  config.sampling_divisor = 1;
  SampledNetFlow device(config);
  for (int i = 0; i < 10; ++i) observe_one(device, key(1), 123);
  const auto report = device.end_interval();
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_EQ(report.flows[0].estimated_bytes, 1230u);
}

TEST(SampledNetFlow, UnboundedMemoryAndName) {
  SampledNetFlowConfig config;
  config.sampling_divisor = 16;
  SampledNetFlow device(config);
  EXPECT_EQ(device.flow_memory_capacity(), static_cast<std::size_t>(-1));
  EXPECT_EQ(device.name(), "sampled-netflow(1/16)");
  EXPECT_EQ(device.threshold(), 0u);
}

TEST(SampledNetFlow, DramAccessesOnlyForSampledPackets) {
  SampledNetFlowConfig config;
  config.sampling_divisor = 4;
  config.deterministic = true;
  SampledNetFlow device(config);
  for (int i = 0; i < 100; ++i) observe_one(device, key(1), 100);
  // 25 sampled packets -> 25 DRAM updates; the whole point of NetFlow's
  // sampling is < 1 memory access per packet.
  EXPECT_EQ(device.memory_accesses(), 25u);
  EXPECT_EQ(device.packets_processed(), 100u);
}

TEST(SampledNetFlow, HighWaterTracksEntries) {
  SampledNetFlowConfig config;
  config.sampling_divisor = 1;
  config.deterministic = true;
  SampledNetFlow device(config);
  for (std::uint32_t f = 0; f < 10; ++f) observe_one(device, key(f), 100);
  (void)device.end_interval();
  EXPECT_EQ(device.high_water_entries(), 10u);
}

}  // namespace
}  // namespace nd::baseline
