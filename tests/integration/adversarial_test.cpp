// Adversarial and boundary workloads: the inputs an attacker (or an
// unlucky network) would choose.
#include <gtest/gtest.h>

#include "../support/report_testing.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"

using nd::testing::observe_one;

namespace nd {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

TEST(Adversarial, ElephantDisguisedAsMinimumPackets) {
  // A large flow sent entirely in 40-byte packets must still be caught
  // by the filter (no packet-size bias — the paper's criticism of
  // NetFlow's every-x-packets sampling does not apply).
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 1024;
  config.depth = 4;
  config.buckets_per_stage = 1024;
  config.threshold = 100'000;
  config.seed = 3;
  core::MultistageFilter device(config);
  for (int i = 0; i < 2500; ++i) {
    observe_one(device, key(1), 40);  // 100 KB total
  }
  const auto report = device.end_interval();
  ASSERT_NE(core::find_flow(report, key(1)), nullptr);
}

TEST(Adversarial, SmurfAttackManyMiceOneCounterSet) {
  // Thousands of distinct mice must not amplify each other into the
  // flow memory when stages are adequately dimensioned: expected false
  // positives stay a tiny fraction.
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 1u << 16;
  config.depth = 4;
  config.buckets_per_stage = 4096;
  config.threshold = 100'000;
  config.conservative_update = true;
  config.seed = 11;
  core::MultistageFilter device(config);
  // 20,000 mice x 1.5 KB = 30 MB; k = T*b/C ~ 13.6.
  for (std::uint32_t m = 0; m < 20'000; ++m) {
    observe_one(device, key(m), 1500);
  }
  const auto report = device.end_interval();
  EXPECT_LT(report.flows.size(), 20u);  // << 20,000 mice
}

TEST(Adversarial, FlowStraddlingIntervalBoundaryWithoutPreserve) {
  // T-1 bytes in interval 1 plus T-1 bytes in interval 2: never a large
  // flow in either interval, must not be reported by the basic filter.
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 64;
  config.depth = 2;
  config.buckets_per_stage = 64;
  config.threshold = 10'000;
  config.seed = 5;
  core::MultistageFilter device(config);
  observe_one(device, key(1), 9'999);
  const auto first = device.end_interval();
  EXPECT_EQ(core::find_flow(first, key(1)), nullptr);
  observe_one(device, key(1), 9'999);
  const auto second = device.end_interval();
  EXPECT_EQ(core::find_flow(second, key(1)), nullptr);
}

TEST(Adversarial, ExactThresholdPacketPasses) {
  // Boundary: a single packet of exactly T bytes must pass (counters
  // reach T, the condition is >=).
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 16;
  config.depth = 3;
  config.buckets_per_stage = 32;
  config.threshold = 1500;
  config.seed = 7;
  core::MultistageFilter device(config);
  observe_one(device, key(1), 1500);
  const auto report = device.end_interval();
  EXPECT_NE(core::find_flow(report, key(1)), nullptr);
}

TEST(Adversarial, OneByteBelowThresholdDoesNotPass) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 16;
  config.depth = 3;
  config.buckets_per_stage = 32;
  config.threshold = 1500;
  config.seed = 7;
  core::MultistageFilter device(config);
  observe_one(device, key(1), 1499);
  const auto report = device.end_interval();
  EXPECT_EQ(core::find_flow(report, key(1)), nullptr);
}

TEST(Adversarial, SampleAndHoldSurvivesPathologicalSizes) {
  core::SampleAndHoldConfig config;
  config.flow_memory_entries = 64;
  config.threshold = 1000;
  config.oversampling = 4.0;
  config.seed = 9;
  core::SampleAndHold device(config);
  observe_one(device, key(1), 0);           // zero-size packet
  observe_one(device, key(2), 1);           // one byte
  observe_one(device, key(3), 0xFFFFFFFF);  // absurd jumbo
  const auto report = device.end_interval();
  // The jumbo flow is sampled with probability ~1 and reported whole.
  const auto* jumbo = core::find_flow(report, key(3));
  ASSERT_NE(jumbo, nullptr);
  EXPECT_EQ(jumbo->estimated_bytes, 0xFFFFFFFFull);
}

TEST(Adversarial, FilterSurvivesPathologicalSizes) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 64;
  config.depth = 2;
  config.buckets_per_stage = 16;
  config.threshold = 1000;
  config.seed = 13;
  core::MultistageFilter device(config);
  observe_one(device, key(1), 0);
  observe_one(device, key(2), 0xFFFFFFFF);
  const auto report = device.end_interval();
  EXPECT_EQ(core::find_flow(report, key(1)), nullptr);  // 0 bytes < T
  EXPECT_NE(core::find_flow(report, key(2)), nullptr);
}

TEST(Adversarial, RepeatedIdenticalPacketsFromManyFlowsSameSize) {
  // Uniform flow sizes right below threshold: the worst case for the
  // Lemma 1 analysis. With conservative update none of them passes
  // when stages are strong enough.
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 1u << 16;
  config.depth = 4;
  config.buckets_per_stage = 2048;
  config.threshold = 20'000;
  config.conservative_update = true;
  config.seed = 17;
  core::MultistageFilter device(config);
  // 1,000 flows of exactly T-40 bytes; total 20 MB; k = 2.05.
  for (std::uint32_t f = 0; f < 1000; ++f) {
    common::ByteCount remaining = 19'960;
    while (remaining > 0) {
      const auto size = static_cast<std::uint32_t>(
          std::min<common::ByteCount>(1496, remaining));
      observe_one(device, key(f), size);
      remaining -= size;
    }
  }
  const auto report = device.end_interval();
  // No false negatives is vacuous (nobody is large); the interesting
  // claim is that conservative update keeps false positives rare even
  // at k ~ 2.
  EXPECT_LT(report.flows.size(), 100u);
}

TEST(Adversarial, ThresholdOneTracksEverything) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 256;
  config.depth = 2;
  config.buckets_per_stage = 64;
  config.threshold = 1;
  config.seed = 19;
  core::MultistageFilter device(config);
  for (std::uint32_t f = 0; f < 100; ++f) {
    observe_one(device, key(f), 40);
  }
  const auto report = device.end_interval();
  EXPECT_EQ(report.flows.size(), 100u);
}

}  // namespace
}  // namespace nd
