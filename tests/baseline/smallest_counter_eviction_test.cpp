#include "baseline/smallest_counter_eviction.hpp"

#include <gtest/gtest.h>

#include "../support/report_testing.hpp"

using nd::testing::observe_one;

namespace nd::baseline {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

TEST(SmallestCounterEviction, TracksWithinCapacity) {
  SmallestCounterEvictionConfig config;
  config.flow_memory_entries = 4;
  SmallestCounterEviction device(config);
  for (std::uint32_t f = 0; f < 4; ++f) {
    observe_one(device, key(f), 100 * (f + 1));
  }
  const auto report = device.end_interval();
  EXPECT_EQ(report.flows.size(), 4u);
  EXPECT_EQ(device.evictions(), 0u);
}

TEST(SmallestCounterEviction, EvictsTheMinimum) {
  SmallestCounterEvictionConfig config;
  config.flow_memory_entries = 2;
  SmallestCounterEviction device(config);
  observe_one(device, key(1), 1000);
  observe_one(device, key(2), 50);
  observe_one(device, key(3), 10);  // evicts key(2), the smallest
  const auto report = device.end_interval();
  EXPECT_NE(core::find_flow(report, key(1)), nullptr);
  EXPECT_EQ(core::find_flow(report, key(2)), nullptr);
  EXPECT_NE(core::find_flow(report, key(3)), nullptr);
  EXPECT_EQ(device.evictions(), 1u);
}

TEST(SmallestCounterEviction, UpdateMovesFlowUp) {
  SmallestCounterEvictionConfig config;
  config.flow_memory_entries = 2;
  SmallestCounterEviction device(config);
  observe_one(device, key(1), 100);
  observe_one(device, key(2), 100);
  observe_one(device, key(1), 500);  // key(1) now 600, key(2) is minimum
  observe_one(device, key(3), 10);
  const auto report = device.end_interval();
  EXPECT_NE(core::find_flow(report, key(1)), nullptr);
  EXPECT_EQ(core::find_flow(report, key(2)), nullptr);
}

TEST(SmallestCounterEviction, PaperCounterexampleStarvesElephant) {
  // Section 3's argument: "a large flow is not measured because it keeps
  // being expelled from the flow memory before its counter becomes large
  // enough". Interleave one elephant packet with a burst of fresh mice:
  // each elephant entry is the smallest when the mice arrive, so the
  // elephant is evicted over and over and its final count stays tiny
  // compared to its true traffic.
  SmallestCounterEvictionConfig config;
  config.flow_memory_entries = 8;
  SmallestCounterEviction device(config);

  const auto elephant = key(0xE1E000);  // outside the mouse id range
  common::ByteCount elephant_truth = 0;
  std::uint32_t mouse_id = 1;
  for (int round = 0; round < 1000; ++round) {
    observe_one(device, elephant, 40);
    elephant_truth += 40;
    // A burst of brand-new mice, each slightly bigger than the
    // elephant's fresh counter.
    for (int m = 0; m < 8; ++m) {
      observe_one(device, key(mouse_id++), 50);
    }
  }
  const auto report = device.end_interval();
  const auto* reported = core::find_flow(report, elephant);
  const common::ByteCount measured =
      reported ? reported->estimated_bytes : 0;
  // The elephant sent 40 KB but the strawman credits it a tiny sliver.
  EXPECT_EQ(elephant_truth, 40'000u);
  EXPECT_LT(measured, elephant_truth / 100);
  EXPECT_GT(device.evictions(), 900u);
}

TEST(SmallestCounterEviction, IntervalClears) {
  SmallestCounterEvictionConfig config;
  config.flow_memory_entries = 4;
  SmallestCounterEviction device(config);
  observe_one(device, key(1), 100);
  (void)device.end_interval();
  const auto second = device.end_interval();
  EXPECT_TRUE(second.flows.empty());
}

TEST(SmallestCounterEviction, NameAndCounters) {
  SmallestCounterEvictionConfig config;
  SmallestCounterEviction device(config);
  EXPECT_EQ(device.name(), "smallest-counter-eviction");
  observe_one(device, key(1), 10);
  EXPECT_EQ(device.packets_processed(), 1u);
  EXPECT_EQ(device.memory_accesses(), 1u);
}

}  // namespace
}  // namespace nd::baseline
