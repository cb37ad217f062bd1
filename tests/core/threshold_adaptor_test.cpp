#include "core/threshold_adaptor.hpp"

#include <gtest/gtest.h>

#include "../support/report_testing.hpp"
#include "core/adaptive_device.hpp"
#include "core/sample_and_hold.hpp"

using nd::testing::observe_one;

namespace nd::core {
namespace {

TEST(ThresholdAdaptor, OverTargetRaisesImmediately) {
  ThresholdAdaptor adaptor(ThresholdAdaptorConfig{});
  // 100% usage with target 90%: threshold must grow at once.
  const auto next = adaptor.update(1000, 100, 100);
  EXPECT_GT(next, 1000u);
}

TEST(ThresholdAdaptor, RaiseFollowsPowerLaw) {
  ThresholdAdaptorConfig config;
  config.target_usage = 0.5;
  config.adjust_up = 3.0;
  ThresholdAdaptor adaptor(config);
  // usage = 1.0, target 0.5 -> factor 2^3 = 8.
  EXPECT_EQ(adaptor.update(1000, 100, 100), 8000u);
}

TEST(ThresholdAdaptor, UnderTargetWaitsForPatience) {
  ThresholdAdaptorConfig config;
  config.patience = 3;
  ThresholdAdaptor adaptor(config);
  // Low usage, but decreases only after `patience` quiet intervals.
  EXPECT_EQ(adaptor.update(1000, 10, 100), 1000u);
  EXPECT_EQ(adaptor.update(1000, 10, 100), 1000u);
  EXPECT_LT(adaptor.update(1000, 10, 100), 1000u);
}

TEST(ThresholdAdaptor, DecreaseUsesAdjustDown) {
  ThresholdAdaptorConfig config;
  config.patience = 1;
  config.adjust_down = 1.0;
  config.target_usage = 0.9;
  config.usage_window = 1;
  ThresholdAdaptor adaptor(config);
  // usage = 0.45 => factor (0.45/0.9)^1 = 0.5.
  EXPECT_EQ(adaptor.update(1000, 45, 100), 500u);
}

TEST(ThresholdAdaptor, MultistageUsesGentlerDecrease) {
  ThresholdAdaptorConfig sh = sample_and_hold_adaptor();
  ThresholdAdaptorConfig msf = multistage_adaptor();
  EXPECT_DOUBLE_EQ(sh.adjust_down, 1.0);
  EXPECT_DOUBLE_EQ(msf.adjust_down, 0.5);
  EXPECT_DOUBLE_EQ(sh.target_usage, 0.90);
}

TEST(ThresholdAdaptor, NeverBelowMinimum) {
  ThresholdAdaptorConfig config;
  config.patience = 1;
  config.min_threshold = 100;
  config.usage_window = 1;
  ThresholdAdaptor adaptor(config);
  common::ByteCount threshold = 200;
  for (int i = 0; i < 20; ++i) {
    threshold = adaptor.update(threshold, 0, 100);
  }
  EXPECT_GE(threshold, 100u);
}

TEST(ThresholdAdaptor, UsageSmoothedOverWindow) {
  ThresholdAdaptorConfig config;
  config.usage_window = 3;
  ThresholdAdaptor adaptor(config);
  (void)adaptor.update(1000, 30, 100);
  (void)adaptor.update(1000, 60, 100);
  (void)adaptor.update(1000, 90, 100);
  EXPECT_NEAR(adaptor.smoothed_usage(), 0.6, 1e-9);
  (void)adaptor.update(1000, 90, 100);
  EXPECT_NEAR(adaptor.smoothed_usage(), 0.8, 1e-9);  // 60,90,90
}

TEST(ThresholdAdaptor, ZeroCapacityIsNoOp) {
  ThresholdAdaptor adaptor(ThresholdAdaptorConfig{});
  EXPECT_EQ(adaptor.update(1234, 50, 0), 1234u);
}

TEST(ThresholdAdaptor, SpikeTriggersFastIncrease) {
  // A usage spike after quiet intervals must raise the threshold even
  // though the moving average dampens it.
  ThresholdAdaptorConfig config;
  config.usage_window = 3;
  ThresholdAdaptor adaptor(config);
  (void)adaptor.update(1000, 88, 100);
  (void)adaptor.update(1000, 88, 100);
  // Moving average (88+88+100)/3 = 92% > 90% target.
  const auto next = adaptor.update(1000, 100, 100);
  EXPECT_GT(next, 1000u);
}

TEST(AdaptiveDevice, ConvergesTowardTargetUsage) {
  // Steady synthetic workload: 2000 flows, each 1000 bytes, 200-entry
  // memory. The adaptor should settle at a threshold that keeps usage
  // near 90% without overflowing.
  SampleAndHoldConfig config;
  config.flow_memory_entries = 200;
  config.threshold = 100;  // initial threshold absurdly low
  config.oversampling = 4.0;
  config.seed = 5;
  AdaptiveDevice device(std::make_unique<SampleAndHold>(config),
                        sample_and_hold_adaptor());

  double last_usage = 0.0;
  for (int interval = 0; interval < 30; ++interval) {
    for (std::uint32_t f = 0; f < 2000; ++f) {
      observe_one(device, packet::FlowKey::destination_ip(f), 1000);
    }
    const Report report = device.end_interval();
    last_usage = static_cast<double>(report.entries_used) / 200.0;
  }
  EXPECT_LE(last_usage, 1.0);
  EXPECT_GT(last_usage, 0.3);
  EXPECT_GT(device.threshold(), 100u);  // grew out of the silly initial
  EXPECT_NE(device.name().find("adaptive"), std::string::npos);
}

}  // namespace
}  // namespace nd::core
