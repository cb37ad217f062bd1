#include "baseline/ordinary_sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../support/report_testing.hpp"
#include "core/sample_and_hold.hpp"

using nd::testing::observe_one;

namespace nd::baseline {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

void feed(core::MeasurementDevice& device, const packet::FlowKey& k,
          common::ByteCount total, std::uint32_t packet_size = 1000) {
  while (total > 0) {
    const auto size = static_cast<std::uint32_t>(
        std::min<common::ByteCount>(packet_size, total));
    observe_one(device, k, size);
    total -= size;
  }
}

TEST(OrdinarySampling, EstimateRoughlyUnbiased) {
  OrdinarySamplingConfig config;
  config.byte_sampling_probability = 1e-3;
  double sum = 0.0;
  constexpr int kRuns = 200;
  constexpr common::ByteCount kTruth = 1'000'000;
  for (int run = 0; run < kRuns; ++run) {
    config.seed = static_cast<std::uint64_t>(run) + 1;
    OrdinarySampling device(config);
    feed(device, key(1), kTruth);
    const auto report = device.end_interval();
    const auto* flow = core::find_flow(report, key(1));
    sum += flow ? static_cast<double>(flow->estimated_bytes) : 0.0;
  }
  EXPECT_NEAR(sum / kRuns, static_cast<double>(kTruth), kTruth * 0.05);
}

TEST(OrdinarySampling, RespectsMemoryBound) {
  OrdinarySamplingConfig config;
  config.flow_memory_entries = 8;
  config.byte_sampling_probability = 1.0;  // sample everything
  OrdinarySampling device(config);
  for (std::uint32_t f = 0; f < 100; ++f) {
    observe_one(device, key(f), 1000);
  }
  const auto report = device.end_interval();
  EXPECT_EQ(report.flows.size(), 8u);
}

TEST(OrdinarySampling, WorseThanSampleAndHoldAtEqualMemory) {
  // The paper's core quantitative claim (Table 1): with the same memory
  // budget, sample and hold's error ~ 1/M beats sampling's ~ 1/sqrt(M).
  // Measure RMS relative error of a 1 MB flow in 10 MB of traffic with
  // matched expected memory.
  constexpr common::ByteCount kCapacity = 10'000'000;
  constexpr common::ByteCount kFlow = 1'000'000;
  constexpr double kMemory = 500.0;  // expected entries
  const double p = kMemory / static_cast<double>(kCapacity);

  double sh_sq = 0.0;
  double os_sq = 0.0;
  constexpr int kRuns = 150;
  for (int run = 0; run < kRuns; ++run) {
    const auto seed = static_cast<std::uint64_t>(run) * 7 + 1;

    core::SampleAndHoldConfig sh_config;
    sh_config.flow_memory_entries = 4 * static_cast<std::size_t>(kMemory);
    // p = O/T: choose T = kFlow and O = p * kFlow.
    sh_config.threshold = kFlow;
    sh_config.oversampling = p * static_cast<double>(kFlow);
    sh_config.seed = seed;
    core::SampleAndHold sh(sh_config);

    OrdinarySamplingConfig os_config;
    os_config.flow_memory_entries = 4 * static_cast<std::size_t>(kMemory);
    os_config.byte_sampling_probability = p;
    os_config.seed = seed;
    OrdinarySampling os(os_config);

    // The large flow plus background traffic.
    feed(sh, key(1), kFlow);
    feed(os, key(1), kFlow);
    for (std::uint32_t f = 2; f < 2 + 9'000; ++f) {
      observe_one(sh, key(f), 1000);
      observe_one(os, key(f), 1000);
    }

    const auto shr = sh.end_interval();
    const auto osr = os.end_interval();
    const auto* shf = core::find_flow(shr, key(1));
    const auto* osf = core::find_flow(osr, key(1));
    const double sh_err =
        (static_cast<double>(kFlow) -
         (shf ? static_cast<double>(shf->estimated_bytes) : 0.0)) /
        static_cast<double>(kFlow);
    const double os_err =
        (static_cast<double>(kFlow) -
         (osf ? static_cast<double>(osf->estimated_bytes) : 0.0)) /
        static_cast<double>(kFlow);
    sh_sq += sh_err * sh_err;
    os_sq += os_err * os_err;
  }
  const double sh_rms = std::sqrt(sh_sq / kRuns);
  const double os_rms = std::sqrt(os_sq / kRuns);
  // Theory: sh ~ sqrt(2)/(Mz) = 0.028, sampling ~ 1/sqrt(Mz) = 0.14.
  EXPECT_LT(sh_rms, os_rms / 2.0);
}

TEST(OrdinarySampling, MultipleSamplesPerPacketCounted) {
  OrdinarySamplingConfig config;
  config.byte_sampling_probability = 0.5;
  config.seed = 3;
  OrdinarySampling device(config);
  observe_one(device, key(1), 10'000);
  const auto report = device.end_interval();
  const auto* flow = core::find_flow(report, key(1));
  ASSERT_NE(flow, nullptr);
  // ~5000 sampled bytes scaled by 2 => ~10'000.
  EXPECT_NEAR(static_cast<double>(flow->estimated_bytes), 10'000.0, 600.0);
}

TEST(OrdinarySampling, NameAndCounters) {
  OrdinarySamplingConfig config;
  OrdinarySampling device(config);
  EXPECT_EQ(device.name(), "ordinary-sampling");
  observe_one(device, key(1), 100);
  EXPECT_EQ(device.packets_processed(), 1u);
}

TEST(OrdinarySampling, IntervalClearsState) {
  OrdinarySamplingConfig config;
  config.byte_sampling_probability = 1.0;
  OrdinarySampling device(config);
  observe_one(device, key(1), 100);
  (void)device.end_interval();
  const auto second = device.end_interval();
  EXPECT_TRUE(second.flows.empty());
}

}  // namespace
}  // namespace nd::baseline
