// Chunking invariance: however a packet stream is split into
// observe_batch calls, every device ends in the same state and reports
// the same flows — the contract that lets the session, ndtm and the
// sharded scatter split batches wherever they like (interval
// boundaries, the ingest buffer size, per-shard sub-batches, one
// packet at a time) without changing any measurement.
//
// Each case builds one instance of a device per chunking from the same
// config/seed and feeds the same synthesized intervals as batches of one
// packet, as one batch per interval, and as seeded random split sizes —
// small ones covering 1..2·kPrefetchDistance, so the prefetch ring's
// warm-up and tail run at every offset, and larger ones. Reports,
// packets_processed, memory_accesses and (for checkpointable devices)
// the save_state bytes must match the one-batch-per-interval run.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "../support/differential_harness.hpp"
#include "../support/report_testing.hpp"
#include "baseline/exact_oracle.hpp"
#include "baseline/ordinary_sampling.hpp"
#include "baseline/sampled_netflow.hpp"
#include "baseline/smallest_counter_eviction.hpp"
#include "common/state_buffer.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive_device.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "net/fleet.hpp"

namespace nd::core {
namespace {

using nd::testing::classify_trace;
using nd::testing::expect_equal_series;

using Factory = std::function<std::unique_ptr<MeasurementDevice>()>;

static_assert(SampleAndHold::kPrefetchDistance ==
              MultistageFilter::kPrefetchDistance);
constexpr std::size_t kSmallSplitMax = 2 * SampleAndHold::kPrefetchDistance;
constexpr std::size_t kLargeSplitMax = 700;

trace::TraceConfig small_trace() {
  trace::TraceConfig config;
  config.flow_count = 600;
  config.bytes_per_interval = 3'000'000;
  config.num_intervals = 3;
  config.seed = 77;
  return config;
}

/// How one run splits each interval into observe_batch calls.
enum class Chunking { kWhole, kOne, kRandom };

struct Run {
  Chunking chunking;
  std::uint64_t seed{0};
  std::unique_ptr<MeasurementDevice> device;
  std::vector<Report> reports;
};

/// Feed one interval in `run`'s chunking. Random runs draw each split
/// size from 1..kSmallSplitMax or kSmallSplitMax+1..kLargeSplitMax with
/// equal odds, and also make one empty call.
void feed(Run& run, std::span<const packet::ClassifiedPacket> interval,
          std::mt19937_64& rng) {
  MeasurementDevice& device = *run.device;
  switch (run.chunking) {
    case Chunking::kWhole:
      device.observe_batch(interval);
      return;
    case Chunking::kOne:
      for (std::size_t i = 0; i < interval.size(); ++i) {
        device.observe_batch(interval.subspan(i, 1));
      }
      return;
    case Chunking::kRandom: {
      std::uniform_int_distribution<std::size_t> small(1, kSmallSplitMax);
      std::uniform_int_distribution<std::size_t> large(kSmallSplitMax + 1,
                                                       kLargeSplitMax);
      device.observe_batch(interval.first(0));
      for (std::size_t offset = 0; offset < interval.size();) {
        const std::size_t size = std::min(
            (rng() & 1) != 0 ? small(rng) : large(rng),
            interval.size() - offset);
        device.observe_batch(interval.subspan(offset, size));
        offset += size;
      }
      return;
    }
  }
}

std::vector<std::uint8_t> state_bytes(const MeasurementDevice& device) {
  common::StateWriter out;
  device.save_state(out);
  return out.bytes();
}

/// Drive the whole-interval reference and every other chunking in
/// lockstep over the same classified trace and compare them.
void expect_chunking_invariant(const Factory& make) {
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  ASSERT_FALSE(intervals.empty());
  std::vector<Run> runs;
  runs.push_back({Chunking::kWhole, 0, make(), {}});
  runs.push_back({Chunking::kOne, 0, make(), {}});
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    runs.push_back({Chunking::kRandom, seed, make(), {}});
  }
  std::vector<std::mt19937_64> rngs;
  for (const Run& run : runs) rngs.emplace_back(run.seed);

  const Run& reference = runs.front();
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      feed(runs[r], intervals[i], rngs[r]);
    }
    // Mid-interval state (flow memory, counters, RNG position) before
    // the close, when the split could still show.
    if (reference.device->can_checkpoint()) {
      const auto expected = state_bytes(*reference.device);
      for (const Run& run : runs) {
        EXPECT_EQ(state_bytes(*run.device), expected)
            << "interval " << i << ", chunking "
            << static_cast<int>(run.chunking) << " seed " << run.seed;
      }
    }
    for (Run& run : runs) {
      run.reports.push_back(run.device->end_interval());
    }
  }
  for (const Run& run : runs) {
    SCOPED_TRACE("chunking " + std::to_string(static_cast<int>(run.chunking)) +
                 " seed " + std::to_string(run.seed));
    expect_equal_series(reference.reports, run.reports);
    EXPECT_EQ(run.device->packets_processed(),
              reference.device->packets_processed());
    EXPECT_EQ(run.device->memory_accesses(),
              reference.device->memory_accesses());
  }
}

MultistageFilterConfig filter_config() {
  MultistageFilterConfig config;
  config.flow_memory_entries = 256;
  config.depth = 3;
  config.buckets_per_stage = 128;
  config.threshold = 40'000;
  config.seed = 9;
  return config;
}

/// `base` at depth 1 and depth 4 (the AVX2 gather-min depth), each with
/// shielding on and off.
void expect_filter_variants_invariant(const MultistageFilterConfig& base) {
  for (const std::uint32_t depth : {1u, 4u}) {
    for (const bool shielding : {true, false}) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " shielding " +
                   std::to_string(shielding));
      MultistageFilterConfig config = base;
      config.depth = depth;
      config.shielding = shielding;
      expect_chunking_invariant(
          [config] { return std::make_unique<MultistageFilter>(config); });
    }
  }
}

SampleAndHoldConfig sah_config() {
  SampleAndHoldConfig config;
  config.flow_memory_entries = 256;
  config.threshold = 40'000;
  config.preserve = flowmem::PreservePolicy::kEarlyRemoval;
  config.seed = 5;
  return config;
}

ShardedDevice::Factory sharded_filter_factory() {
  return [](std::uint32_t, std::uint64_t seed) {
    MultistageFilterConfig config = filter_config();
    config.flow_memory_entries = 96;
    config.seed = seed;
    return std::make_unique<MultistageFilter>(config);
  };
}

TEST(BatchEquivalence, MultistageParallelConservative) {
  expect_filter_variants_invariant(filter_config());
}

TEST(BatchEquivalence, MultistageParallelPlain) {
  auto config = filter_config();
  config.conservative_update = false;
  expect_filter_variants_invariant(config);
}

TEST(BatchEquivalence, MultistageSerial) {
  auto config = filter_config();
  config.serial = true;
  config.preserve = flowmem::PreservePolicy::kPreserve;
  expect_filter_variants_invariant(config);
}

TEST(BatchEquivalence, MultistageMultiplyShiftEarlyRemoval) {
  auto config = filter_config();
  config.hash_kind = hash::HashKind::kMultiplyShift;
  config.preserve = flowmem::PreservePolicy::kEarlyRemoval;
  expect_chunking_invariant(
      [config] { return std::make_unique<MultistageFilter>(config); });
}

TEST(BatchEquivalence, SampleAndHold) {
  // RNG-driven sampling: invariance also proves every split consumes the
  // random stream identically, in both sampling modes.
  for (const bool byte_exact : {true, false}) {
    SCOPED_TRACE("byte_exact_sampling " + std::to_string(byte_exact));
    auto config = sah_config();
    config.byte_exact_sampling = byte_exact;
    expect_chunking_invariant(
        [config] { return std::make_unique<SampleAndHold>(config); });
  }
}

TEST(BatchEquivalence, AdaptiveDeviceForwardsBatches) {
  expect_chunking_invariant([] {
    return std::make_unique<AdaptiveDevice>(
        std::make_unique<SampleAndHold>(sah_config()),
        ThresholdAdaptorConfig{});
  });
}

TEST(BatchEquivalence, ShardedInline) {
  ShardedDeviceConfig config;
  config.shards = 4;
  config.seed = 2;
  expect_chunking_invariant([config] {
    return std::make_unique<ShardedDevice>(config, sharded_filter_factory());
  });
}

TEST(BatchEquivalence, ShardedPooledAdaptive) {
  common::ThreadPool pool(2);
  ShardedDeviceConfig config;
  config.shards = 3;
  config.seed = 4;
  config.pool = &pool;
  config.adaptor = ThresholdAdaptorConfig{};
  expect_chunking_invariant([config] {
    return std::make_unique<ShardedDevice>(config, sharded_filter_factory());
  });
}

TEST(BatchEquivalence, FleetSliceDevice) {
  const ShardedDevice::Factory factory = sharded_filter_factory();
  for (std::uint32_t member = 0; member < 3; ++member) {
    SCOPED_TRACE("member " + std::to_string(member));
    expect_chunking_invariant([&factory, member] {
      return std::make_unique<net::FleetSliceDevice>(
          member, 3, 4, factory(member, shard_seed(4, member)));
    });
  }
}

TEST(BatchEquivalence, OrdinarySampling) {
  baseline::OrdinarySamplingConfig config;
  config.flow_memory_entries = 256;
  config.byte_sampling_probability = 1e-4;
  config.seed = 3;
  expect_chunking_invariant(
      [config] { return std::make_unique<baseline::OrdinarySampling>(config); });
}

TEST(BatchEquivalence, SampledNetFlow) {
  baseline::SampledNetFlowConfig config;
  config.sampling_divisor = 16;
  config.seed = 11;
  expect_chunking_invariant(
      [config] { return std::make_unique<baseline::SampledNetFlow>(config); });
}

TEST(BatchEquivalence, SampledNetFlowDeterministic) {
  baseline::SampledNetFlowConfig config;
  config.sampling_divisor = 8;
  config.deterministic = true;
  expect_chunking_invariant(
      [config] { return std::make_unique<baseline::SampledNetFlow>(config); });
}

TEST(BatchEquivalence, SmallestCounterEviction) {
  baseline::SmallestCounterEvictionConfig config;
  config.flow_memory_entries = 128;
  expect_chunking_invariant([config] {
    return std::make_unique<baseline::SmallestCounterEviction>(config);
  });
}

TEST(BatchEquivalence, ExactOracle) {
  expect_chunking_invariant(
      [] { return std::make_unique<baseline::ExactOracle>(); });
}

TEST(BatchEquivalence, FingerprintCacheMatchesKeyFingerprint) {
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  for (const auto& interval : intervals) {
    for (const auto& packet : interval) {
      ASSERT_EQ(packet.fingerprint, packet.key.fingerprint());
    }
  }
}

}  // namespace
}  // namespace nd::core
