// Pipeline instrumentation tests: the counters the devices export match
// observable device behavior, per-shard tallies agree with the
// ShardStatus annotations, interval-aligned snapshots land once per
// interval, and — the contract the differential suite depends on —
// telemetry never changes a single reported byte.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../support/report_testing.hpp"
#include "baseline/exact_oracle.hpp"
#include "common/thread_pool.hpp"
#include "core/measurement_session.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "eval/metrics.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "trace/presets.hpp"

using nd::testing::observe_one;

namespace nd::telemetry {
namespace {

using nd::testing::classify_trace;
using nd::testing::expect_reports_equal;

trace::TraceConfig small_trace(std::uint64_t seed = 11) {
  trace::TraceConfig config;
  config.flow_count = 400;
  config.bytes_per_interval = 2'000'000;
  config.num_intervals = 4;
  config.seed = seed;
  return config;
}

core::SampleAndHoldConfig sah_config(MetricsRegistry* metrics = nullptr) {
  core::SampleAndHoldConfig config;
  config.flow_memory_entries = 256;
  config.threshold = 40'000;
  config.oversampling = 5.0;
  config.seed = 7;
  config.metrics = metrics;
  return config;
}

core::MultistageFilterConfig filter_config(
    MetricsRegistry* metrics = nullptr) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 128;
  config.depth = 3;
  config.buckets_per_stage = 64;
  config.threshold = 40'000;
  config.seed = 9;
  config.metrics = metrics;
  return config;
}

TEST(DeviceInstruments, SampleAndHoldCountersMatchBehavior) {
  MetricsRegistry registry;
  core::SampleAndHold device(sah_config(&registry));

  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    for (const auto& packet : interval) {
      observe_one(device, packet.key, packet.bytes);
      ++packets;
      bytes += packet.bytes;
    }
    (void)device.end_interval();
  }

  const Snapshot snapshot = registry.snapshot();
  const Labels device_label{{"device", "sample-and-hold"}};
  const auto* packet_sample =
      snapshot.find("nd_device_packets_total", device_label);
  ASSERT_NE(packet_sample, nullptr);
  EXPECT_EQ(packet_sample->counter_value, packets);
  EXPECT_EQ(snapshot.find("nd_device_bytes_total", device_label)
                ->counter_value,
            bytes);
  EXPECT_EQ(snapshot.find("nd_device_intervals_total", device_label)
                ->counter_value,
            4u);
  // The packet-size histogram saw every packet.
  EXPECT_EQ(snapshot.find("nd_device_packet_size_bytes", device_label)
                ->histogram.count,
            packets);
  EXPECT_EQ(snapshot.find("nd_device_packet_size_bytes", device_label)
                ->histogram.sum,
            bytes);
  // Every flow in flow memory got there via a counted insert, and the
  // occupancy gauge reflects the post-interval state.
  EXPECT_GT(snapshot.find("nd_flowmem_inserts_total", device_label)
                ->counter_value,
            0u);
  const double occupancy =
      snapshot.find("nd_flowmem_occupancy", device_label)->gauge_value;
  EXPECT_GE(occupancy, 0.0);
  EXPECT_LE(occupancy, 1.0);
  EXPECT_DOUBLE_EQ(
      snapshot.find("nd_device_threshold", device_label)->gauge_value,
      40'000.0);
}

TEST(DeviceInstruments, MultistageStagePassCountsAreMonotone) {
  MetricsRegistry registry;
  core::MultistageFilter device(filter_config(&registry));
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    device.observe_batch(interval);
    (void)device.end_interval();
  }

  const Snapshot snapshot = registry.snapshot();
  // Parallel multistage: later stages only matter for packets that pass
  // earlier ones in the serial variant, but stage-pass events are
  // counted per stage here; every stage must have seen some passes and
  // the counters must exist for the configured depth only.
  std::uint64_t passes = 0;
  for (std::uint32_t d = 0; d < 3; ++d) {
    const auto* sample = snapshot.find(
        "nd_filter_stage_pass_total",
        {{"device", "multistage-filter"}, {"stage", std::to_string(d)}});
    ASSERT_NE(sample, nullptr) << "stage " << d;
    passes += sample->counter_value;
  }
  EXPECT_GT(passes, 0u);
  EXPECT_EQ(snapshot.find(
                "nd_filter_stage_pass_total",
                {{"device", "multistage-filter"}, {"stage", "3"}}),
            nullptr);
  ASSERT_NE(snapshot.find("nd_filter_shielded_total",
                          {{"device", "multistage-filter"}}),
            nullptr);
}

TEST(DeviceInstruments, TelemetryNeverChangesReports) {
  // The differential contract: telemetry only observes. Instrumented
  // and bare devices built from identical configs must report
  // bit-identically — including the RNG-driven sample-and-hold.
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());

  MetricsRegistry registry;
  core::SampleAndHold sah_on(sah_config(&registry));
  core::SampleAndHold sah_off(sah_config());
  core::MultistageFilter filter_on(filter_config(&registry));
  core::MultistageFilter filter_off(filter_config());
  auto serial_on = filter_config(&registry);
  serial_on.serial = true;
  auto serial_off = filter_config();
  serial_off.serial = true;
  core::MultistageFilter sfilter_on(serial_on);
  core::MultistageFilter sfilter_off(serial_off);

  for (const auto& interval : intervals) {
    sah_on.observe_batch(interval);
    sah_off.observe_batch(interval);
    expect_reports_equal(sah_on.end_interval(), sah_off.end_interval());
    filter_on.observe_batch(interval);
    filter_off.observe_batch(interval);
    expect_reports_equal(filter_on.end_interval(),
                         filter_off.end_interval());
    sfilter_on.observe_batch(interval);
    sfilter_off.observe_batch(interval);
    expect_reports_equal(sfilter_on.end_interval(),
                         sfilter_off.end_interval());
  }
}

TEST(ShardedInstruments, PerShardTalliesMatchShardStatus) {
  MetricsRegistry registry;
  core::ShardedDeviceConfig config;
  config.shards = 4;
  config.metrics = &registry;
  core::ShardedDevice device(
      config, [&registry](std::uint32_t shard, std::uint64_t seed) {
        auto inner = filter_config(&registry);
        inner.seed = seed;
        inner.metric_labels = {{"shard", std::to_string(shard)}};
        return std::make_unique<core::MultistageFilter>(inner);
      });

  std::uint64_t total_packets = 0;
  std::uint64_t total_bytes = 0;
  core::Report last;
  for (const auto& interval :
       classify_trace(small_trace(), packet::FlowDefinition::five_tuple())) {
    device.observe_batch(interval);
    total_packets += interval.size();
    for (const auto& packet : interval) {
      total_bytes += packet.bytes;
    }
    last = device.end_interval();
  }

  // The ShardStatus annotations carry the last interval's tallies; the
  // telemetry counters carry the lifetime sums; both partition the
  // totals exactly.
  ASSERT_EQ(last.shards.size(), 4u);
  const Snapshot snapshot = registry.snapshot();
  std::uint64_t counted_packets = 0;
  std::uint64_t counted_bytes = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const Labels shard_label{{"shard", std::to_string(s)}};
    counted_packets +=
        snapshot.find("nd_shard_packets_total", shard_label)->counter_value;
    counted_bytes +=
        snapshot.find("nd_shard_bytes_total", shard_label)->counter_value;
  }
  EXPECT_EQ(counted_packets, total_packets);
  EXPECT_EQ(counted_bytes, total_bytes);
  std::uint64_t status_packets = 0;
  for (const auto& status : last.shards) {
    status_packets += status.packets;
  }
  // 4 intervals of identical synthesis mean the last interval carries
  // roughly a quarter of the traffic; exactness is per interval.
  EXPECT_GT(status_packets, 0u);
  EXPECT_LE(status_packets, total_packets);

  EXPECT_EQ(snapshot.find("nd_sharded_intervals_total")->counter_value, 4u);
  EXPECT_DOUBLE_EQ(snapshot.find("nd_sharded_effective_threshold")
                       ->gauge_value,
                   static_cast<double>(core::effective_threshold(last)));
  EXPECT_EQ(snapshot.find("nd_shard_merge_ns")->histogram.count, 4u);

  // And the eval-layer imbalance summary is consistent with the tallies.
  const eval::ShardUsageSummary summary = eval::summarize_shards(last);
  EXPECT_EQ(summary.total_packets, status_packets);
  EXPECT_GE(summary.packet_imbalance, 1.0);
  EXPECT_LT(summary.packet_imbalance, 4.0 + 1e-9);
  EXPECT_GE(summary.byte_imbalance, 1.0);
}

TEST(ShardedInstruments, TelemetryNeverChangesShardedReports) {
  const auto intervals =
      classify_trace(small_trace(), packet::FlowDefinition::five_tuple());
  MetricsRegistry registry;
  common::ThreadPool pool(2);
  pool.attach_telemetry(&registry);

  core::ShardedDeviceConfig on;
  on.shards = 4;
  on.metrics = &registry;
  on.pool = &pool;
  core::ShardedDeviceConfig off;
  off.shards = 4;
  core::ShardedDevice device_on(
      on, [&registry](std::uint32_t shard, std::uint64_t seed) {
        auto inner = filter_config(&registry);
        inner.seed = seed;
        inner.metric_labels = {{"shard", std::to_string(shard)}};
        return std::make_unique<core::MultistageFilter>(inner);
      });
  core::ShardedDevice device_off(off,
                                 [](std::uint32_t, std::uint64_t seed) {
                                   auto inner = filter_config();
                                   inner.seed = seed;
                                   return std::make_unique<
                                       core::MultistageFilter>(inner);
                                 });
  for (const auto& interval : intervals) {
    device_on.observe_batch(interval);
    device_off.observe_batch(interval);
    expect_reports_equal(device_on.end_interval(),
                         device_off.end_interval());
  }
  // The pool carried the fan-out and said so.
  EXPECT_GT(registry.snapshot().find("nd_pool_tasks_total")->counter_value,
            0u);
}

TEST(SessionInstruments, OneSnapshotLinePerClosedInterval) {
  constexpr common::TimestampNs kSecond = 1'000'000'000ULL;
  MetricsRegistry registry;
  std::ostringstream out;
  JsonLinesExporter exporter(out);

  core::MeasurementSession session(
      std::make_unique<baseline::ExactOracle>(),
      packet::FlowDefinition::destination_ip(),
      std::chrono::seconds(5));
  session.attach_telemetry(&registry, &exporter);

  packet::PacketRecord packet;
  packet.src_ip = 1;
  packet.dst_ip = 7;
  packet.protocol = packet::IpProtocol::kUdp;
  packet.size_bytes = 100;
  for (const std::uint64_t second : {1u, 2u, 6u, 11u, 12u}) {
    packet.timestamp_ns = second * kSecond;
    session.observe(packet);
  }
  (void)session.finish();

  // Intervals [0,5) [5,10) [10,15): three closes, three JSON lines.
  EXPECT_EQ(session.intervals_closed(), 3u);
  EXPECT_EQ(exporter.lines_written(), 3u);
  std::istringstream in(out.str());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    const Snapshot snapshot = from_json_line(line);
    ++lines;
    EXPECT_EQ(snapshot.find("nd_session_intervals_total")->counter_value,
              lines);
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(registry.snapshot().find("nd_session_packets_total")
                ->counter_value,
            5u);
}

}  // namespace
}  // namespace nd::telemetry
