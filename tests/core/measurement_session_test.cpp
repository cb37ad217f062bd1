#include "core/measurement_session.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "baseline/exact_oracle.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "telemetry/metrics.hpp"

#include "../support/report_testing.hpp"

namespace nd::core {
namespace {

using std::chrono_literals::operator""s;

constexpr common::TimestampNs kSecond = 1'000'000'000ULL;

packet::PacketRecord packet_at(common::TimestampNs ts, std::uint32_t dst,
                               std::uint32_t size) {
  packet::PacketRecord p;
  p.timestamp_ns = ts;
  p.src_ip = 1;
  p.dst_ip = dst;
  p.protocol = packet::IpProtocol::kUdp;
  p.size_bytes = size;
  return p;
}

MeasurementSession oracle_session(common::IntervalDuration duration = 5s) {
  return MeasurementSession(std::make_unique<baseline::ExactOracle>(),
                            packet::FlowDefinition::destination_ip(),
                            duration);
}

TEST(MeasurementSession, NoReportsBeforeBoundary) {
  auto session = oracle_session();
  session.observe(packet_at(1 * kSecond, 7, 100));
  session.observe(packet_at(4 * kSecond, 7, 100));
  EXPECT_TRUE(session.drain_reports().empty());
  EXPECT_EQ(session.intervals_closed(), 0u);
}

TEST(MeasurementSession, BoundaryClosesInterval) {
  auto session = oracle_session();
  session.observe(packet_at(1 * kSecond, 7, 100));
  session.observe(packet_at(6 * kSecond, 7, 50));  // crosses 5 s boundary
  const auto reports = session.drain_reports();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].flows.size(), 1u);
  EXPECT_EQ(reports[0].flows[0].estimated_bytes, 100u);
}

TEST(MeasurementSession, BoundariesAnchoredToClock) {
  // First packet at t=7s: interval [5s,10s); a packet at 9.9s stays in
  // it, one at 10s closes it.
  auto session = oracle_session();
  session.observe(packet_at(7 * kSecond, 1, 10));
  session.observe(packet_at(9 * kSecond + 900'000'000, 1, 10));
  EXPECT_TRUE(session.drain_reports().empty());
  session.observe(packet_at(10 * kSecond, 1, 10));
  EXPECT_EQ(session.drain_reports().size(), 1u);
}

TEST(MeasurementSession, IdleGapClosesEveryElapsedInterval) {
  auto session = oracle_session();
  session.observe(packet_at(0, 1, 10));
  session.observe(packet_at(21 * kSecond, 1, 10));  // 4 boundaries passed
  const auto reports = session.drain_reports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].flows.size(), 1u);
  EXPECT_TRUE(reports[1].flows.empty());
  EXPECT_TRUE(reports[3].flows.empty());
}

TEST(MeasurementSession, FinishFlushesPartialInterval) {
  auto session = oracle_session();
  session.observe(packet_at(2 * kSecond, 9, 400));
  const auto reports = session.finish();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].flows[0].estimated_bytes, 400u);
  EXPECT_EQ(session.intervals_closed(), 1u);
}

TEST(MeasurementSession, FinishOnEmptySessionYieldsNothing) {
  auto session = oracle_session();
  EXPECT_TRUE(session.finish().empty());
}

TEST(MeasurementSession, UnclassifiedPacketsCounted) {
  packet::PacketPattern tcp_only;
  tcp_only.protocol = packet::IpProtocol::kTcp;
  MeasurementSession session(
      std::make_unique<baseline::ExactOracle>(),
      packet::FlowDefinition::destination_ip(tcp_only), 5s);
  session.observe(packet_at(0, 1, 10));  // UDP: rejected by pattern
  EXPECT_EQ(session.packets_observed(), 1u);
  EXPECT_EQ(session.packets_unclassified(), 1u);
  const auto reports = session.finish();
  EXPECT_TRUE(reports[0].flows.empty());
}

TEST(MeasurementSession, WorksWithRealDevice) {
  MultistageFilterConfig config;
  config.flow_memory_entries = 64;
  config.depth = 2;
  config.buckets_per_stage = 64;
  config.threshold = 1000;
  MeasurementSession session(std::make_unique<MultistageFilter>(config),
                             packet::FlowDefinition::destination_ip(), 1s);
  for (common::TimestampNs t = 0; t < 3 * kSecond;
       t += kSecond / 10) {
    session.observe(packet_at(t, 42, 200));  // 2000 B/s: above threshold
  }
  const auto reports = session.finish();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& report : reports) {
    EXPECT_NE(find_flow(report, packet::FlowKey::destination_ip(42)),
              nullptr);
  }
}

TEST(MeasurementSession, DeviceAccessor) {
  auto session = oracle_session();
  EXPECT_EQ(session.device().name(), "exact-oracle");
}

// ---------------------------------------------------------------------
// observe_batch == observe: any split of the stream into batches gives
// the same reports, tallies, telemetry and checkpoint bytes as feeding
// one packet at a time, with reports drained at the same packets.

using DeviceFactory = std::function<std::unique_ptr<MeasurementDevice>()>;

DeviceFactory multistage_device() {
  return [] {
    MultistageFilterConfig config;
    config.flow_memory_entries = 256;
    config.depth = 3;
    config.buckets_per_stage = 128;
    config.threshold = 20'000;
    config.preserve = flowmem::PreservePolicy::kPreserve;
    config.seed = 11;
    return std::make_unique<MultistageFilter>(config);
  };
}

DeviceFactory sample_and_hold_device() {
  return [] {
    SampleAndHoldConfig config;
    config.flow_memory_entries = 256;
    config.threshold = 20'000;
    config.oversampling = 4.0;
    config.preserve = flowmem::PreservePolicy::kEarlyRemoval;
    config.seed = 12;
    return std::make_unique<SampleAndHold>(config);
  };
}

constexpr auto kBatchInterval = 1s;

/// About ten 1 s intervals of TCP and UDP packets over a few heavy and
/// many light flows, with an idle gap spanning three boundaries halfway.
std::vector<packet::PacketRecord> mixed_stream(std::uint64_t seed,
                                               std::size_t count = 3000) {
  common::Rng rng(seed);
  std::vector<packet::PacketRecord> packets;
  common::TimestampNs t = 3 * kSecond + 123;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.uniform(4'000'000);
    if (i == count / 2) t += 3 * kSecond + kSecond / 2;
    packet::PacketRecord p;
    p.timestamp_ns = t;
    const bool heavy = rng.uniform(2) == 0;
    const auto flow =
        static_cast<std::uint32_t>(heavy ? rng.uniform(8) : rng.uniform(2000));
    p.src_ip = 0x0A000000 + flow;
    p.dst_ip = 0x0B000000 + (flow % 97);
    p.src_port = static_cast<std::uint16_t>(1024 + flow);
    p.dst_port = 80;
    p.protocol = rng.uniform(4) == 0 ? packet::IpProtocol::kUdp
                                     : packet::IpProtocol::kTcp;
    p.size_bytes = static_cast<std::uint32_t>(40 + rng.uniform(1460));
    packets.push_back(p);
  }
  return packets;
}

/// Everything observable about one run of a session over a stream.
struct SessionRun {
  std::vector<Report> reports;
  /// Encoded checkpoint() wherever reports were drained, then at the end
  /// of the stream (before finish).
  std::vector<std::vector<std::uint8_t>> checkpoints;
  std::uint64_t packets{0};
  std::uint64_t unclassified{0};
  common::IntervalIndex intervals{0};
  std::uint64_t tm_packets{0};
  std::uint64_t tm_unclassified{0};
  std::uint64_t tm_intervals{0};
};

/// Feed `packets` as consecutive batches of the given sizes (their sum
/// must cover the stream), or one packet at a time through observe()
/// when `batches` is empty. `session` is fresh or resumed.
SessionRun drive(MeasurementSession& session,
                 std::span<const packet::PacketRecord> packets,
                 const std::vector<std::size_t>& batches) {
  telemetry::MetricsRegistry registry;
  session.attach_telemetry(&registry);
  SessionRun run;
  auto drain = [&] {
    std::vector<Report> drained = session.drain_reports();
    if (drained.empty()) return;
    for (Report& report : drained) run.reports.push_back(std::move(report));
    run.checkpoints.push_back(encode_checkpoint(session.checkpoint()));
  };
  if (batches.empty()) {
    for (const auto& packet : packets) {
      session.observe(packet);
      drain();
    }
  } else {
    std::size_t offset = 0;
    for (const std::size_t size : batches) {
      auto rest = packets.subspan(offset, size);
      offset += size;
      while (!rest.empty()) {
        const std::size_t used = session.observe_batch(rest);
        EXPECT_GE(used, 1u);
        rest = rest.subspan(used);
        drain();
      }
    }
    EXPECT_EQ(offset, packets.size());
  }
  run.checkpoints.push_back(encode_checkpoint(session.checkpoint()));
  for (Report& report : session.finish()) {
    run.reports.push_back(std::move(report));
  }
  run.packets = session.packets_observed();
  run.unclassified = session.packets_unclassified();
  run.intervals = session.intervals_closed();
  run.tm_packets = registry.counter("nd_session_packets_total").value();
  run.tm_unclassified =
      registry.counter("nd_session_unclassified_total").value();
  run.tm_intervals = registry.counter("nd_session_intervals_total").value();
  session.attach_telemetry(nullptr);
  return run;
}

SessionRun drive_fresh(const DeviceFactory& factory,
                       const packet::FlowDefinition& definition,
                       std::span<const packet::PacketRecord> packets,
                       const std::vector<std::size_t>& batches) {
  MeasurementSession session(factory(), definition, kBatchInterval);
  return drive(session, packets, batches);
}

void expect_runs_equal(const SessionRun& a, const SessionRun& b) {
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    nd::testing::expect_reports_equal(a.reports[i], b.reports[i]);
  }
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.unclassified, b.unclassified);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.tm_packets, b.tm_packets);
  EXPECT_EQ(a.tm_unclassified, b.tm_unclassified);
  EXPECT_EQ(a.tm_intervals, b.tm_intervals);
}

std::vector<std::size_t> random_splits(std::uint64_t seed,
                                       std::size_t total) {
  common::Rng rng(seed);
  std::vector<std::size_t> sizes;
  while (total > 0) {
    const std::size_t size =
        std::min<std::size_t>(total, 1 + rng.uniform(700));
    sizes.push_back(size);
    total -= size;
  }
  return sizes;
}

/// Indices of the packets that close an interval (the first packet at or
/// past each boundary), under the session's clock anchoring.
std::vector<std::size_t> boundary_indices(
    std::span<const packet::PacketRecord> packets) {
  const common::TimestampNs interval = kSecond;
  std::vector<std::size_t> indices;
  common::TimestampNs end = (packets[0].timestamp_ns / interval + 1) * interval;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (packets[i].timestamp_ns < end) continue;
    indices.push_back(i);
    end = (packets[i].timestamp_ns / interval + 1) * interval;
  }
  return indices;
}

TEST(MeasurementSessionBatch, RandomSplitsMatchPacketAtATime) {
  const auto definition = packet::FlowDefinition::five_tuple();
  for (const DeviceFactory& factory :
       {multistage_device(), sample_and_hold_device()}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto packets = mixed_stream(seed);
      const SessionRun reference = drive_fresh(factory, definition, packets, {});
      ASSERT_GE(reference.reports.size(), 8u);
      const SessionRun batched = drive_fresh(
          factory, definition, packets,
          random_splits(seed * 31, packets.size()));
      expect_runs_equal(reference, batched);
      // One batch holding the whole stream splits only at boundaries.
      expect_runs_equal(reference,
                        drive_fresh(factory, definition, packets,
                                    {packets.size()}));
    }
  }
}

TEST(MeasurementSessionBatch, BoundaryAtFirstAndLastIndexOfABatch) {
  const auto definition = packet::FlowDefinition::destination_ip();
  const auto packets = mixed_stream(7);
  const auto boundaries = boundary_indices(packets);
  ASSERT_GE(boundaries.size(), 4u);
  // Batches cut so that every other boundary packet opens a batch and
  // the ones between end one.
  std::vector<std::size_t> sizes;
  std::size_t start = 0;
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    const std::size_t cut =
        b % 2 == 0 ? boundaries[b] : boundaries[b] + 1;
    if (cut > start) sizes.push_back(cut - start);
    start = std::max(start, cut);
  }
  sizes.push_back(packets.size() - start);
  expect_runs_equal(
      drive_fresh(multistage_device(), definition, packets, {}),
      drive_fresh(multistage_device(), definition, packets, sizes));

  // The return value: a batch opening with a boundary packet stops right
  // after it; a batch ending with one is consumed whole.
  MeasurementSession session(multistage_device()(), definition,
                             kBatchInterval);
  std::span<const packet::PacketRecord> all(packets);
  const std::size_t first = boundaries[0];
  EXPECT_EQ(session.observe_batch(all.first(first + 1)), first + 1);
  EXPECT_EQ(session.drain_reports().size(), 1u);
  const std::size_t second = boundaries[1];
  EXPECT_EQ(session.observe_batch(all.subspan(first + 1, second - first - 1)),
            second - first - 1);
  EXPECT_TRUE(session.drain_reports().empty());
  EXPECT_EQ(session.observe_batch(all.subspan(second)), 1u);
  EXPECT_EQ(session.drain_reports().size(), 1u);
  EXPECT_EQ(session.packets_observed(), second + 1);
}

TEST(MeasurementSessionBatch, IdleGapInsideOneBatchClosesEveryInterval) {
  const auto definition = packet::FlowDefinition::five_tuple();
  std::vector<packet::PacketRecord> packets;
  for (std::uint32_t i = 0; i < 40; ++i) {
    // 40 packets in [0.2 s, 0.6 s), then 40 more from 4.5 s: the gap
    // spans the boundaries at 1, 2, 3 and 4 s.
    const common::TimestampNs t =
        (i < 20 ? kSecond / 5 : 4 * kSecond + kSecond / 2) +
        (i % 20) * (kSecond / 50);
    packets.push_back(packet_at(t, 1 + i % 3, 1500));
  }
  MeasurementSession session(multistage_device()(), definition,
                             kBatchInterval);
  EXPECT_EQ(session.observe_batch(packets), 21u);
  const auto reports = session.drain_reports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].interval, 0u);
  EXPECT_EQ(reports[3].interval, 3u);
  EXPECT_TRUE(reports[1].flows.empty());
  expect_runs_equal(drive_fresh(multistage_device(), definition, packets, {}),
                    drive_fresh(multistage_device(), definition, packets,
                                {packets.size()}));
}

TEST(MeasurementSessionBatch, AllUnclassifiedBatch) {
  packet::PacketPattern tcp_only;
  tcp_only.protocol = packet::IpProtocol::kTcp;
  const auto definition = packet::FlowDefinition::destination_ip(tcp_only);
  std::vector<packet::PacketRecord> packets;
  for (std::uint32_t i = 0; i < 500; ++i) {
    packets.push_back(packet_at(kSecond / 2 + i * (kSecond / 200), i, 900));
  }
  const SessionRun batched =
      drive_fresh(multistage_device(), definition, packets, {packets.size()});
  EXPECT_EQ(batched.packets, packets.size());
  EXPECT_EQ(batched.unclassified, packets.size());
  EXPECT_EQ(batched.tm_unclassified, packets.size());
  for (const Report& report : batched.reports) {
    EXPECT_TRUE(report.flows.empty());
  }
  expect_runs_equal(
      drive_fresh(multistage_device(), definition, packets, {}), batched);
}

TEST(MeasurementSessionBatch, ResumeFromMidStreamCheckpoint) {
  const auto definition = packet::FlowDefinition::five_tuple();
  for (const DeviceFactory& factory :
       {multistage_device(), sample_and_hold_device()}) {
    const auto packets = mixed_stream(21);
    const SessionRun reference = drive_fresh(factory, definition, packets, {});

    // Batch run interrupted mid-interval, checkpointed, and resumed into
    // a fresh device for the rest of the stream.
    const std::size_t cut = packets.size() / 3 + 17;
    MeasurementSession first(factory(), definition, kBatchInterval);
    std::vector<Report> reports;
    std::span<const packet::PacketRecord> prefix =
        std::span(packets).first(cut);
    while (!prefix.empty()) {
      prefix = prefix.subspan(first.observe_batch(prefix));
      for (Report& report : first.drain_reports()) {
        reports.push_back(std::move(report));
      }
    }
    const SessionCheckpoint saved =
        decode_checkpoint(encode_checkpoint(first.checkpoint()));
    MeasurementSession resumed =
        MeasurementSession::resume(saved, factory(), definition);
    const auto rest = std::span(packets).subspan(cut);
    SessionRun tail = drive(resumed, rest, random_splits(6, rest.size()));
    reports.insert(reports.end(), tail.reports.begin(), tail.reports.end());

    ASSERT_EQ(reports.size(), reference.reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      nd::testing::expect_reports_equal(reference.reports[i], reports[i]);
    }
    EXPECT_EQ(tail.packets, reference.packets);
    EXPECT_EQ(tail.unclassified, reference.unclassified);
    EXPECT_EQ(tail.intervals, reference.intervals);
    EXPECT_EQ(tail.checkpoints.back(), reference.checkpoints.back());
  }
}

}  // namespace
}  // namespace nd::core
