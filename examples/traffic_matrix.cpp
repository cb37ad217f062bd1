// AS-pair traffic matrix (the paper's third flow definition): find the
// heavy entries of the inter-domain traffic matrix for rerouting /
// peering decisions, using a 4-way sharded multistage filter with an
// adaptive threshold so no a priori knowledge of the mix is needed
// (Section 6). Wrapping the ShardedDevice in AdaptiveDevice runs one
// private adaptor per shard — each shard steers its own slice of the
// flow space toward the 90% usage target, and the merged report carries
// the per-shard thresholds.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "common/format.hpp"
#include "core/adaptive_device.hpp"
#include "core/multistage_filter.hpp"
#include "core/sharded_device.hpp"
#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

int main() {
  auto trace_config = trace::scaled(trace::Presets::mag(), 0.05);
  trace_config.num_intervals = 6;
  trace::TraceSynthesizer synth(trace_config);
  const auto definition =
      packet::FlowDefinition::as_pair(synth.as_resolver());

  // The memory budget is split across shards the way a deployment would
  // split SRAM banks; each shard gets its own, smaller filter.
  constexpr std::uint32_t kShards = 4;
  constexpr std::size_t kTotalEntries = 512;
  core::ShardedDeviceConfig sharded;
  sharded.shards = kShards;
  sharded.seed = 1;
  core::AdaptiveDevice device(
      std::make_unique<core::ShardedDevice>(
          sharded,
          [&](std::uint32_t, std::uint64_t shard_seed) {
            core::MultistageFilterConfig config;
            config.depth = 4;
            config.buckets_per_stage = 512 / kShards;
            config.flow_memory_entries = kTotalEntries / kShards;
            config.threshold =
                trace_config.link_capacity_per_interval / 1000;
            config.conservative_update = true;
            config.shielding = true;
            config.preserve = flowmem::PreservePolicy::kPreserve;
            config.seed = shard_seed;
            return std::make_unique<core::MultistageFilter>(config);
          }),
      core::multistage_adaptor());

  core::Report last_report;
  for (;;) {
    const auto packets = synth.next_interval();
    if (packets.empty()) break;
    std::vector<packet::ClassifiedPacket> batch;
    batch.reserve(packets.size());
    for (const auto& packet : packets) {
      if (const auto key = definition.classify(packet)) {
        batch.push_back(
            packet::ClassifiedPacket::from(*key, packet.size_bytes));
      }
    }
    device.observe_batch(batch);
    last_report = device.end_interval();
  }

  core::sort_by_size(last_report);
  std::printf(
      "Heavy entries of the AS-pair traffic matrix (last interval, "
      "effective threshold auto-adapted to %s):\n\n",
      common::format_bytes(last_report.threshold).c_str());

  // Each shard adapted its own threshold to its slice of the AS pairs;
  // the report's effective threshold is the per-shard maximum.
  std::printf("%-8s %14s %10s %12s\n", "shard", "threshold", "usage",
              "entries");
  for (std::size_t s = 0; s < last_report.shards.size(); ++s) {
    const core::ShardStatus& status = last_report.shards[s];
    std::printf("%-8zu %14s %9.1f%% %7zu/%zu\n", s,
                common::format_bytes(status.threshold).c_str(),
                100.0 * status.smoothed_usage, status.entries_used,
                status.capacity);
  }
  std::printf("\n");

  std::printf("%-22s %14s\n", "AS pair", "bytes/interval");
  std::size_t shown = 0;
  for (const auto& flow : last_report.flows) {
    if (shown == 15 || flow.estimated_bytes == 0) break;
    std::printf("%-22s %14s%s\n", flow.key.to_string().c_str(),
                common::format_bytes(flow.estimated_bytes).c_str(),
                flow.exact ? "  (exact)" : "");
    ++shown;
  }

  // Row sums: traffic originated per source AS among the heavy pairs.
  std::map<std::uint32_t, common::ByteCount> per_source;
  for (const auto& flow : last_report.flows) {
    per_source[flow.key.src_as()] += flow.estimated_bytes;
  }
  std::vector<std::pair<std::uint32_t, common::ByteCount>> sources(
      per_source.begin(), per_source.end());
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  std::printf("\nTop source ASes among heavy pairs:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, sources.size());
       ++i) {
    std::printf("  AS%-8u %14s\n", sources[i].first,
                common::format_bytes(sources[i].second).c_str());
  }
  std::printf(
      "\nMemory used: %zu of %zu entries — a fraction of the %s AS "
      "pairs active on the link.\n",
      last_report.entries_used, kTotalEntries,
      common::format_count(7'408).c_str());
  return 0;
}
