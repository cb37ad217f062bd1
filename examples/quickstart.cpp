// Quickstart: identify the heavy hitters on a synthetic link with a
// multistage filter in ~40 lines of library use.
//
//   $ ./quickstart
//
// Builds a small trace (5,000 flows, Zipf sizes), configures a 4-stage
// parallel multistage filter with conservative update and shielding, and
// prints the flows above 0.1% of link capacity after each interval.
#include <cstdio>
#include <vector>

#include "common/format.hpp"
#include "core/multistage_filter.hpp"
#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

int main() {
  // A 5% scale model of the paper's COS trace (university access link).
  auto trace_config = trace::Presets::cos();
  trace_config.num_intervals = 3;

  // Threshold: 0.1% of what the link can carry per 5 s interval.
  const common::ByteCount threshold =
      trace_config.link_capacity_per_interval / 1000;

  core::MultistageFilterConfig config;
  config.depth = 4;
  config.buckets_per_stage = 1000;
  config.flow_memory_entries = 1024;
  config.threshold = threshold;
  config.conservative_update = true;  // Section 3.3.2
  config.shielding = true;            // Section 3.3.1
  config.preserve = flowmem::PreservePolicy::kPreserve;
  core::MultistageFilter device(config);

  const auto definition = packet::FlowDefinition::five_tuple();
  trace::TraceSynthesizer synth(trace_config);

  std::printf("Tracking flows above %s per interval (%s of link)\n\n",
              common::format_bytes(threshold).c_str(),
              common::format_percent(
                  static_cast<double>(threshold) /
                      static_cast<double>(
                          trace_config.link_capacity_per_interval),
                  1)
                  .c_str());

  for (;;) {
    const auto packets = synth.next_interval();
    if (packets.empty()) break;

    // Classify the interval once, then hand the device the whole batch.
    std::vector<packet::ClassifiedPacket> batch;
    batch.reserve(packets.size());
    for (const auto& packet : packets) {
      if (const auto key = definition.classify(packet)) {
        batch.push_back(
            packet::ClassifiedPacket::from(*key, packet.size_bytes));
      }
    }
    device.observe_batch(batch);

    auto report = device.end_interval();
    core::sort_by_size(report);
    std::printf("interval %u: %zu flows in memory, top heavy hitters:\n",
                report.interval, report.flows.size());
    std::size_t shown = 0;
    for (const auto& flow : report.flows) {
      if (flow.estimated_bytes < threshold || shown == 5) break;
      std::printf("  %-45s %12s%s\n", flow.key.to_string().c_str(),
                  common::format_bytes(flow.estimated_bytes).c_str(),
                  flow.exact ? "  (exact)" : "  (lower bound)");
      ++shown;
    }
    std::printf("\n");
  }
  return 0;
}
