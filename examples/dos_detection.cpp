// DoS victim detection (the paper's second flow definition).
//
// Flows are aggregated by destination IP; a simulated attack floods one
// victim starting in interval 3. The example shows (a) the multistage
// filter flagging the victim within the first interval of the attack —
// "faster detection of new large flows" (Section 5.2, advantage v) —
// and (b) sampled NetFlow's estimate of the same aggregate wobbling.
#include <cstdio>
#include <vector>

#include "baseline/sampled_netflow.hpp"
#include "common/format.hpp"
#include "core/multistage_filter.hpp"
#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

int main() {
  auto trace_config = trace::scaled(trace::Presets::ind(), 0.25);
  trace_config.num_intervals = 7;

  // The attack: 1,200 hosts' worth of UDP traffic onto one server,
  // intervals 3..5.
  const std::uint32_t victim_ip = 0x0A00FF01;  // 10.0.255.1
  trace::InjectedFlow attack;
  attack.prototype.src_ip = 0x0B000001;
  attack.prototype.dst_ip = victim_ip;
  attack.prototype.src_port = 53;
  attack.prototype.dst_port = 444;
  attack.prototype.protocol = packet::IpProtocol::kUdp;
  attack.bytes_per_interval = trace_config.bytes_per_interval / 5;
  attack.from_interval = 3;
  attack.to_interval = 5;

  trace::TraceSynthesizer synth(trace_config);
  synth.inject(attack);

  const common::ByteCount threshold =
      trace_config.link_capacity_per_interval / 2000;  // 0.05% of link

  core::MultistageFilterConfig filter_config;
  filter_config.depth = 4;
  filter_config.buckets_per_stage = 2000;
  filter_config.flow_memory_entries = 2048;
  filter_config.threshold = threshold;
  filter_config.conservative_update = true;
  filter_config.shielding = true;
  filter_config.preserve = flowmem::PreservePolicy::kPreserve;
  core::MultistageFilter filter(filter_config);

  baseline::SampledNetFlowConfig netflow_config;
  netflow_config.sampling_divisor = 16;
  baseline::SampledNetFlow netflow(netflow_config);

  const auto definition = packet::FlowDefinition::destination_ip();
  const auto victim_key = packet::FlowKey::destination_ip(victim_ip);

  std::printf(
      "Watching destination-IP aggregates above %s per interval.\n"
      "Attack on %s active during intervals 3..5.\n\n",
      common::format_bytes(threshold).c_str(),
      common::format_ipv4(victim_ip).c_str());
  std::printf("%-9s %-22s %-22s %s\n", "interval", "filter estimate",
              "netflow estimate", "alert");

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
    filter.observe_batch(batch);
    netflow.observe_batch(batch);
    const auto filter_report = filter.end_interval();
    const auto netflow_report = netflow.end_interval();

    const auto* filter_flow = core::find_flow(filter_report, victim_key);
    const auto* netflow_flow = core::find_flow(netflow_report, victim_key);
    const common::ByteCount filter_estimate =
        filter_flow ? filter_flow->estimated_bytes : 0;
    const common::ByteCount netflow_estimate =
        netflow_flow ? netflow_flow->estimated_bytes : 0;

    std::printf("%-9u %-22s %-22s %s\n", filter_report.interval,
                common::format_bytes(filter_estimate).c_str(),
                common::format_bytes(netflow_estimate).c_str(),
                filter_estimate >= threshold
                    ? ">>> victim under attack <<<"
                    : "-");
  }

  std::printf(
      "\nThe filter reports a guaranteed lower bound on the victim's "
      "traffic the moment it crosses\nthe threshold; NetFlow's estimate "
      "is a scaled sample that can over- or undershoot.\n");
  return 0;
}
