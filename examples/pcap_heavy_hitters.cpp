// Heavy hitters from a pcap capture file.
//
//   $ ./pcap_heavy_hitters [capture.pcap]
//
// Reads a standard pcap file (synthesizing a demo capture first if no
// path is given), streams the packets through both of the paper's
// algorithms in 5-second measurement intervals, and prints the heavy
// hitters each identifies. Demonstrates that the devices consume real
// packet bytes end to end: pcap -> Ethernet/IPv4/TCP parsing -> flow
// classification -> measurement.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "packet/flow_definition.hpp"
#include "pcap/pcap.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

namespace {

std::string synthesize_demo_capture() {
  const auto path =
      (std::filesystem::temp_directory_path() / "nd_demo_capture.pcap")
          .string();
  auto config = trace::scaled(trace::Presets::cos(), 0.5);
  config.num_intervals = 2;
  trace::TraceSynthesizer synth(config);

  std::ofstream out(path, std::ios::binary);
  pcap::PcapWriter writer(out, /*snaplen=*/96);  // headers only
  for (;;) {
    const auto packets = synth.next_interval();
    if (packets.empty()) break;
    for (const auto& packet : packets) {
      writer.write(packet);
    }
  }
  std::printf("synthesized demo capture: %s (%llu packets, snaplen 96)\n\n",
              path.c_str(),
              static_cast<unsigned long long>(writer.packets_written()));
  return path;
}

void print_heavy_hitters(const char* name, core::Report report,
                         common::ByteCount threshold) {
  core::sort_by_size(report);
  std::printf("  %s:\n", name);
  for (const auto& flow : report.flows) {
    if (flow.estimated_bytes < threshold) continue;
    std::printf("    %-45s %12s\n", flow.key.to_string().c_str(),
                common::format_bytes(flow.estimated_bytes).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : synthesize_demo_capture();

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  const common::ByteCount threshold = 50'000;  // bytes per interval
  const auto interval_ns = 5'000'000'000ULL;

  core::SampleAndHoldConfig sh;
  sh.flow_memory_entries = 2048;
  sh.threshold = threshold;
  sh.oversampling = 20.0;
  core::SampleAndHold sample_and_hold(sh);

  core::MultistageFilterConfig msf;
  msf.flow_memory_entries = 2048;
  msf.depth = 4;
  msf.buckets_per_stage = 1024;
  msf.threshold = threshold;
  core::MultistageFilter multistage(msf);

  const auto definition = packet::FlowDefinition::five_tuple();

  try {
    pcap::PcapReader reader(in);
    common::TimestampNs interval_end = interval_ns;
    std::uint64_t packets = 0;
    std::uint32_t interval = 0;
    // The current interval's classified packets, fed to both devices
    // as one batch when the interval closes.
    std::vector<packet::ClassifiedPacket> batch;

    auto close_interval = [&] {
      sample_and_hold.observe_batch(batch);
      multistage.observe_batch(batch);
      batch.clear();
      std::printf("interval %u (%llu packets so far), flows above %s:\n",
                  interval++, static_cast<unsigned long long>(packets),
                  common::format_bytes(threshold).c_str());
      print_heavy_hitters("sample-and-hold", sample_and_hold.end_interval(),
                          threshold);
      print_heavy_hitters("multistage-filter", multistage.end_interval(),
                          threshold);
      std::printf("\n");
    };

    while (const auto record = reader.next_record()) {
      while (record->timestamp_ns >= interval_end) {
        close_interval();
        interval_end += interval_ns;
      }
      if (const auto key = definition.classify(*record)) {
        batch.push_back(
            packet::ClassifiedPacket::from(*key, record->size_bytes));
      }
      ++packets;
    }
    close_interval();
  } catch (const pcap::PcapError& error) {
    std::fprintf(stderr, "pcap error: %s\n", error.what());
    return 1;
  }
  return 0;
}
