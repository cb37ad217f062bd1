// `perfbench_tool replay`: the collector_replay load generator. One
// thread plays a fleet of devices, one net::TcpTransport connection
// each, re-sending reports recorded from `ndtm measure --fleet-size M
// --export` for several rounds with intervals renumbered per round.
//
// Frames are prepared once at start-up (the benchmark counts that as
// set-up), then the generator serves one collector per port number read
// from stdin, so a run's repetitions share one preparation. Sends block
// on TCP backpressure: the loop is closed.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "commands.hpp"
#include "net/transport.hpp"
#include "reporting/record_codec.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace nd;

namespace {

struct Frame {
  std::array<std::uint8_t, reporting::kFrameHeaderBytes> header{};
  std::vector<std::uint8_t> payload;
};

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int cmd_replay(const Flags& flags) {
  std::vector<std::string> paths;
  {
    std::stringstream list(flags.text("reports"));
    for (std::string path; std::getline(list, path, ',');) {
      paths.push_back(path);
    }
  }
  const auto rounds = static_cast<std::uint32_t>(flags.number("rounds"));
  const auto kind = packet::FlowKeyKind::kFiveTuple;

  // frames[device][round * per_round + k]
  std::vector<std::vector<Frame>> frames(paths.size());
  std::size_t per_round = 0;
  std::uint64_t total_bytes = 0;
  for (std::size_t device = 0; device < paths.size(); ++device) {
    const auto data = read_file(paths[device]);
    const auto entries = split_export(data);
    if (device > 0 && entries.size() != per_round) {
      throw std::runtime_error("replay: devices recorded different "
                               "interval counts");
    }
    per_round = entries.size();
    for (std::uint32_t round = 0; round < rounds; ++round) {
      for (const ExportEntry& entry : entries) {
        const auto recorded =
            std::span<const std::uint8_t>(data).subspan(entry.offset,
                                                        entry.bytes);
        reporting::DecodedReport decoded = reporting::decode_full(recorded);
        decoded.report.interval +=
            round * static_cast<std::uint32_t>(per_round);
        Frame frame;
        frame.payload =
            reporting::encode(decoded.report, kind, decoded.metrics_json);
        if (round == 0 &&
            !std::equal(frame.payload.begin(), frame.payload.end(),
                        recorded.begin(), recorded.end())) {
          throw std::runtime_error("replay: report did not re-encode to "
                                   "its recorded bytes");
        }
        frame.header = reporting::frame_header(frame.payload);
        total_bytes += frame.header.size() + frame.payload.size();
        frames[device].push_back(std::move(frame));
      }
    }
  }
  const auto intervals = static_cast<std::uint32_t>(per_round * rounds);
  std::printf("{\"ready\": true, \"devices\": %zu, \"intervals\": %u, "
              "\"bytes\": %llu}\n",
              paths.size(), intervals,
              static_cast<unsigned long long>(total_bytes));
  std::fflush(stdout);

  for (std::string line; std::getline(std::cin, line);) {
    const auto port =
        static_cast<std::uint16_t>(parse_decimal(line, "replay port"));
    std::vector<std::unique_ptr<net::TcpTransport>> transports;
    for (std::size_t device = 0; device < paths.size(); ++device) {
      net::TcpTransportConfig config;
      config.port = port;
      config.device_id = static_cast<std::uint32_t>(device);
      transports.push_back(std::make_unique<net::TcpTransport>(config));
    }
    bool ok = true;
    for (std::size_t k = 0; k < per_round * rounds && ok; ++k) {
      for (std::size_t device = 0; device < paths.size() && ok; ++device) {
        const Frame& frame = frames[device][k];
        ok = transports[device]->send_frame_parts(frame.header,
                                                  frame.payload);
      }
    }
    for (auto& transport : transports) {
      ok = ok && transport->send_bye(intervals);
    }
    const std::uint64_t last_bye_ns = monotonic_ns();
    transports.clear();
    std::printf("{\"sent\": %s, \"last_bye_ns\": %llu}\n",
                ok ? "true" : "false",
                static_cast<unsigned long long>(last_bye_ns));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
