// `perfbench_tool reference`: the expected export of a workload,
// computed in process through the library's batch path — never by the
// `ndtm` binary under test.
#include "reference.hpp"

#include "commands.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/sharded_device.hpp"
#include "net/fleet.hpp"
#include "pcap/pcap.hpp"
#include "reporting/record_codec.hpp"

namespace perfbench {

using namespace nd;

namespace {

constexpr std::size_t kBatch = 4096;

}  // namespace

ReferenceRun reference_reports(const MeasureConfig& config,
                               const std::string& pcap_path) {
  // One member is the plain device `ndtm measure` builds; M members are
  // the fleet slices whose merge a `--shards M` run must equal.
  std::vector<std::unique_ptr<core::MeasurementDevice>> members;
  if (config.shards == 1) {
    members.push_back(make_device(config, config.entries, config.seed));
  } else {
    const std::size_t per_member =
        std::max<std::size_t>(config.entries / config.shards, 64);
    for (std::uint32_t m = 0; m < config.shards; ++m) {
      members.push_back(std::make_unique<net::FleetSliceDevice>(
          m, config.shards, config.seed,
          make_device(config, per_member,
                      core::shard_seed(config.seed, m))));
    }
  }

  ReferenceRun run;
  std::vector<packet::ClassifiedPacket> batch;
  batch.reserve(kBatch);
  auto flush = [&] {
    for (auto& member : members) member->observe_batch(batch);
    batch.clear();
  };
  auto close = [&] {
    flush();
    std::vector<core::Report> closed;
    for (auto& member : members) {
      closed.push_back(member->end_interval());
      // Every member sorts its report before shipping it, as measure
      // does before export or send.
      core::sort_by_size(closed.back());
    }
    core::Report report =
        config.shards == 1
            ? std::move(closed.front())
            : core::merge_member_reports(closed.front().interval, closed);
    core::sort_by_size(report);
    run.reports.push_back(std::move(report));
  };

  std::ifstream stream(pcap_path, std::ios::binary);
  if (!stream) throw std::runtime_error("cannot open " + pcap_path);
  pcap::PcapReader reader(stream);
  const packet::FlowDefinition definition = config.definition();
  IntervalClock clock(config.interval_s);
  while (const auto raw = reader.next()) {
    ++run.pcap_records;
    const auto record = packet::parse_frame(raw->data, raw->timestamp_ns);
    if (!record) continue;
    for (std::uint32_t n = clock.advance(record->timestamp_ns); n > 0; --n) {
      close();
    }
    ++run.packets;
    if (const auto key = definition.classify(*record)) {
      batch.push_back(packet::ClassifiedPacket::from(*key, record->size_bytes));
      if (batch.size() == kBatch) flush();
    }
  }
  if (clock.started()) close();
  return run;
}

std::vector<std::uint8_t> encode_export(
    const std::vector<core::Report>& reports, ExportStyle style,
    std::uint32_t rounds, packet::FlowKeyKind kind) {
  std::vector<std::uint8_t> out;
  const auto per_round = static_cast<std::uint32_t>(reports.size());
  for (std::uint32_t round = 0; round < rounds; ++round) {
    for (const core::Report& report : reports) {
      // The collector exports only intervals that carried flows.
      if (style == ExportStyle::kCollect && report.flows.empty()) continue;
      core::Report renumbered = report;
      renumbered.interval += round * per_round;
      const auto encoded = reporting::encode(renumbered, kind);
      out.insert(out.end(), encoded.begin(), encoded.end());
    }
  }
  return out;
}

int cmd_reference(const Flags& flags) {
  const MeasureConfig config = MeasureConfig::from(flags);
  const std::string style_name = flags.text("style");
  if (style_name != "measure" && style_name != "collect") {
    throw std::invalid_argument("--style is measure or collect");
  }
  const ExportStyle style = style_name == "measure" ? ExportStyle::kMeasure
                                                    : ExportStyle::kCollect;
  const auto rounds = static_cast<std::uint32_t>(flags.number("rounds", 1));
  const ReferenceRun run = reference_reports(config, flags.text("in"));
  const auto bytes = encode_export(run.reports, style, rounds,
                                   config.definition().kind());
  write_file(flags.text("out"), bytes);

  std::size_t records = 0;
  std::printf("{\"pcap_records\": %llu, \"packets\": %llu, \"flows\": [",
              static_cast<unsigned long long>(run.pcap_records),
              static_cast<unsigned long long>(run.packets));
  for (std::size_t i = 0; i < run.reports.size(); ++i) {
    records += run.reports[i].flows.size();
    std::printf("%s%zu", i == 0 ? "" : ", ", run.reports[i].flows.size());
  }
  std::printf("], \"records_per_round\": %zu, \"export_bytes\": %zu}\n",
              records, bytes.size());
  return 0;
}

int cmd_split(const Flags& flags) {
  const auto data = read_file(flags.text("in"));
  for (const ExportEntry& entry : split_export(data)) {
    std::printf(
        "{\"offset\": %zu, \"bytes\": %zu, \"interval\": %u, \"flows\": "
        "%zu, \"shards\": %zu, \"trailer_bytes\": %zu}\n",
        entry.offset, entry.bytes, entry.interval, entry.flows,
        entry.shards, entry.trailer_bytes);
  }
  return 0;
}

}  // namespace perfbench
