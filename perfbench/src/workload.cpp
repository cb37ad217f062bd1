#include "workload.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "reporting/record_codec.hpp"

namespace perfbench {

using namespace nd;

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got " + key);
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Flags::text(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

std::string Flags::text(const std::string& key,
                        const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t parse_decimal(const std::string& text,
                            const std::string& what) {
  if (text.empty() || text.size() > 19 ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    throw std::invalid_argument(what + " needs a plain decimal, got '" +
                                text + "'");
  }
  return std::stoull(text);
}

std::uint64_t Flags::number(const std::string& key) const {
  return parse_decimal(text(key), "--" + key);
}

std::uint64_t Flags::number(const std::string& key,
                            std::uint64_t fallback) const {
  return values_.count(key) > 0 ? number(key) : fallback;
}

MeasureConfig MeasureConfig::from(const Flags& flags) {
  MeasureConfig config;
  config.algorithm = flags.text("algorithm");
  if (config.algorithm != "multistage" &&
      config.algorithm != "sample-and-hold") {
    throw std::invalid_argument("unknown --algorithm " + config.algorithm);
  }
  config.entries = flags.number("entries");
  config.threshold = flags.number("threshold");
  config.interval_s = flags.number("interval");
  config.shards = static_cast<std::uint32_t>(flags.number("shards", 1));
  if (config.interval_s == 0 || config.shards == 0) {
    throw std::invalid_argument("--interval and --shards must be positive");
  }
  return config;
}

std::unique_ptr<core::MeasurementDevice> make_device(
    const MeasureConfig& config, std::size_t entries, std::uint64_t seed,
    telemetry::MetricsRegistry* metrics, telemetry::Labels labels) {
  if (config.algorithm == "sample-and-hold") {
    core::SampleAndHoldConfig device;
    device.flow_memory_entries = entries;
    device.threshold = config.threshold;
    device.oversampling = 4.0;
    device.preserve = flowmem::PreservePolicy::kEarlyRemoval;
    device.seed = seed;
    device.metrics = metrics;
    device.metric_labels = std::move(labels);
    return std::make_unique<core::SampleAndHold>(device);
  }
  core::MultistageFilterConfig device;
  device.flow_memory_entries = entries;
  device.depth = 4;
  device.buckets_per_stage =
      static_cast<std::uint32_t>(std::max<std::size_t>(entries, 64));
  device.threshold = config.threshold;
  device.preserve = flowmem::PreservePolicy::kPreserve;
  device.seed = seed;
  device.metrics = metrics;
  device.metric_labels = std::move(labels);
  return std::make_unique<core::MultistageFilter>(device);
}

std::unique_ptr<core::MeasurementDevice> make_sharded_device(
    const MeasureConfig& config, common::ThreadPool& pool) {
  core::ShardedDeviceConfig sharded;
  sharded.shards = config.shards;
  sharded.seed = config.seed;
  sharded.pool = &pool;
  const std::size_t per_shard =
      std::max<std::size_t>(config.entries / config.shards, 64);
  return std::make_unique<core::ShardedDevice>(
      sharded, [&](std::uint32_t shard, std::uint64_t shard_seed) {
        (void)shard;
        return make_device(config, per_shard, shard_seed);
      });
}

std::uint32_t IntervalClock::advance(std::uint64_t timestamp_ns) {
  if (!started_) {
    started_ = true;
    end_ns_ = (timestamp_ns / length_ns_ + 1) * length_ns_;
  }
  std::uint32_t closes = 0;
  while (timestamp_ns >= end_ns_) {
    ++closes;
    end_ns_ += length_ns_;
  }
  return closes;
}

namespace {

std::uint32_t be32(std::span<const std::uint8_t> d, std::size_t off) {
  return (static_cast<std::uint32_t>(d[off]) << 24) |
         (static_cast<std::uint32_t>(d[off + 1]) << 16) |
         (static_cast<std::uint32_t>(d[off + 2]) << 8) | d[off + 3];
}

}  // namespace

std::vector<ExportEntry> split_export(std::span<const std::uint8_t> data) {
  std::vector<ExportEntry> entries;
  std::size_t offset = 0;
  while (offset < data.size()) {
    const auto rest = data.subspan(offset);
    if (rest.size() < reporting::kHeaderBytes ||
        be32(rest, 0) != reporting::kMagic) {
      throw std::runtime_error("export: no report header at offset " +
                               std::to_string(offset));
    }
    ExportEntry entry;
    entry.offset = offset;
    entry.shards = rest[7];
    entry.interval = be32(rest, 8);
    entry.flows = be32(rest, 12);
    std::size_t size = reporting::kHeaderBytes +
                       entry.flows * reporting::kRecordBytes +
                       entry.shards * reporting::kShardRecordBytes;
    if (size > rest.size()) {
      throw std::runtime_error("export: truncated report at offset " +
                               std::to_string(offset));
    }
    // A v3 metrics trailer (u32 length + JSON) may follow the shard
    // records; the next report, if any, starts with the magic.
    if (size + reporting::kTrailerLengthBytes <= rest.size() &&
        be32(rest, size) != reporting::kMagic) {
      entry.trailer_bytes = be32(rest, size);
      size += reporting::kTrailerLengthBytes + entry.trailer_bytes;
      if (size > rest.size()) {
        throw std::runtime_error("export: truncated trailer at offset " +
                                 std::to_string(offset));
      }
    }
    entry.bytes = size;
    // The library decoder is the authority on whether this is one
    // whole report.
    (void)reporting::decode_full(rest.first(size));
    entries.push_back(entry);
    offset += size;
  }
  return entries;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
