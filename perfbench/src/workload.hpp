// Shared pieces of the benchmark tool: the measurement configuration a
// workload runs, the device factory that mirrors `ndtm measure`, the
// interval clock that mirrors core::MeasurementSession, and the export
// splitter.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/device.hpp"
#include "packet/flow_definition.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

/// Heap allocations made by the calling thread so far (a counting
/// global operator new, defined in main.cpp).
std::uint64_t allocations();

/// A plain decimal number; anything else (signs, exponents, trailing
/// text) throws std::invalid_argument naming `what`.
std::uint64_t parse_decimal(const std::string& text, const std::string& what);

/// `--key value` flags. Numeric values must be plain decimal: anything
/// else is a usage error, never a silent reinterpretation.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  [[nodiscard]] std::string text(const std::string& key) const;
  [[nodiscard]] std::string text(const std::string& key,
                                 const std::string& fallback) const;
  [[nodiscard]] std::uint64_t number(const std::string& key) const;
  [[nodiscard]] std::uint64_t number(const std::string& key,
                                     std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One `ndtm measure` configuration, with ndtm's defaults for the flags
/// the benchmark does not pass (seed 1, 5-tuple flows).
struct MeasureConfig {
  std::string algorithm;
  std::size_t entries{0};
  std::uint64_t threshold{0};
  std::uint64_t interval_s{0};
  /// ShardedDevice replicas (layer run) or fleet members (reference).
  std::uint32_t shards{1};
  std::uint64_t seed{1};

  static MeasureConfig from(const Flags& flags);
  [[nodiscard]] nd::packet::FlowDefinition definition() const {
    return nd::packet::FlowDefinition::five_tuple();
  }
};

/// The device `ndtm measure --algorithm A --entries E --threshold T`
/// builds (same algorithm parameters, same seed handling).
std::unique_ptr<nd::core::MeasurementDevice> make_device(
    const MeasureConfig& config, std::size_t entries, std::uint64_t seed,
    nd::telemetry::MetricsRegistry* metrics = nullptr,
    nd::telemetry::Labels labels = {});

/// The sharded device `ndtm measure --shards N` builds, on `pool`.
std::unique_ptr<nd::core::MeasurementDevice> make_sharded_device(
    const MeasureConfig& config, nd::common::ThreadPool& pool);

/// Interval boundaries exactly as MeasurementSession draws them:
/// anchored at multiples of the duration, closing every boundary a
/// packet's timestamp has crossed (idle gaps close empty intervals).
class IntervalClock {
 public:
  explicit IntervalClock(std::uint64_t interval_s)
      : length_ns_(interval_s * 1'000'000'000ULL) {}
  /// Intervals to close before a packet stamped `timestamp_ns`.
  std::uint32_t advance(std::uint64_t timestamp_ns);
  [[nodiscard]] bool started() const { return started_; }

 private:
  std::uint64_t length_ns_;
  std::uint64_t end_ns_{0};
  bool started_{false};
};

/// One encoded report inside an export file (reports concatenated with
/// no framing, as `ndtm measure --export` and `ndtm collect --export`
/// write them).
struct ExportEntry {
  std::size_t offset{0};
  std::size_t bytes{0};
  std::uint32_t interval{0};
  std::size_t flows{0};
  std::size_t shards{0};
  std::size_t trailer_bytes{0};
};

/// Split an export into its reports; throws std::runtime_error when the
/// bytes do not parse as whole reports.
std::vector<ExportEntry> split_export(std::span<const std::uint8_t> data);

std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::uint8_t> data);

}  // namespace perfbench
