#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReferenceRun {
  /// Sorted, merged reports in interval order (empty intervals kept).
  std::vector<nd::core::Report> reports;
  std::uint64_t pcap_records{0};
  /// Records that parsed as IPv4 — what `ndtm measure` prints as done.
  std::uint64_t packets{0};
};

/// Single-threaded batch-path run of `config` over a pcap: one device
/// when config.shards is 1, else config.shards fleet slices merged
/// per interval.
ReferenceRun reference_reports(const MeasureConfig& config,
                               const std::string& pcap_path);

enum class ExportStyle { kMeasure, kCollect };

/// The export file `ndtm measure --export` (every interval) or
/// `ndtm collect --export` (intervals with flows) writes for `reports`,
/// repeated `rounds` times with intervals renumbered by round.
std::vector<std::uint8_t> encode_export(
    const std::vector<nd::core::Report>& reports, ExportStyle style,
    std::uint32_t rounds, nd::packet::FlowKeyKind kind);

}  // namespace perfbench
