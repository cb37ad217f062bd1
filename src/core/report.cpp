#include "core/device.hpp"

#include <algorithm>

namespace nd::core {

namespace {

/// The one order sort_by_size establishes and is_sorted_by_size checks.
bool larger(const ReportedFlow& a, const ReportedFlow& b) {
  return a.estimated_bytes > b.estimated_bytes;
}

}  // namespace

void sort_by_size(Report& report) {
  std::stable_sort(report.flows.begin(), report.flows.end(), larger);
}

bool is_sorted_by_size(const Report& report) {
  return std::is_sorted(report.flows.begin(), report.flows.end(), larger);
}

const ReportedFlow* find_flow(const Report& report,
                              const packet::FlowKey& key) {
  for (const auto& flow : report.flows) {
    if (flow.key == key) return &flow;
  }
  return nullptr;
}

common::ByteCount effective_threshold(const Report& report) {
  common::ByteCount max = report.threshold;
  for (const ShardStatus& shard : report.shards) {
    max = std::max(max, shard.threshold);
  }
  return max;
}

ShardStatus make_shard_status(const Report& report, std::size_t capacity,
                              std::uint64_t packets,
                              common::ByteCount bytes) {
  ShardStatus status;
  status.threshold = report.threshold;
  status.next_threshold = report.threshold;
  status.entries_used = report.entries_used;
  status.capacity = capacity;
  status.smoothed_usage =
      capacity == 0 ? 0.0
                    : static_cast<double>(report.entries_used) /
                          static_cast<double>(capacity);
  status.packets = packets;
  status.bytes = bytes;
  return status;
}

Report merge_member_reports(common::IntervalIndex interval,
                            std::span<const Report> members) {
  Report merged;
  merged.interval = interval;
  std::size_t flows = 0;
  std::size_t statuses = 0;
  for (const Report& member : members) {
    flows += member.flows.size();
    statuses += member.shards.size();
  }
  merged.flows.reserve(flows);
  merged.shards.reserve(statuses);
  for (const Report& member : members) {
    for (const ShardStatus& status : member.shards) {
      merged.threshold = std::max(merged.threshold, status.threshold);
      merged.entries_used += status.entries_used;
      merged.shards.push_back(status);
    }
    merged.flows.insert(merged.flows.end(), member.flows.begin(),
                        member.flows.end());
  }
  return merged;
}

}  // namespace nd::core
