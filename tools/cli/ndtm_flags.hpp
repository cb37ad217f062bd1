// The ndtm subcommands' flag tables — the one place each flag is named,
// typed, defaulted and range-checked. What each flag does is documented
// at the top of tools/ndtm.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cli/flags.hpp"
#include "packet/flow_definition.hpp"
#include "pcap/pcap.hpp"

namespace nd::cli {

/// --flow-def: 5tuple, dstip or netpair:<prefix length 0-32>.
[[nodiscard]] std::optional<packet::FlowDefinition> flow_definition(
    std::string_view name);

/// --connect HOST:PORT.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};
[[nodiscard]] std::optional<Endpoint> parse_endpoint(std::string_view text);

/// Text::Check vetters: what was expected, or "" for a good value.
std::string check_flow_def(std::string_view text);
std::string check_endpoint(std::string_view text);
std::string check_fault_plan(std::string_view text);

/// Flags measure and collect both take, registered in their table;
/// `metrics_path` is where a bare --metrics writes.
struct PipelineFlags {
  Table* table;
  const char* metrics_path;
  Text export_path{{table, "export"}};
  Text fault_plan{{table, "fault-plan"}, "", check_fault_plan};
  Count<std::uint64_t> fault_seed{{table, "fault-seed", &fault_plan}, 1};
  Text metrics{{table, "metrics"}, metrics_path, nullptr, /*bare_ok=*/true};
  Count<std::uint16_t> http_port{{table, "http-port"}, 0};
  Text http_port_file{{table, "http-port-file", &http_port}};
  Text trace{{table, "trace"}};
};

struct SynthesizeFlags : Table {
  Text out{{this, "out"}, "trace.pcap"};
  Choice preset{{this, "preset"}, "cos", {"mag", "mag+", "ind", "cos"}};
  Count<std::uint64_t> seed{{this, "seed"}, 42};
  Count<std::uint32_t> intervals{{this, "intervals"}, 6, 1};
  // trace::scaled works between 1e-4 and 1 of the preset (it clamps
  // anything else).
  Real scale{{this, "scale"}, 0.1, 1e-4, /*min_exclusive=*/false, 1.0};
  Choice arrivals{{this, "arrivals"}, "uniform", {"uniform", "bursty"}};
  // The reader rejects a capture whose snaplen is 0 or past kMaxSnapLen,
  // so synthesize never writes one.
  Count<std::uint32_t> snaplen{{this, "snaplen"}, 96, 1, pcap::kMaxSnapLen};
};

struct MeasureFlags : Table {
  Text in{{this, "in"}};
  Choice algorithm{{this, "algorithm"},
                   "multistage",
                   {"sample-and-hold", "multistage", "netflow"}};
  Text flow_def{{this, "flow-def"}, "5tuple", check_flow_def};
  Count<std::uint64_t> threshold{{this, "threshold"}, 100'000};
  // At least one entry; multistage sizes its uint32 stage rows from it.
  Count<std::uint32_t> entries{{this, "entries"}, 4096, 1};
  // Whole seconds; the session clock counts int64 nanoseconds, so the
  // longest interval is the largest second count that still fits.
  Count<std::uint64_t> interval{
      {this, "interval"}, 5, 1, INT64_MAX / 1'000'000'000};
  Count<std::uint64_t> seed{{this, "seed"}, 1};
  Count<std::uint32_t> shards{{this, "shards"}, 1, 1};
  Count<bool> adaptive{{this, "adaptive"}, false};
  Count<bool> shard_usage{{this, "shard-usage"}, false};
  Count<std::uint32_t> fleet_size{{this, "fleet-size"}, 0};
  Count<std::uint32_t> device_id{{this, "device-id"}, 0};
  Count<std::uint64_t> watchdog_ms{{this, "watchdog-ms"}, 0};
  Text checkpoint{{this, "checkpoint"}};
  Choice resume{{this, "resume", &checkpoint}, "", {""}};
  Choice hugepages{{this, "hugepages"}, "", {"", "explicit"}};
  Count<std::uint64_t> pace_ms{{this, "pace-ms"}, 0};
  Text connect{{this, "connect"}, "", check_endpoint};
  Count<std::uint64_t> net_budget{{this, "net-budget", &connect}, 1ULL << 22};
  Count<std::uint32_t> net_attempts{{this, "net-attempts", &connect}, 4, 1};
  Count<std::uint64_t> net_backoff_us{{this, "net-backoff-us", &connect},
                                      1000};
  Count<bool> net_jitter{{this, "net-jitter", &connect}, true};
  Text spool_dir{{this, "spool-dir", &connect}};
  Count<std::uint64_t> spool_max_bytes{{this, "spool-max-bytes", &spool_dir},
                                       1ULL << 26};
  Count<bool> spool_fsync{{this, "spool-fsync", &spool_dir}, true};
  Count<std::uint32_t> spool_fsync_batch{
      {this, "spool-fsync-batch", &spool_dir}, 1};
  PipelineFlags pipeline{this, "metrics.jsonl"};
  Count<std::uint32_t> trace_sample{{this, "trace-sample", &pipeline.trace},
                                    64};
};

struct CollectFlags : Table {
  Count<std::uint16_t> listen{{this, "listen"}, 0};
  Count<std::uint32_t> devices{{this, "devices"}, 1};
  Count<std::uint64_t> timeout_ms{{this, "timeout-ms"}, 0};
  Text port_file{{this, "port-file"}};
  Text journal{{this, "journal"}};
  Count<bool> journal_fsync{{this, "journal-fsync", &journal}, true};
  Count<std::uint32_t> journal_fsync_batch{
      {this, "journal-fsync-batch", &journal}, 1};
  PipelineFlags pipeline{this, "collect_metrics.jsonl"};
};

struct BoundsFlags : Table {
  Real oversampling{{this, "oversampling"}, 20.0, 0.0, /*min_exclusive=*/true};
  Count<std::uint64_t> threshold{{this, "threshold"}, 1'000'000, 1};
  Count<std::uint64_t> capacity{{this, "capacity"}, 100'000'000, 1};
  Count<std::uint32_t> buckets{{this, "buckets"}, 1000, 1};
  Count<std::uint32_t> depth{{this, "depth"}, 4, 1};
  Real flows{{this, "flows"}, 100'000, 0.0};
};

struct DimensionFlags : Table {
  Count<std::uint64_t> entries{{this, "entries"}, 4096, 1};
  Real flows{{this, "flows"}, 100'000, 0.0};
  Count<std::uint64_t> traffic{{this, "traffic"}, 256'000'000, 1};
  Real oversampling{{this, "oversampling"}, 4.0, 0.0, /*min_exclusive=*/true};
};

}  // namespace nd::cli
