// `perfbench_tool layers`: the traced layer run. It walks a workload's
// pcap through each module's public functions in turn — the reader, the
// frame parser, the flow definition, the session ndtm drives today, the
// device batch path, the sharded device, the telemetry registry, the
// report codec and a TCP transport into an in-process collector — and
// times every call from outside with spans recorded in a
// telemetry::TraceRecorder (parent links, one id per interval).
//
// Passes alternate untraced and traced until the time budget is spent;
// layer figures are medians over the traced passes, and the ratio of
// traced to untraced pass wall time is the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "commands.hpp"
#include "common/thread_pool.hpp"
#include "core/measurement_session.hpp"
#include "eval/metrics.hpp"
#include "net/collector.hpp"
#include "net/transport.hpp"
#include "pcap/pcap.hpp"
#include "reference.hpp"
#include "reporting/record_codec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace nd;

namespace {

constexpr std::size_t kChunk = 4096;
constexpr std::size_t kTraceCapacity = 1 << 18;

/// Span bookkeeping around the calls the layer run makes. With no recorder
/// attached begin()/end() do nothing, which is the untraced pass.
class Spans {
 public:
  explicit Spans(telemetry::TraceRecorder* recorder) : recorder_(recorder) {}

  void begin(const char* name, std::int64_t interval) {
    if (recorder_ == nullptr) return;
    open_.push_back(Open{name, recorder_->now_ns(), 0, next_id_++,
                         open_.empty() ? -1 : open_.back().id, interval});
  }

  /// Closes the innermost span; returns its duration (0 untraced).
  std::uint64_t end() {
    if (recorder_ == nullptr) return 0;
    const Open span = open_.back();
    open_.pop_back();
    const std::uint64_t duration = recorder_->now_ns() - span.start_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
    Totals& totals = totals_[span.name];
    totals.total_ns += duration;
    totals.self_ns += duration - std::min(duration, span.child_ns);
    // Parent link: the parent's id is its index in begin order.
    recorder_->complete(span.name, "perfbench", span.start_ns, duration,
                        telemetry::TraceArgs{-1, -1, span.interval,
                                             span.parent},
                        "parent");
    return duration;
  }

  struct Totals {
    std::uint64_t total_ns{0};
    std::uint64_t self_ns{0};
  };
  [[nodiscard]] const std::map<std::string, Totals>& totals() const {
    return totals_;
  }
  [[nodiscard]] double total_ns(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0
                               : static_cast<double>(it->second.total_ns);
  }

 private:
  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t id;
    std::int64_t parent;
    std::int64_t interval;
  };
  telemetry::TraceRecorder* recorder_;
  std::vector<Open> open_;
  std::int64_t next_id_{0};
  std::map<std::string, Totals> totals_;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[rank];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

struct PassResult {
  double wall_s{0.0};
  /// Layer figures (traced passes only) and exact counts (every pass).
  std::map<std::string, double> metrics;
  std::map<std::string, double> exact;
  /// The batch path's reports as `ndtm measure --export` writes them,
  /// and the in-process collector's merge as `ndtm collect --export`
  /// writes it.
  std::vector<std::uint8_t> batch_export;
  std::vector<std::uint8_t> merged_export;
  bool consistent{true};
};

struct LayerOptions {
  MeasureConfig config;
  std::string pcap;
  /// Ship the sharded device's reports with a registry snapshot
  /// trailer (mag_pipeline's shape) instead of the plain device's
  /// reports with none (mag_measure's shape).
  bool ship_sharded{false};
};

PassResult run_pass(const LayerOptions& options,
                    telemetry::TraceRecorder* recorder) {
  const MeasureConfig& config = options.config;
  const auto pass_start = std::chrono::steady_clock::now();
  Spans spans(recorder);
  PassResult result;

  const packet::FlowDefinition definition = config.definition();
  core::MeasurementSession session(
      make_device(config, config.entries, config.seed), definition,
      std::chrono::seconds(static_cast<long>(config.interval_s)));
  auto plain = make_device(config, config.entries, config.seed);
  common::ThreadPool pool(std::min<std::size_t>(
      config.shards - 1, common::ThreadPool::default_thread_count()));
  auto sharded = make_sharded_device(config, pool);
  telemetry::MetricsRegistry registry;
  auto instrumented = make_device(config, config.entries, config.seed,
                                  &registry);

  std::ifstream stream(options.pcap, std::ios::binary);
  if (!stream) throw std::runtime_error("cannot open " + options.pcap);
  pcap::PcapReader reader(stream);
  IntervalClock clock(config.interval_s);

  std::vector<pcap::PcapPacket> raw;
  std::vector<packet::PacketRecord> records;
  std::vector<packet::ClassifiedPacket> classified;
  raw.reserve(kChunk);
  records.reserve(kChunk);
  classified.reserve(kChunk);
  std::optional<pcap::PcapPacket> pending;
  bool eof = false;

  std::uint64_t packets = 0;
  std::uint64_t ingest_allocs = 0;
  std::vector<core::Report> session_reports;
  std::vector<core::Report> plain_reports;
  std::vector<core::Report> shipped_reports;
  std::vector<std::string> shipped_lines;
  double occupancy_sum = 0.0;
  double imbalance_sum = 0.0;
  std::size_t imbalance_intervals = 0;
  std::int64_t interval_id = 0;

  auto close_interval = [&] {
    spans.begin("interval.close", interval_id);
    core::Report report = plain->end_interval();
    spans.end();
    spans.begin("shard.merge", interval_id);
    core::Report merged = sharded->end_interval();
    spans.end();
    (void)instrumented->end_interval();
    spans.begin("telemetry.snapshot", interval_id);
    std::string line = telemetry::to_json_line(
        registry.snapshot(static_cast<std::uint64_t>(interval_id)));
    spans.end();

    occupancy_sum += static_cast<double>(report.entries_used) /
                     static_cast<double>(plain->flow_memory_capacity());
    const eval::ShardUsageSummary balance = eval::summarize_shards(merged);
    if (balance.total_packets > 0) {
      imbalance_sum += balance.packet_imbalance;
      ++imbalance_intervals;
    }
    core::sort_by_size(report);
    core::sort_by_size(merged);
    if (options.ship_sharded) {
      shipped_reports.push_back(merged);
      shipped_lines.push_back(std::move(line));
    } else {
      // What measure ships for an unsharded device: one synthesized
      // member status so thresholds and occupancy survive the merge.
      core::Report shipped = report;
      shipped.shards.assign(
          1, core::make_shard_status(shipped,
                                     plain->flow_memory_capacity(), 0, 0));
      shipped_reports.push_back(std::move(shipped));
      shipped_lines.emplace_back();
    }
    plain_reports.push_back(std::move(report));
    ++interval_id;
  };

  // The pcap is walked in chunks of up to kChunk frames; a chunk ends
  // early at an interval boundary, and every layer sees the chunk before
  // the next one is read, so frame buffers recycle as they do in ndtm.
  bool interval_open = false;
  while (!eof) {
    if (!interval_open) {
      spans.begin("interval", interval_id);
      interval_open = true;
    }
    raw.clear();
    if (pending) raw.push_back(std::move(*pending));
    pending.reset();
    // Intervals to close after this chunk: more than one when an idle
    // gap spans whole intervals.
    std::uint32_t closes = 0;
    spans.begin("pcap.next", interval_id);
    while (raw.size() < kChunk) {
      const std::uint64_t before = allocations();
      std::optional<pcap::PcapPacket> frame = reader.next();
      ingest_allocs += allocations() - before;
      if (!frame) {
        eof = true;
        closes = clock.started() ? 1 : 0;
        break;
      }
      closes = clock.advance(frame->timestamp_ns);
      if (closes > 0) {
        pending = std::move(frame);
        break;
      }
      raw.push_back(std::move(*frame));
    }
    spans.end();
    const std::size_t count = raw.size();
    packets += count;
    records.resize(count);
    classified.clear();

    spans.begin("packet.parse", interval_id);
    std::uint64_t before = allocations();
    for (std::size_t i = 0; i < count; ++i) {
      const auto record = packet::parse_frame(raw[i].data, raw[i].timestamp_ns);
      if (!record) throw std::runtime_error("layers: non-IPv4 frame");
      records[i] = *record;
    }
    ingest_allocs += allocations() - before;
    spans.end();
    spans.begin("packet.classify", interval_id);
    before = allocations();
    for (std::size_t i = 0; i < count; ++i) {
      if (const auto key = definition.classify(records[i])) {
        classified.push_back(
            packet::ClassifiedPacket::from(*key, records[i].size_bytes));
      }
    }
    ingest_allocs += allocations() - before;
    spans.end();
    spans.begin("session.observe", interval_id);
    before = allocations();
    for (std::size_t i = 0; i < count; ++i) session.observe(records[i]);
    ingest_allocs += allocations() - before;
    spans.end();
    for (core::Report& report : session.drain_reports()) {
      core::sort_by_size(report);
      session_reports.push_back(std::move(report));
    }

    spans.begin("observe_batch", interval_id);
    plain->observe_batch(classified);
    spans.end();
    spans.begin("sharded.observe_batch", interval_id);
    sharded->observe_batch(classified);
    spans.end();
    spans.begin("telemetry.observe_batch", interval_id);
    instrumented->observe_batch(classified);
    spans.end();

    for (std::uint32_t n = 0; n < closes; ++n) close_interval();
    if (closes > 0) {
      spans.end();
      interval_open = false;
    }
  }
  for (core::Report& report : session.finish()) {
    core::sort_by_size(report);
    session_reports.push_back(std::move(report));
  }

  // Encode and ship every report as one closed-loop burst into an
  // in-process collector over loopback TCP.
  net::CollectorConfig collector_config;
  collector_config.expected_devices = 1;
  collector_config.timeout = std::chrono::milliseconds(120'000);
  net::Collector collector(collector_config);
  collector.start();
  net::TcpTransportConfig transport_config;
  transport_config.port = collector.port();
  net::TcpTransport transport(transport_config);

  spans.begin("collection", -1);
  const auto kind = definition.kind();
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> scratch;
  std::uint64_t encode_allocs = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t records_encoded = 0;
  double encode_ns = 0.0;
  for (std::size_t i = 0; i < shipped_reports.size(); ++i) {
    const core::Report& report = shipped_reports[i];
    // One reused scratch buffer, as the channel encodes.
    spans.begin("reporting.encode", static_cast<std::int64_t>(report.interval));
    const std::uint64_t before = allocations();
    reporting::encode_framed_into(scratch, report, kind, shipped_lines[i]);
    encode_allocs += allocations() - before;
    encode_ns += static_cast<double>(spans.end());
    frame_bytes += scratch.size();
    records_encoded += report.flows.size();
    frames.push_back(scratch);
  }
  std::vector<double> send_us;
  const auto burst_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::span<const std::uint8_t> bytes(frames[i]);
    spans.begin("channel.send",
                static_cast<std::int64_t>(shipped_reports[i].interval));
    const auto send_start = std::chrono::steady_clock::now();
    if (!transport.send_frame_parts(
            bytes.first(reporting::kFrameHeaderBytes),
            bytes.subspan(reporting::kFrameHeaderBytes))) {
      throw std::runtime_error("layers: send to the collector failed");
    }
    send_us.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - send_start)
                          .count());
    spans.end();
  }
  while (collector.stats().reports_ingested < shipped_reports.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const double ingest_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - burst_start)
                              .count();
  if (!transport.send_bye(static_cast<std::uint32_t>(shipped_reports.size())) ||
      !collector.wait()) {
    throw std::runtime_error("layers: collector did not complete");
  }
  spans.begin("fleet.merge", -1);
  std::vector<core::Report> merged = collector.merged_reports();
  const double merge_ns = static_cast<double>(spans.end());
  spans.end();
  for (core::Report& report : merged) core::sort_by_size(report);
  result.merged_export = encode_export(merged, ExportStyle::kCollect, 1, kind);
  result.batch_export =
      encode_export(plain_reports, ExportStyle::kMeasure, 1, kind);
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - pass_start)
                      .count();

  // The session path ndtm runs and the batch path must agree exactly.
  result.consistent =
      encode_export(session_reports, ExportStyle::kMeasure, 1, kind) ==
      result.batch_export;

  const double intervals = static_cast<double>(plain_reports.size());
  const double pkts = static_cast<double>(packets);
  const double reports = static_cast<double>(shipped_reports.size());
  result.exact["core.mem_accesses_per_pkt"] =
      static_cast<double>(plain->memory_accesses()) /
      static_cast<double>(plain->packets_processed());
  result.exact["common.allocs_per_pkt"] =
      static_cast<double>(ingest_allocs) / pkts;
  result.exact["reporting.allocs_per_report"] =
      static_cast<double>(encode_allocs) / reports;
  result.exact["reporting.bytes_per_interval"] =
      static_cast<double>(frame_bytes) / reports;
  result.exact["flowmem.occupancy"] = occupancy_sum / intervals;
  result.exact["core.shard_imbalance"] =
      imbalance_intervals == 0
          ? 0.0
          : imbalance_sum / static_cast<double>(imbalance_intervals);
  if (recorder == nullptr) return result;

  auto per_pkt = [&](const char* span) { return spans.total_ns(span) / pkts; };
  result.metrics["pcap.next_ns_per_pkt"] = per_pkt("pcap.next");
  result.metrics["packet.parse_ns_per_pkt"] = per_pkt("packet.parse");
  result.metrics["packet.classify_ns_per_pkt"] = per_pkt("packet.classify");
  result.metrics["core.session_observe_ns_per_pkt"] =
      per_pkt("session.observe");
  result.metrics["core.observe_batch_ns_per_pkt"] = per_pkt("observe_batch");
  result.metrics["core.end_interval_ms"] =
      spans.total_ns("interval.close") / intervals / 1e6;
  result.metrics["core.sharded_observe_ns_per_pkt"] =
      per_pkt("sharded.observe_batch");
  result.metrics["telemetry.observe_overhead_ratio"] =
      spans.total_ns("telemetry.observe_batch") /
      spans.total_ns("observe_batch");
  result.metrics["telemetry.snapshot_us"] =
      spans.total_ns("telemetry.snapshot") / intervals / 1e3;
  result.metrics["reporting.encode_ns_per_record"] =
      encode_ns / static_cast<double>(std::max<std::uint64_t>(
                      records_encoded, 1));
  result.metrics["net.send_us_p50"] = percentile(send_us, 0.5);
  result.metrics["net.send_us_p99"] = percentile(send_us, 0.99);
  result.metrics["net.collector_ingest_mb_per_s"] =
      static_cast<double>(frame_bytes) / 1e6 / ingest_s;
  result.metrics["net.fleet_merge_ms"] = merge_ns / 1e6;
  for (const auto& [name, totals] : spans.totals()) {
    result.metrics["span." + name + ".self_ms"] =
        static_cast<double>(totals.self_ns) / 1e6;
  }
  return result;
}

}  // namespace

int cmd_layers(const Flags& flags) {
  LayerOptions options;
  options.config = MeasureConfig::from(flags);
  options.pcap = flags.text("in");
  const std::string shipped = flags.text("shipped");
  if (shipped != "plain" && shipped != "sharded") {
    throw std::invalid_argument("--shipped is plain or sharded");
  }
  options.ship_sharded = shipped == "sharded";
  const auto budget = std::chrono::seconds(flags.number("seconds"));
  const std::string trace_out = flags.text("trace-out");
  const std::string batch_out = flags.text("batch-export");
  const std::string merged_out = flags.text("merged-export");
  if (options.config.shards < 2) {
    throw std::invalid_argument("layers: --shards must be at least 2");
  }

  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> exact;
  bool consistent = true;
  bool repeatable = true;
  std::vector<std::uint8_t> batch_export;
  std::vector<std::uint8_t> merged_export;
  std::unique_ptr<telemetry::TraceRecorder> last_trace;
  auto record_pass = [&](PassResult pass) {
    if (exact.empty()) {
      exact = std::move(pass.exact);
      batch_export = std::move(pass.batch_export);
      merged_export = std::move(pass.merged_export);
    } else {
      for (const auto& [name, value] : pass.exact) {
        if (exact[name] != value) {
          std::fprintf(stderr, "layers: %s changed between passes: %.9g vs %.9g\n",
                       name.c_str(), exact[name], value);
          repeatable = false;
        }
      }
      repeatable = repeatable && batch_export == pass.batch_export &&
                   merged_export == pass.merged_export;
    }
    consistent = consistent && pass.consistent;
    for (const auto& [name, value] : pass.metrics) {
      samples[name].push_back(value);
    }
    return pass.wall_s;
  };
  // A warm-up pass settles the allocator and caches; it is held to the
  // same exact counts but not timed. Then untraced and traced passes
  // run in pairs, alternating which goes first so drift hits both.
  (void)record_pass(run_pass(options, nullptr));
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pair = 0;
       pair == 0 || std::chrono::steady_clock::now() - start < budget; ++pair) {
    for (const bool traced : {pair % 2 == 1, pair % 2 == 0}) {
      auto recorder =
          traced ? std::make_unique<telemetry::TraceRecorder>(kTraceCapacity)
                 : nullptr;
      const double wall = record_pass(run_pass(options, recorder.get()));
      (traced ? traced_wall : untraced_wall).push_back(wall);
      if (traced) last_trace = std::move(recorder);
    }
  }

  write_file(batch_out, batch_export);
  write_file(merged_out, merged_export);
  {
    std::ofstream trace_stream(trace_out, std::ios::binary | std::ios::trunc);
    trace_stream << telemetry::to_chrome_trace(last_trace->events(), 0);
    if (!trace_stream.good()) {
      throw std::runtime_error("cannot write " + trace_out);
    }
  }

  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced_wall.size(); ++i) {
    overhead.push_back(traced_wall[i] / untraced_wall[i]);
  }
  std::printf("{\"passes\": %zu, \"consistent\": %s, \"repeatable\": %s, "
              "\"trace_dropped\": %llu, \"metrics\": {",
              traced_wall.size() + untraced_wall.size(),
              consistent ? "true" : "false", repeatable ? "true" : "false",
              static_cast<unsigned long long>(last_trace->dropped()));
  std::printf("\"trace.overhead_ratio\": %.6f", median(overhead));
  for (const auto& [name, values] : samples) {
    std::printf(", \"%s\": %.6f", name.c_str(), median(values));
  }
  for (const auto& [name, value] : exact) {
    std::printf(", \"%s\": %.9g", name.c_str(), value);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace perfbench
