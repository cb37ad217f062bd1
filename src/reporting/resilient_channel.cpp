#include "reporting/resilient_channel.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace nd::reporting {

ResilientChannel::ResilientChannel(const ResilientChannelConfig& config)
    : config_(config),
      channel_(config.bytes_per_interval),
      jitter_rng_(config.jitter_seed),
      prev_delay_(config.backoff_base) {
  config_.max_attempts = std::max<std::uint32_t>(config_.max_attempts, 1);
  channel_.attach_fault_injector(config_.faults);
  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& registry = *config_.metrics;
    const telemetry::Labels& labels = config_.metric_labels;
    tm_retries_ = &registry.counter("nd_channel_retries_total", labels);
    tm_drops_ = &registry.counter("nd_channel_drops_total", labels);
    tm_corruptions_ =
        &registry.counter("nd_channel_corruptions_total", labels);
    tm_reorders_ = &registry.counter("nd_channel_reorders_total", labels);
    tm_abandoned_ = &registry.counter("nd_channel_abandoned_total", labels);
    tm_transport_failures_ =
        &registry.counter("nd_channel_transport_failures_total", labels);
    tm_spooled_ = &registry.counter("nd_channel_spooled_total", labels);
  }
}

void ResilientChannel::backoff(std::uint32_t retry_index) {
  std::chrono::microseconds delay;
  if (config_.jitter) {
    // Decorrelated jitter: uniform in [base, min(cap, 3 * previous)].
    // The previous delay carries across sends, so a long outage keeps
    // spreading a fleet out instead of re-synchronizing per report.
    const std::int64_t base = config_.backoff_base.count();
    const std::int64_t upper = std::min<std::int64_t>(
        config_.backoff_cap.count(), prev_delay_.count() * 3);
    const std::uint64_t span =
        upper > base ? static_cast<std::uint64_t>(upper - base) + 1 : 1;
    delay = std::chrono::microseconds(
        base + static_cast<std::int64_t>(jitter_rng_.uniform(span)));
    prev_delay_ = delay;
  } else {
    delay = config_.backoff_base * (1ULL << retry_index);
  }
  stats_.backoff_us += static_cast<std::uint64_t>(delay.count());
  ++stats_.retries;
  if (tm_retries_ != nullptr) tm_retries_->increment();
  if (config_.trace != nullptr) {
    config_.trace->instant(
        "channel.backoff", "channel",
        telemetry::TraceArgs{config_.trace_device, -1, -1,
                             static_cast<std::int64_t>(delay.count())},
        "delay_us");
  }
  if (config_.sleep_on_backoff) {
    common::Clock& clock = config_.clock != nullptr
                               ? *config_.clock
                               : common::SystemClock::instance();
    clock.sleep_for(delay);
  }
}

DeliveryOutcome ResilientChannel::send(const core::Report& report,
                                       std::string_view metrics_json) {
  ++stats_.reports_sent;
  telemetry::ScopedTraceSpan span(
      config_.trace, "channel.send", "channel",
      telemetry::TraceArgs{config_.trace_device, -1,
                           static_cast<std::int64_t>(report.interval)},
      "attempts");
  // Largest-first shedding: the channel truncates to a prefix, so
  // sorting by descending size guarantees whatever survives the budget
  // is exactly the top-K heavy hitters. A report already in that order
  // (ndtm sorts before it prints) is sent as is: the stable sort of a
  // copy would reproduce it byte for byte.
  std::optional<core::Report> sorted;
  if (!core::is_sorted_by_size(report)) {
    sorted.emplace(report);
    core::sort_by_size(*sorted);
  }
  const core::Report& ordered = sorted ? *sorted : report;
  const packet::FlowKeyKind kind = ordered.flows.empty()
                                       ? packet::FlowKeyKind::kFiveTuple
                                       : ordered.flows.front().key.kind();

  if (config_.spool != nullptr && config_.transport != nullptr) {
    return send_spooled(ordered, kind, metrics_json);
  }

  DeliveryOutcome outcome;
  for (std::uint32_t attempt = 0; attempt < config_.max_attempts;
       ++attempt) {
    ++stats_.attempts;
    outcome.attempts = attempt + 1;
    span.mutable_args().value = outcome.attempts;

    const std::uint64_t dropped_before = channel_.stats().reports_dropped;
    const CollectionChannel::Delivered delivered =
        channel_.deliver(ordered, metrics_json);
    if (channel_.stats().reports_dropped != dropped_before) {
      // Whole report lost in transit; back off and resend.
      ++stats_.drops;
      if (tm_drops_ != nullptr) tm_drops_->increment();
      backoff(attempt);
      continue;
    }

    const std::string_view trailer =
        delivered.metrics_delivered ? metrics_json : std::string_view{};
    std::optional<robustness::FaultDecision> corrupt;
    if (config_.faults != nullptr) {
      corrupt = config_.faults->next("channel.corrupt");
    }
    if (config_.transport != nullptr) {
      // Real wire: the frame leaves this host and CRC verification
      // happens at the remote collector (which resyncs past a corrupted
      // frame instead of crashing). The only failure visible here is
      // the transport refusing the frame — retried like a drop.
      //
      // Fast path: encode the payload once into scratch and hand the
      // 12-byte header + payload to the transport as two spans — the
      // scatter-gather write means the payload is never copied behind
      // the header. The corrupt fault takes the assembling slow path,
      // since it must flip bits in a contiguous mutable frame.
      bool sent;
      if (corrupt) {
        encode_framed_into(scratch_frame_, delivered.report, kind, trailer);
        robustness::corrupt_bytes(scratch_frame_, corrupt->salt);
        sent = config_.transport->send_frame(scratch_frame_);
      } else {
        encode_into(scratch_payload_, delivered.report, kind, trailer);
        const auto header = frame_header(scratch_payload_);
        sent = config_.transport->send_frame_parts(header, scratch_payload_);
      }
      if (!sent) {
        ++stats_.transport_failures;
        if (tm_transport_failures_ != nullptr) {
          tm_transport_failures_->increment();
        }
        backoff(attempt);
        continue;
      }
      outcome.delivered = true;
      outcome.records_delivered = delivered.report.flows.size();
      outcome.records_shed =
          ordered.flows.size() - delivered.report.flows.size();
      outcome.metrics_delivered = delivered.metrics_delivered;
      stats_.records_shed += outcome.records_shed;
      return outcome;
    }
    encode_framed_into(scratch_frame_, delivered.report, kind, trailer);
    if (corrupt) {
      robustness::corrupt_bytes(scratch_frame_, corrupt->salt);
    }
    core::Report arrived;
    try {
      arrived = decode_framed(scratch_frame_).report;
    } catch (const CodecError&) {
      // The CRC caught the corruption; the collector re-requests the
      // interval instead of ingesting garbage.
      ++stats_.corruptions_detected;
      if (tm_corruptions_ != nullptr) tm_corruptions_->increment();
      backoff(attempt);
      continue;
    }

    outcome.delivered = true;
    outcome.records_delivered = arrived.flows.size();
    outcome.records_shed = ordered.flows.size() - arrived.flows.size();
    outcome.metrics_delivered = delivered.metrics_delivered;
    stats_.records_shed += outcome.records_shed;

    bool reorder = false;
    if (config_.faults != nullptr) {
      reorder = config_.faults->next("channel.reorder").has_value();
    }
    if (reorder) {
      // Delay this frame: it surfaces after the next arrival (flush()
      // covers end of stream). A frame already in limbo is pushed out
      // first — the channel holds at most one frame back.
      ++stats_.reorders;
      if (tm_reorders_ != nullptr) tm_reorders_->increment();
      flush();
      limbo_ = std::move(arrived);
    } else {
      received_.push_back(std::move(arrived));
      flush();
    }
    return outcome;
  }
  ++stats_.reports_abandoned;
  if (tm_abandoned_ != nullptr) tm_abandoned_->increment();
  return outcome;
}

DeliveryOutcome ResilientChannel::send_spooled(
    const core::Report& ordered, packet::FlowKeyKind kind,
    std::string_view metrics_json) {
  // Shape to the channel budget with deliver()'s exact accounting (no
  // transit fault burned — the wire copy sees those per drain attempt),
  // then persist before the first send attempt: from here on the report
  // survives anything short of losing the spool directory.
  const CollectionChannel::Shaped shaped =
      channel_.shape(ordered, metrics_json);
  const SpoolWal::AppendResult appended = config_.spool->append(
      shaped.report, kind,
      shaped.metrics_fit ? metrics_json : std::string_view{});
  ++stats_.reports_spooled;
  if (tm_spooled_ != nullptr) tm_spooled_->increment();

  DeliveryOutcome outcome;
  outcome.spooled = appended.index != SpoolWal::npos;
  outcome.records_shed = ordered.flows.size() - shaped.report.flows.size() +
                         appended.records_shed;
  stats_.records_shed += outcome.records_shed;

  const std::uint64_t attempts_before = stats_.attempts;
  outcome.delivered = drain_spool();
  outcome.attempts =
      static_cast<std::uint32_t>(stats_.attempts - attempts_before);
  outcome.backlog = config_.spool->backlog();
  if (outcome.delivered) {
    outcome.records_delivered =
        shaped.report.flows.size() - appended.records_shed;
    outcome.metrics_delivered = shaped.metrics_fit;
  }
  return outcome;
}

bool ResilientChannel::drain_spool() {
  SpoolWal* spool = config_.spool;
  if (spool == nullptr) return true;
  if (config_.transport == nullptr) return spool->backlog() == 0;
  std::uint32_t failures = 0;
  while (spool->backlog() > 0) {
    // Re-read the watermark every pass: a transport failure below
    // rewinds it to zero and the replay restarts from the oldest frame.
    const std::span<const std::uint8_t> stored =
        spool->frame(spool->watermark());
    ++stats_.attempts;

    if (config_.faults != nullptr && config_.faults->next("channel.drop")) {
      // The wire copy is lost in transit; the stored frame is untouched
      // and simply retried.
      ++stats_.drops;
      if (tm_drops_ != nullptr) tm_drops_->increment();
      if (++failures >= config_.max_attempts) return false;
      backoff(failures - 1);
      continue;
    }

    std::span<const std::uint8_t> to_send = stored;
    std::vector<std::uint8_t> corrupted;
    if (config_.faults != nullptr) {
      if (const auto fault = config_.faults->next("channel.corrupt")) {
        // Corrupt the wire copy only: the remote CRC rejects it, and
        // the intact spooled frame is what any later replay resends.
        corrupted.assign(stored.begin(), stored.end());
        robustness::corrupt_bytes(corrupted, fault->salt);
        to_send = corrupted;
      }
    }

    if (!config_.transport->send_frame(to_send)) {
      ++stats_.transport_failures;
      if (tm_transport_failures_ != nullptr) {
        tm_transport_failures_->increment();
      }
      // The connection died: frames sent on it may never have reached
      // the collector's journal, so mark the whole log pending again.
      spool->rewind();
      if (++failures >= config_.max_attempts) return false;
      backoff(failures - 1);
      continue;
    }

    spool->ack();
    failures = 0;
  }
  return true;
}

void ResilientChannel::flush() {
  if (limbo_) {
    received_.push_back(std::move(*limbo_));
    limbo_.reset();
  }
}

std::vector<core::Report> ResilientChannel::drain_ordered() {
  flush();
  std::vector<core::Report> out;
  out.swap(received_);
  std::stable_sort(out.begin(), out.end(),
                   [](const core::Report& a, const core::Report& b) {
                     return a.interval < b.interval;
                   });
  return out;
}

}  // namespace nd::reporting
