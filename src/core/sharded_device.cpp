#include "core/sharded_device.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "hash/hash.hpp"

namespace nd::core {

std::uint64_t shard_seed(std::uint64_t base_seed, std::uint32_t shard) {
  return hash::splitmix64(base_seed ^
                          (0xA24BAED4963EE407ULL * (shard + 1ULL)));
}

namespace {

/// The first failure among shard tasks joined in shard order (call
/// capture() from a catch block); later failures are dropped.
class FirstShardError {
 public:
  void capture(std::size_t shard) {
    if (error_) return;
    error_ = std::current_exception();
    shard_ = static_cast<std::uint32_t>(shard);
  }
  /// Resurface the captured failure as ShardError (a ShardError from a
  /// nested device passes through unchanged); no-op when none.
  void rethrow() const {
    if (!error_) return;
    try {
      std::rethrow_exception(error_);
    } catch (const ShardError&) {
      throw;
    } catch (const std::exception& e) {
      throw ShardError(shard_, e.what());
    }
  }

 private:
  std::exception_ptr error_;
  std::uint32_t shard_{0};
};

}  // namespace

ShardedDevice::ShardedDevice(const ShardedDeviceConfig& config,
                             const Factory& factory)
    : seed_(config.seed),
      pool_(config.pool),
      watchdog_timeout_(config.watchdog_timeout),
      faults_(config.faults),
      trace_(config.trace),
      trace_batch_sample_(config.trace_batch_sample) {
  const std::uint32_t shards = std::max<std::uint32_t>(config.shards, 1);
  shards_.resize(shards);
  shard_batches_.resize(shards);
  interval_packets_.assign(shards, 0);
  interval_bytes_.assign(shards, 0);
  stuck_.resize(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shards_[s] = factory(s, shard_seed(config.seed, s));
  }
  baseline_thresholds_.reserve(shards);
  shard_capacity_.reserve(shards);
  last_thresholds_.reserve(shards);
  for (const auto& replica : shards_) {
    baseline_thresholds_.push_back(replica->threshold());
    shard_capacity_.push_back(replica->flow_memory_capacity());
    last_thresholds_.push_back(replica->threshold());
  }
  if (config.adaptor) {
    enable_adaptation(*config.adaptor);
  }
  if (config.metrics != nullptr) {
    metrics_ = config.metrics;
    telemetry::MetricsRegistry& registry = *config.metrics;
    const telemetry::Labels& base = config.metric_labels;
    tm_intervals_ = &registry.counter("nd_sharded_intervals_total", base);
    tm_threshold_raises_ =
        &registry.counter("nd_shard_threshold_raises_total", base);
    tm_threshold_lowers_ =
        &registry.counter("nd_shard_threshold_lowers_total", base);
    tm_effective_threshold_ =
        &registry.gauge("nd_sharded_effective_threshold", base);
    tm_merge_ns_ = &registry.histogram("nd_shard_merge_ns", base);
    tm_degraded_ = &registry.counter("nd_shard_degraded_total", base);
    tm_shard_packets_.reserve(shards);
    tm_shard_bytes_.reserve(shards);
    tm_shard_threshold_.reserve(shards);
    tm_shard_occupancy_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      telemetry::Labels labels = base;
      labels.emplace_back("shard", std::to_string(s));
      tm_shard_packets_.push_back(
          &registry.counter("nd_shard_packets_total", labels));
      tm_shard_bytes_.push_back(
          &registry.counter("nd_shard_bytes_total", labels));
      tm_shard_threshold_.push_back(
          &registry.gauge("nd_shard_threshold", labels));
      tm_shard_occupancy_.push_back(
          &registry.gauge("nd_shard_occupancy", labels));
    }
  }
}

ShardedDevice::~ShardedDevice() { drain_stuck(); }

void ShardedDevice::drain_stuck_slow() {
  for (std::future<void>& future : stuck_) {
    if (!future.valid()) continue;
    try {
      future.get();
    } catch (...) {
      // The shard's report was already discarded as degraded; whatever
      // the stale close threw is of no further interest either.
    }
  }
  any_stuck_ = false;
}

void ShardedDevice::enable_adaptation(const ThresholdAdaptorConfig& config) {
  adaptors_.assign(shards_.size(), ThresholdAdaptor(config));
}

template <typename Task>
void ShardedDevice::run_shards(const Task& task) {
  const std::size_t n = shards_.size();
  std::vector<std::future<void>> pending;
  if (pool_ != nullptr && pool_->size() > 0) {
    pending.reserve(n - 1);
    for (std::size_t s = 1; s < n; ++s) {
      pending.push_back(pool_->submit([&task, s] { task(s); }));
    }
  }
  FirstShardError error;
  for (std::size_t s = 0; s < n; ++s) {
    try {
      if (s == 0 || pending.empty()) {
        task(s);
      } else {
        pending[s - 1].get();
      }
    } catch (...) {
      error.capture(s);
    }
  }
  error.rethrow();
}

void ShardedDevice::observe_batch(
    std::span<const packet::ClassifiedPacket> batch) {
  drain_stuck();
  // Sampled 1-in-N so the span's clock reads never dominate the batch
  // path they measure; a null recorder short-circuits before sampling.
  const bool traced =
      trace_ != nullptr && trace_->sample(trace_batch_sample_);
  telemetry::ScopedTraceSpan span(
      traced ? trace_ : nullptr, "observe_batch", "device",
      telemetry::TraceArgs{-1, -1,
                           static_cast<std::int64_t>(interval_index_),
                           static_cast<std::int64_t>(batch.size())},
      "packets");
  if (shards_.size() == 1) {
    interval_packets_[0] += batch.size();
    for (const packet::ClassifiedPacket& packet : batch) {
      interval_bytes_[0] += packet.bytes;
    }
    shards_.front()->observe_batch(batch);
    return;
  }
  // Partition in arrival order: each shard sees its flows' packets in
  // the same relative order as the unsharded stream would.
  for (auto& shard_batch : shard_batches_) {
    shard_batch.clear();
  }
  // Loop-invariant locals, so the inlined shard_route's salt is hoisted
  // out of the per-packet loop.
  const std::uint64_t seed = seed_;
  const std::uint32_t shards = shard_count();
  for (const packet::ClassifiedPacket& packet : batch) {
    const std::uint32_t s = shard_route(seed, shards, packet.fingerprint);
    ++interval_packets_[s];
    interval_bytes_[s] += packet.bytes;
    shard_batches_[s].push_back(packet);
  }
  run_shards(
      [this](std::size_t s) { shards_[s]->observe_batch(shard_batches_[s]); });
}

Report ShardedDevice::end_interval() {
  // Close every shard's interval (in parallel when a pool is attached —
  // the per-shard flow-memory rebuilds are independent), then merge in
  // shard order so the merged report is deterministic.
  drain_stuck();
  const telemetry::ScopedTimer merge_timer(tm_merge_ns_);
  telemetry::ScopedTraceSpan merge_span(
      trace_, "shard.merge", "device",
      telemetry::TraceArgs{-1, -1,
                           static_cast<std::int64_t>(interval_index_),
                           static_cast<std::int64_t>(shards_.size())},
      "shards");
  const std::size_t n = shards_.size();
  // Heap-allocated report slots: each close task co-owns its slot, so a
  // watchdog-abandoned task writes into memory that outlives this frame
  // instead of a dead stack vector.
  std::vector<std::shared_ptr<Report>> slots;
  slots.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    slots.push_back(std::make_shared<Report>());
  }
  std::vector<char> degraded(n, 0);

  // Consult the fault plan for every shard on this thread in shard
  // order, so occurrence indices are deterministic under any pool size.
  std::vector<std::optional<robustness::FaultDecision>> stalls(n);
  if (faults_ != nullptr) {
    for (std::size_t s = 0; s < n; ++s) {
      stalls[s] = faults_->next("shard.stall");
    }
  }

  const auto make_task = [this, &slots, &stalls](std::size_t s) {
    return [this, s, slot = slots[s], stall = stalls[s]] {
      if (stall) robustness::apply_compute_fault(*stall, "shard.stall");
      *slot = shards_[s]->end_interval();
    };
  };

  if (watchdog_timeout_.count() > 0 && pool_ != nullptr &&
      pool_->size() > 0 && n > 1) {
    // Watchdog mode: all shards go to the pool (so any of them, not
    // just 1..N-1, can be timed out) and share one deadline. A shard
    // that misses it is merged as degraded; its future moves to stuck_
    // and is joined before the shard is touched again.
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      pending.push_back(pool_->submit(make_task(s)));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + watchdog_timeout_;
    FirstShardError error;
    for (std::size_t s = 0; s < n; ++s) {
      if (pending[s].wait_until(deadline) == std::future_status::timeout) {
        degraded[s] = 1;
        stuck_[s] = std::move(pending[s]);
        any_stuck_ = true;
        if (tm_degraded_ != nullptr) tm_degraded_->increment();
        continue;
      }
      try {
        pending[s].get();
      } catch (...) {
        error.capture(s);
      }
    }
    error.rethrow();
  } else {
    // Every shard closes even after one fails, so the interval counters
    // stay aligned; only the first failure resurfaces.
    run_shards([&make_task](std::size_t s) { make_task(s)(); });
  }

  // Build one member report per shard, annotated with its ShardStatus
  // exactly as a fleet member annotates the report it ships to a
  // collector, and merge them with the collector's own merge — so the
  // in-process and over-the-wire merges agree bit for bit. Per-shard
  // adaptation: each shard's private adaptor sees only that shard's
  // usage, so skewed slices of the flow space settle on their own
  // thresholds instead of inheriting a global compromise. A degraded
  // shard contributes an empty report built from cached capacity and
  // last-known threshold — never from the shard itself, which the
  // stalled close still owns — and skips adaptation for the interval.
  std::vector<Report> members(n);
  for (std::size_t s = 0; s < n; ++s) {
    Report& member = members[s];
    ShardStatus status;
    if (degraded[s]) {
      status.capacity = shard_capacity_[s];
      status.packets = interval_packets_[s];
      status.bytes = interval_bytes_[s];
      status.degraded = true;
      status.threshold = last_thresholds_[s];
      status.next_threshold = last_thresholds_[s];
      member.shards.assign(1, status);
      continue;
    }
    member = std::move(*slots[s]);
    status = make_shard_status(member, shard_capacity_[s],
                               interval_packets_[s], interval_bytes_[s]);
    if (adaptive()) {
      const common::ByteCount previous = shards_[s]->threshold();
      const common::ByteCount next = adaptors_[s].update(
          previous, member.entries_used, status.capacity);
      shards_[s]->set_threshold(next);
      status.next_threshold = next;
      status.smoothed_usage = adaptors_[s].smoothed_usage();
      // Adaptor decisions as events: how often shards steer, and in
      // which direction.
      if (next > previous && tm_threshold_raises_ != nullptr) {
        tm_threshold_raises_->increment();
      } else if (next < previous && tm_threshold_lowers_ != nullptr) {
        tm_threshold_lowers_->increment();
      }
    }
    last_thresholds_[s] = status.next_threshold;
    member.shards.assign(1, status);
  }
  Report merged = merge_member_reports(interval_index_++, members);

  // Mirror the interval tallies into the registry (interval deltas into
  // counters, instantaneous state into gauges), then reset them. The
  // generation stamp makes the mirror atomic to snapshots: a scrape
  // mid-mirror would otherwise pair this interval's counters with the
  // prior interval's gauges.
  if (tm_intervals_ != nullptr) {
    const telemetry::ScopedRegistryUpdate update(metrics_);
    tm_intervals_->increment();
    tm_effective_threshold_->set(static_cast<double>(merged.threshold));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const ShardStatus& status = merged.shards[s];
      tm_shard_packets_[s]->add(status.packets);
      tm_shard_bytes_[s]->add(status.bytes);
      tm_shard_threshold_[s]->set(
          static_cast<double>(status.next_threshold));
      tm_shard_occupancy_[s]->set(
          status.capacity == 0
              ? 0.0
              : static_cast<double>(status.entries_used) /
                    static_cast<double>(status.capacity));
    }
  }
  std::fill(interval_packets_.begin(), interval_packets_.end(), 0);
  std::fill(interval_bytes_.begin(), interval_bytes_.end(), 0);
  return merged;
}

common::ByteCount ShardedDevice::threshold() const {
  common::ByteCount max = 0;
  for (const auto& replica : shards_) {
    max = std::max(max, replica->threshold());
  }
  return max;
}

std::string ShardedDevice::name() const {
  return std::string(adaptive() ? "sharded-adaptive(" : "sharded(") +
         shards_.front()->name() + ")x" + std::to_string(shards_.size());
}

void ShardedDevice::set_threshold(common::ByteCount threshold) {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    set_shard_threshold(s, threshold);
  }
}

void ShardedDevice::set_shard_threshold(std::uint32_t index,
                                        common::ByteCount threshold) {
  drain_stuck();
  baseline_thresholds_[index] = threshold;
  last_thresholds_[index] = threshold;
  shards_[index]->set_threshold(threshold);
  if (adaptive()) {
    // Restart this shard's adaptor so steering resumes from the
    // override instead of from usage observed under the old threshold.
    adaptors_[index].reset();
  }
}

std::size_t ShardedDevice::flow_memory_capacity() const {
  std::size_t total = 0;
  for (const auto& replica : shards_) {
    total += replica->flow_memory_capacity();
  }
  return total;
}

std::uint64_t ShardedDevice::memory_accesses() const {
  std::uint64_t total = 0;
  for (const auto& replica : shards_) {
    total += replica->memory_accesses();
  }
  return total;
}

std::uint64_t ShardedDevice::packets_processed() const {
  std::uint64_t total = 0;
  for (const auto& replica : shards_) {
    total += replica->packets_processed();
  }
  return total;
}

bool ShardedDevice::can_checkpoint() const {
  if (any_stuck_) return false;
  for (const auto& replica : shards_) {
    if (!replica->can_checkpoint()) return false;
  }
  return true;
}

void ShardedDevice::save_state(common::StateWriter& out) const {
  if (any_stuck_) {
    throw common::StateError(
        "sharded device: cannot checkpoint while a watchdog-abandoned "
        "shard task is still running");
  }
  out.put_u8(1);  // layout version
  out.put_u32(shard_count());
  out.put_u32(interval_index_);
  out.put_bool(adaptive());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out.put_u64(baseline_thresholds_[s]);
    out.put_u64(last_thresholds_[s]);
    out.put_u64(interval_packets_[s]);
    out.put_u64(interval_bytes_[s]);
    if (adaptive()) adaptors_[s].save_state(out);
  }
  for (const auto& replica : shards_) {
    replica->save_state(out);
  }
}

void ShardedDevice::restore_state(common::StateReader& in) {
  drain_stuck();
  if (in.u8() != 1) {
    throw common::StateError("sharded device: unknown checkpoint layout");
  }
  if (in.u32() != shard_count()) {
    throw common::StateError(
        "sharded device: checkpoint shard count does not match "
        "configuration");
  }
  interval_index_ = in.u32();
  if (in.boolean() != adaptive()) {
    throw common::StateError(
        "sharded device: checkpoint adaptation mode does not match "
        "configuration");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    baseline_thresholds_[s] = in.u64();
    last_thresholds_[s] = in.u64();
    interval_packets_[s] = in.u64();
    interval_bytes_[s] = in.u64();
    if (adaptive()) adaptors_[s].restore_state(in);
  }
  for (const auto& replica : shards_) {
    replica->restore_state(in);
  }
}

}  // namespace nd::core
