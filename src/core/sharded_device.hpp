// ShardedDevice: RSS-style partitioning of the flow space across N
// replicas of an inner measurement device.
//
// Hardware heavy-hitter pipelines (HashPipe, PRECISION) get their speed
// from partitioned, pipelined processing; the software analogue is
// receive-side scaling: hash each packet's flow fingerprint to one of N
// shards and let each shard run an independent, smaller device. Because
// the mapping is by flow, every packet of a flow lands on the same shard
// and per-shard results are exact partitions of the unsharded problem —
// merging the N per-shard reports at end_interval() yields one report
// over the whole flow space.
//
// Determinism contract: for a fixed shard count the merged output is a
// pure function of the input stream — shard routing is a seeded hash of
// the flow fingerprint, each shard owns a deterministic per-shard seed,
// batches are partitioned in arrival order, and reports are merged in
// shard order. Running shards on a ThreadPool (or none) changes wall
// clock only, never output; the repeated-run determinism test enforces
// this. Per-shard threshold adaptation (Section 6 run once per replica)
// keeps that determinism — the adaptors are fed the deterministic
// per-shard usage — but intentionally breaks bit-equality with a
// globally-adapted scalar device: each shard carries its own threshold
// into the next interval, so the merged report is only bound-checked
// (no false negatives above the effective threshold, usage steered into
// the target band) against the scalar adaptive path. The differential
// harness (tests/support/differential_harness.hpp) pins down both
// halves of this contract.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/device.hpp"
#include "core/threshold_adaptor.hpp"
#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace nd::core {

/// A shard task failed during fan-out; carries the shard index so the
/// operator knows which replica to look at. Every merge path joins all
/// futures before throwing, so no task is left running against freed
/// state.
class ShardError : public std::runtime_error {
 public:
  ShardError(std::uint32_t shard, const std::string& reason)
      : std::runtime_error("shard " + std::to_string(shard) + ": " +
                           reason),
        shard_(shard) {}

  [[nodiscard]] std::uint32_t shard() const { return shard_; }

 private:
  std::uint32_t shard_;
};

struct ShardedDeviceConfig {
  std::uint32_t shards{8};
  /// Salts the fingerprint->shard routing hash and derives the
  /// per-shard seeds handed to the factory.
  std::uint64_t seed{1};
  /// Worker pool for shard fan-out; nullptr runs shards on the calling
  /// thread. Not owned; must outlive the device.
  common::ThreadPool* pool{nullptr};
  /// When set, every shard runs a private ThresholdAdaptor on its own
  /// entries_used/capacity at interval boundaries and carries a
  /// heterogeneous threshold into the next interval. Unset reproduces
  /// the uniform-threshold device bit for bit.
  std::optional<ThresholdAdaptorConfig> adaptor{};
  /// Export runtime telemetry into this registry (not owned; must
  /// outlive the device). The sharded layer mirrors its always-on
  /// per-shard tallies once per interval — the packet path never
  /// touches an atomic, so a null registry costs literally nothing.
  /// Inner-device telemetry is the factory's business: pass the same
  /// registry with {"shard", "<s>"} labels to the replica configs.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Extra labels for every series this layer registers.
  telemetry::Labels metric_labels{};
  /// Interval-close watchdog: when > 0 and shards fan out to a pool,
  /// end_interval waits at most this long (one shared deadline) for the
  /// shard close tasks. A shard that misses the deadline is merged as
  /// ShardStatus::degraded — its flows are lost from that report but
  /// its packet/byte tallies still account the loss — and the abandoned
  /// task is drained before the shard is touched again. 0 (the default)
  /// waits forever, reproducing the pre-watchdog behaviour bit for bit.
  std::chrono::milliseconds watchdog_timeout{0};
  /// Fault-injection hook (site "shard.stall" delays a shard's interval
  /// close; combine with watchdog_timeout to exercise degraded merges).
  /// Not owned; null — the default — is zero-cost.
  robustness::FaultInjector* faults{nullptr};
  /// Optional trace recorder (not owned): a span per sampled
  /// observe_batch call and per end_interval merge. Null — the default
  /// — costs one branch per batch.
  telemetry::TraceRecorder* trace{nullptr};
  /// 1-in-N decimation of observe_batch spans (the hot path must not
  /// pay a clock read per batch); <= 1 records every batch.
  std::uint32_t trace_batch_sample{64};
};

class ShardedDevice final : public MeasurementDevice {
 public:
  /// Builds the replica for `shard`; `shard_seed` is a deterministic
  /// per-shard seed derived from ShardedDeviceConfig::seed. A factory
  /// for a 1-shard device may ignore `shard_seed` to reproduce an
  /// unsharded device bit-for-bit.
  using Factory = std::function<std::unique_ptr<MeasurementDevice>(
      std::uint32_t shard, std::uint64_t shard_seed)>;

  ShardedDevice(const ShardedDeviceConfig& config, const Factory& factory);
  /// Joins any watchdog-abandoned shard task before the replicas are
  /// destroyed (a stalled close may still be writing shard state).
  ~ShardedDevice() override;

  void observe_batch(
      std::span<const packet::ClassifiedPacket> batch) override;
  Report end_interval() override;

  [[nodiscard]] std::string name() const override;
  /// The effective threshold: the maximum per-shard threshold. A flow
  /// above it clears the threshold of whichever shard it routes to, so
  /// the no-false-negative guarantee and metrics/dimensioning carry
  /// over unchanged from the scalar device. With uniform thresholds
  /// (no adaptation, no per-shard overrides) this is exactly the shared
  /// threshold.
  [[nodiscard]] common::ByteCount threshold() const override;
  /// Records `threshold` as every shard's manual baseline and restarts
  /// the per-shard adaptors (when adaptive) from it, so operator
  /// overrides and adaptation compose: the override takes effect
  /// immediately and adaptation steers from there instead of snapping
  /// back to stale usage history.
  void set_threshold(common::ByteCount threshold) override;
  /// Per-shard manual override; same baseline/adaptor-reset semantics
  /// as set_threshold but for one shard.
  void set_shard_threshold(std::uint32_t index, common::ByteCount threshold);
  [[nodiscard]] std::size_t flow_memory_capacity() const override;
  [[nodiscard]] std::uint64_t memory_accesses() const override;
  [[nodiscard]] std::uint64_t packets_processed() const override;

  /// Checkpointable iff every replica is. save_state refuses while a
  /// watchdog-abandoned task may still be mutating a shard.
  [[nodiscard]] bool can_checkpoint() const override;
  void save_state(common::StateWriter& out) const override;
  void restore_state(common::StateReader& in) override;

  /// Switch on per-shard threshold adaptation (idempotent; replaces any
  /// previous adaptor configuration and restarts from the shards'
  /// current thresholds). ShardedDeviceConfig::adaptor routes here.
  void enable_adaptation(const ThresholdAdaptorConfig& config);
  [[nodiscard]] bool adaptive() const { return !adaptors_.empty(); }
  /// The shard's private adaptor; only valid when adaptive().
  [[nodiscard]] const ThresholdAdaptor& shard_adaptor(
      std::uint32_t index) const {
    return adaptors_[index];
  }
  /// The per-shard manual baseline recorded by the last
  /// set_threshold/set_shard_threshold (initially each replica's
  /// configured threshold). Adaptation floors itself here via the
  /// adaptor's min_threshold, never below.
  [[nodiscard]] const std::vector<common::ByteCount>& baseline_thresholds()
      const {
    return baseline_thresholds_;
  }

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Which shard a flow fingerprint routes to, in [0, shard_count()):
  /// core::shard_route with the configured seed, the routing a fleet
  /// member (net::FleetSliceDevice) applies too.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t fingerprint) const {
    return shard_route(seed_, shard_count(), fingerprint);
  }
  [[nodiscard]] const MeasurementDevice& shard(std::uint32_t index) const {
    return *shards_[index];
  }

 private:
  /// Join every watchdog-abandoned shard task (swallowing its result)
  /// so the shard's state is quiescent again. Called before any path
  /// that touches shard state; the fast path is one predicted branch.
  void drain_stuck() {
    if (any_stuck_) drain_stuck_slow();
  }
  void drain_stuck_slow();

  /// Run `task(s)` for every shard and join them all: shards 1..N-1 on
  /// the pool and shard 0 on the calling thread (so the caller
  /// contributes a core instead of blocking idle), or every shard on
  /// the calling thread without a pool. Every task runs and is joined
  /// even after one fails — an abandoned future would leave its task
  /// racing against whatever the unwound caller does next — and the
  /// first failure (lowest shard index) resurfaces as ShardError.
  template <typename Task>
  void run_shards(const Task& task);

  std::vector<std::unique_ptr<MeasurementDevice>> shards_;
  /// Always-on per-interval packet/byte tallies, indexed by shard.
  /// Updated on the caller's thread (the partition loop runs before any
  /// fan-out), reset at end_interval; they fill
  /// ShardStatus::packets/bytes and feed the telemetry mirror.
  std::vector<std::uint64_t> interval_packets_;
  std::vector<common::ByteCount> interval_bytes_;
  /// Telemetry handles; null/empty when no registry. Written only at
  /// end_interval (interval deltas added to counters, gauges set).
  std::vector<telemetry::Counter*> tm_shard_packets_;
  std::vector<telemetry::Counter*> tm_shard_bytes_;
  std::vector<telemetry::Gauge*> tm_shard_threshold_;
  std::vector<telemetry::Gauge*> tm_shard_occupancy_;
  telemetry::Counter* tm_intervals_{nullptr};
  telemetry::Counter* tm_threshold_raises_{nullptr};
  telemetry::Counter* tm_threshold_lowers_{nullptr};
  telemetry::Gauge* tm_effective_threshold_{nullptr};
  telemetry::Histogram* tm_merge_ns_{nullptr};
  /// ShardedDeviceConfig::seed, the shard_route seed.
  std::uint64_t seed_;
  common::ThreadPool* pool_;
  /// Per-shard sub-batches, reused across observe_batch calls.
  std::vector<std::vector<packet::ClassifiedPacket>> shard_batches_;
  /// One private adaptor per shard when adaptation is on; empty
  /// otherwise.
  std::vector<ThresholdAdaptor> adaptors_;
  /// Per-shard manual baseline (see baseline_thresholds()).
  std::vector<common::ByteCount> baseline_thresholds_;
  /// Per-shard flow-memory capacity, cached at construction so a
  /// degraded merge never queries a shard a stalled task may still own.
  std::vector<std::size_t> shard_capacity_;
  /// Each shard's threshold as of the last merge (or override); the
  /// value a degraded merge reports without touching the shard.
  std::vector<common::ByteCount> last_thresholds_;
  /// Futures of shard tasks that missed the watchdog deadline, held
  /// until drain_stuck() joins them; empty future = shard not stuck.
  std::vector<std::future<void>> stuck_;
  bool any_stuck_{false};
  /// Index of the next interval to close. Mirrors the replicas' own
  /// counters but survives a fully-degraded merge where no replica
  /// report is available to copy the index from.
  common::IntervalIndex interval_index_{0};
  std::chrono::milliseconds watchdog_timeout_{0};
  robustness::FaultInjector* faults_{nullptr};
  telemetry::Counter* tm_degraded_{nullptr};
  telemetry::TraceRecorder* trace_{nullptr};
  std::uint32_t trace_batch_sample_{64};
  /// Registry backing the handles above; kept so the end-of-interval
  /// mirror can publish under one generation stamp.
  telemetry::MetricsRegistry* metrics_{nullptr};
};

/// Deterministic per-shard seed derivation (exposed for tests).
[[nodiscard]] std::uint64_t shard_seed(std::uint64_t base_seed,
                                       std::uint32_t shard);

}  // namespace nd::core
