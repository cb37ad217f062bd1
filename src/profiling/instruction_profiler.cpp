#include "profiling/instruction_profiler.hpp"

#include <algorithm>
#include <cmath>

namespace nd::profiling {

namespace {

core::MultistageFilterConfig filter_config(const ProfilerConfig& config) {
  core::MultistageFilterConfig filter;
  filter.flow_memory_entries = config.table_entries;
  filter.depth = config.filter_depth;
  filter.buckets_per_stage = config.filter_buckets;
  filter.threshold = config.hot_threshold;
  filter.conservative_update = true;  // the Section 9 claim under test
  filter.shielding = true;
  filter.preserve = flowmem::PreservePolicy::kPreserve;
  filter.seed = config.seed;
  return filter;
}

packet::FlowKey block_key(std::uint32_t block_address) {
  // A basic-block address plays the role of a flow identifier; the
  // dst-IP key kind carries one 32-bit value, which is exactly what we
  // need.
  return packet::FlowKey::destination_ip(block_address);
}

std::vector<HotSpot> to_hotspots(core::Report report) {
  core::sort_by_size(report);
  std::vector<HotSpot> hot;
  hot.reserve(report.flows.size());
  for (const auto& flow : report.flows) {
    if (flow.estimated_bytes == 0) continue;
    hot.push_back(HotSpot{flow.key.dst_ip(), flow.estimated_bytes,
                          flow.exact});
  }
  return hot;
}

}  // namespace

SyntheticProgram::SyntheticProgram(const SyntheticProgramConfig& config)
    : rng_(config.seed) {
  block_sizes_.reserve(config.basic_blocks);
  const std::uint32_t span =
      config.max_block_instructions - config.min_block_instructions + 1;
  for (std::uint32_t i = 0; i < config.basic_blocks; ++i) {
    block_sizes_.push_back(config.min_block_instructions +
                           static_cast<std::uint32_t>(rng_.uniform(span)));
  }
  heat_cdf_.reserve(config.basic_blocks);
  double acc = 0.0;
  for (std::uint32_t i = 1; i <= config.basic_blocks; ++i) {
    acc += std::pow(static_cast<double>(i), -config.heat_alpha);
    heat_cdf_.push_back(acc);
  }
  for (auto& v : heat_cdf_) v /= acc;
}

BlockExecution SyntheticProgram::next() {
  const double u = rng_.real();
  const auto it = std::lower_bound(heat_cdf_.begin(), heat_cdf_.end(), u);
  const auto rank = static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(std::distance(heat_cdf_.begin(), it),
                               static_cast<std::ptrdiff_t>(
                                   heat_cdf_.size() - 1)));
  BlockExecution execution;
  // Block addresses: spread ranks over a code-segment-like range.
  execution.block_address = 0x0040'0000u + rank * 64u;
  execution.instructions = block_sizes_[rank];
  exact_[execution.block_address] += execution.instructions;
  total_ += execution.instructions;
  return execution;
}

HotSpotProfiler::HotSpotProfiler(const ProfilerConfig& config)
    : filter_(filter_config(config)) {}

void HotSpotProfiler::observe(const BlockExecution& execution) {
  const auto packet = packet::ClassifiedPacket::from(
      block_key(execution.block_address), execution.instructions);
  filter_.observe_batch({&packet, 1});
}

std::vector<HotSpot> HotSpotProfiler::end_epoch() {
  return to_hotspots(filter_.end_interval());
}

SampledProfiler::SampledProfiler(std::uint32_t sampling_divisor,
                                 std::uint64_t seed)
    : divisor_(std::max<std::uint32_t>(sampling_divisor, 1)),
      rng_(seed),
      skip_(rng_.geometric(1.0 / divisor_)) {}

void SampledProfiler::observe(const BlockExecution& execution) {
  // Instruction-level 1-in-x sampling via geometric skips over the
  // instruction stream.
  std::uint64_t remaining = execution.instructions;
  while (skip_ < remaining) {
    remaining -= skip_ + 1;
    sampled_[execution.block_address] += 1;
    skip_ = rng_.geometric(1.0 / divisor_);
  }
  skip_ -= remaining;
}

std::vector<HotSpot> SampledProfiler::end_epoch() {
  std::vector<HotSpot> hot;
  hot.reserve(sampled_.size());
  for (const auto& [address, samples] : sampled_) {
    hot.push_back(HotSpot{address, samples * divisor_, false});
  }
  sampled_.clear();
  std::sort(hot.begin(), hot.end(), [](const HotSpot& a, const HotSpot& b) {
    return a.instructions > b.instructions;
  });
  return hot;
}

ProfileQuality evaluate_profile(
    const std::vector<HotSpot>& profile,
    const std::unordered_map<std::uint32_t, std::uint64_t>& exact,
    std::size_t top_n) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> truth(
      exact.begin(), exact.end());
  std::sort(truth.begin(), truth.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  truth.resize(std::min(top_n, truth.size()));

  ProfileQuality quality;
  if (truth.empty()) return quality;

  double error_sum = 0.0;
  double size_sum = 0.0;
  std::size_t found = 0;
  for (const auto& [address, instructions] : truth) {
    size_sum += static_cast<double>(instructions);
    const auto it =
        std::find_if(profile.begin(), profile.end(),
                     [address = address](const HotSpot& h) {
                       return h.block_address == address;
                     });
    if (it == profile.end()) {
      error_sum += static_cast<double>(instructions);
      continue;
    }
    ++found;
    error_sum += std::abs(static_cast<double>(instructions) -
                          static_cast<double>(it->instructions));
  }
  quality.top_n_recall =
      static_cast<double>(found) / static_cast<double>(truth.size());
  quality.relative_error = size_sum == 0.0 ? 0.0 : error_sum / size_sum;
  return quality;
}

}  // namespace nd::profiling
