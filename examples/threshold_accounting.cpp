// Scalable threshold accounting (Section 1.2's first application).
//
// Customers whose aggregates exceed z% of the link are billed by usage;
// everyone else pays a flat duration-based fee. Because sample and hold
// never overestimates, usage charges are provable lower bounds — no
// customer is ever overcharged (Section 5.2, advantage iii).
//
// The example bills one synthetic interval with sample and hold and
// compares the invoice against an exact oracle.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "baseline/exact_oracle.hpp"
#include "common/format.hpp"
#include "core/sample_and_hold.hpp"
#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

namespace {

constexpr double kPricePerMb = 0.04;     // usage price per megabyte
constexpr double kFlatFee = 0.25;        // duration price per interval

struct Invoice {
  double usage_billed_mb{0.0};
  double revenue{0.0};
  std::size_t usage_customers{0};
  std::size_t flat_customers{0};
};

Invoice bill(const core::Report& report, common::ByteCount threshold,
             std::size_t total_customers) {
  Invoice invoice;
  for (const auto& flow : report.flows) {
    if (flow.estimated_bytes >= threshold) {
      invoice.usage_billed_mb +=
          static_cast<double>(flow.estimated_bytes) / 1e6;
      ++invoice.usage_customers;
    }
  }
  invoice.flat_customers = total_customers - invoice.usage_customers;
  invoice.revenue = invoice.usage_billed_mb * kPricePerMb +
                    static_cast<double>(invoice.flat_customers) * kFlatFee;
  return invoice;
}

}  // namespace

int main() {
  auto trace_config = trace::scaled(trace::Presets::ind(), 0.3);
  trace_config.num_intervals = 2;
  trace::TraceSynthesizer synth(trace_config);

  // Bill by destination IP (the "customer" aggregate) above z = 0.1%.
  const common::ByteCount threshold =
      trace_config.link_capacity_per_interval / 1000;
  const auto definition = packet::FlowDefinition::destination_ip();

  core::SampleAndHoldConfig config;
  config.flow_memory_entries = 4096;
  config.threshold = threshold;
  config.oversampling = 20.0;  // billing wants high confidence
  config.preserve = flowmem::PreservePolicy::kPreserve;
  core::SampleAndHold meter(config);
  baseline::ExactOracle oracle;

  std::printf(
      "Threshold accounting: usage-billing aggregates above %s per "
      "interval (z=0.1%%),\nflat fee of $%.2f otherwise, usage at $%.2f "
      "per MB.\n\n",
      common::format_bytes(threshold).c_str(), kFlatFee, kPricePerMb);

  for (;;) {
    const auto packets = synth.next_interval();
    if (packets.empty()) break;
    std::vector<packet::ClassifiedPacket> batch;
    batch.reserve(packets.size());
    for (const auto& packet : packets) {
      if (const auto key = definition.classify(packet)) {
        batch.push_back(
            packet::ClassifiedPacket::from(*key, packet.size_bytes));
      }
    }
    meter.observe_batch(batch);
    oracle.observe_batch(batch);
    const auto metered = meter.end_interval();
    const auto exact = oracle.end_interval();
    const std::size_t customers = exact.flows.size();

    const Invoice estimated = bill(metered, threshold, customers);
    const Invoice truth = bill(exact, threshold, customers);

    std::printf("interval %u (%zu customer aggregates):\n",
                metered.interval, customers);
    std::printf("  usage-billed customers: %zu (exact billing: %zu)\n",
                estimated.usage_customers, truth.usage_customers);
    std::printf("  usage billed:           %.2f MB (exact: %.2f MB)\n",
                estimated.usage_billed_mb, truth.usage_billed_mb);
    std::printf("  revenue:                $%.2f (exact: $%.2f)\n",
                estimated.revenue, truth.revenue);

    // The billing-safety property: never charge above actual usage.
    double overcharge = 0.0;
    for (const auto& flow : metered.flows) {
      if (flow.estimated_bytes < threshold) continue;
      const auto* exact_flow = core::find_flow(exact, flow.key);
      const common::ByteCount actual =
          exact_flow ? exact_flow->estimated_bytes : 0;
      if (flow.estimated_bytes > actual) {
        overcharge += static_cast<double>(flow.estimated_bytes - actual);
      }
    }
    std::printf("  bytes overcharged:      %.0f (provably 0 — estimates "
                "are lower bounds)\n\n",
                overcharge);
  }
  return 0;
}
