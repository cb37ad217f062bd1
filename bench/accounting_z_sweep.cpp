// Threshold accounting z-sweep (Section 1.2): "by varying z from 0 to
// 100, we can move from usage based pricing to duration based pricing.
// ... for reasonably small values of z (say 1%) threshold accounting may
// offer a compromise that is scalable and yet offers almost the same
// utility as usage based pricing."
//
// For each z the bench bills a synthetic trace with sample and hold and
// reports the usage/duration revenue split, the revenue error against
// exact (oracle) billing, and the overcharge (provably zero).
#include <cstdio>
#include <vector>

#include "accounting/threshold_accounting.hpp"
#include "baseline/exact_oracle.hpp"
#include "bench_common.hpp"
#include "common/format.hpp"
#include "core/sample_and_hold.hpp"
#include "eval/metrics.hpp"
#include "eval/table.hpp"
#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"
#include "trace/stats.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, bench::Options{0.1, 42, 1, 6});
  bench::print_header(
      "Threshold accounting: sweeping z from usage-based to "
      "duration-based pricing",
      options);

  auto config = trace::Presets::ind(options.seed);
  config.num_intervals = options.intervals;
  if (options.scale < 1.0) config = trace::scaled(config, options.scale);
  const auto definition = packet::FlowDefinition::destination_ip();

  eval::TextTable table({"z (% of link)", "Usage-billed customers",
                         "Usage revenue share", "Revenue error vs exact",
                         "Overcharged bytes"});

  for (const double z_percent :
       {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 100.0}) {
    accounting::Tariff tariff;
    tariff.usage_threshold_fraction = z_percent / 100.0;
    tariff.price_per_megabyte = 0.05;
    tariff.duration_fee = 0.25;
    const accounting::ThresholdAccountant accountant(
        tariff, config.link_capacity_per_interval);

    core::SampleAndHoldConfig sh;
    sh.flow_memory_entries = 1u << 18;
    sh.threshold = std::max<common::ByteCount>(
        accountant.usage_threshold_bytes(), 1000);
    sh.oversampling = 20.0;
    sh.preserve = flowmem::PreservePolicy::kPreserve;
    sh.seed = options.seed;
    core::SampleAndHold meter(sh);
    baseline::ExactOracle oracle;

    accounting::BillingLedger ledger;
    common::ByteCount overcharged = 0;
    double usage_customers = 0.0;
    double usage_revenue = 0.0;
    double total_revenue = 0.0;
    std::uint32_t intervals = 0;

    trace::TraceSynthesizer synth(config);
    for (;;) {
      const auto packets = synth.next_interval();
      if (packets.empty()) break;
      eval::TruthMap truth;
      std::vector<packet::ClassifiedPacket> batch;
      batch.reserve(packets.size());
      for (const auto& packet : packets) {
        if (const auto key = definition.classify(packet)) {
          batch.push_back(
              packet::ClassifiedPacket::from(*key, packet.size_bytes));
          truth[*key] += packet.size_bytes;
        }
      }
      meter.observe_batch(batch);
      oracle.observe_batch(batch);
      const auto exact_report = oracle.end_interval();
      const auto metered_report = meter.end_interval();
      const std::size_t customers = exact_report.flows.size();

      const auto bill = accountant.bill(metered_report, customers);
      const auto exact_bill = accountant.bill(exact_report, customers);
      ledger.observe(bill, exact_bill.total_revenue());
      overcharged += accounting::overcharged_bytes(bill, truth);
      usage_customers += static_cast<double>(bill.usage_customers);
      usage_revenue += bill.usage_revenue;
      total_revenue += bill.total_revenue();
      ++intervals;
    }

    table.add_row(
        {common::format_fixed(z_percent, 3) + "%",
         common::format_count(static_cast<std::uint64_t>(
             usage_customers / intervals)),
         common::format_percent(
             total_revenue == 0.0 ? 0.0 : usage_revenue / total_revenue,
             1),
         common::format_percent(ledger.revenue_error(), 3),
         common::format_count(overcharged)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nExpected: z ~ 0 approaches pure usage pricing (all revenue "
      "usage-based), z = 100%% is pure duration\npricing; small z keeps "
      "the revenue error tiny while billing only a handful of customers "
      "by usage;\novercharged bytes are zero at every z (sample-and-hold "
      "estimates are lower bounds).\n");
  return 0;
}
