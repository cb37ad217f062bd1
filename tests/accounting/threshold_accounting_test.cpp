#include "accounting/threshold_accounting.hpp"

#include <gtest/gtest.h>

#include "../support/report_testing.hpp"
#include "baseline/sampled_netflow.hpp"
#include "core/sample_and_hold.hpp"

using nd::testing::observe_one;

namespace nd::accounting {
namespace {

packet::FlowKey customer(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

core::Report report_with(
    std::initializer_list<std::pair<std::uint32_t, common::ByteCount>>
        flows) {
  core::Report report;
  for (const auto& [id, bytes] : flows) {
    report.flows.push_back(core::ReportedFlow{customer(id), bytes, false});
  }
  return report;
}

Tariff default_tariff() {
  Tariff tariff;
  tariff.usage_threshold_fraction = 0.001;  // z = 0.1%
  tariff.price_per_megabyte = 0.05;
  tariff.duration_fee = 1.0;
  return tariff;
}

TEST(ThresholdAccountant, SplitsUsageAndDuration) {
  // Capacity 100 MB -> usage threshold 100 KB.
  ThresholdAccountant accountant(default_tariff(), 100'000'000);
  EXPECT_EQ(accountant.usage_threshold_bytes(), 100'000u);

  const auto bill = accountant.bill(
      report_with({{1, 2'000'000}, {2, 50'000}}), /*total_customers=*/10);
  EXPECT_EQ(bill.usage_customers, 1u);
  EXPECT_EQ(bill.duration_customers, 9u);
  EXPECT_DOUBLE_EQ(bill.usage_revenue, 2.0 * 0.05);
  EXPECT_DOUBLE_EQ(bill.duration_revenue, 9.0);
  EXPECT_DOUBLE_EQ(bill.total_revenue(), 9.1);
}

TEST(ThresholdAccountant, ZZeroIsPureUsagePricingForReported) {
  Tariff tariff = default_tariff();
  tariff.usage_threshold_fraction = 0.0;
  ThresholdAccountant accountant(tariff, 100'000'000);
  const auto bill =
      accountant.bill(report_with({{1, 1'000}, {2, 10}}), 2);
  EXPECT_EQ(bill.usage_customers, 2u);
  EXPECT_EQ(bill.duration_customers, 0u);
}

TEST(ThresholdAccountant, ZOneHundredIsPureDurationPricing) {
  Tariff tariff = default_tariff();
  tariff.usage_threshold_fraction = 1.0;  // nothing exceeds the link
  ThresholdAccountant accountant(tariff, 100'000'000);
  const auto bill =
      accountant.bill(report_with({{1, 50'000'000}}), 5);
  EXPECT_EQ(bill.usage_customers, 0u);
  EXPECT_DOUBLE_EQ(bill.total_revenue(), 5.0);
}

TEST(ThresholdAccountant, InvoiceAmounts) {
  ThresholdAccountant accountant(default_tariff(), 100'000'000);
  const auto bill = accountant.bill(report_with({{7, 3'000'000}}), 1);
  ASSERT_EQ(bill.invoices.size(), 1u);
  EXPECT_EQ(bill.invoices[0].customer, customer(7));
  EXPECT_TRUE(bill.invoices[0].usage_billed);
  EXPECT_DOUBLE_EQ(bill.invoices[0].amount, 3.0 * 0.05);
}

TEST(Overcharge, ZeroForLowerBoundEstimates) {
  ThresholdAccountant accountant(default_tariff(), 100'000'000);
  const auto bill = accountant.bill(report_with({{1, 900'000}}), 1);
  std::unordered_map<packet::FlowKey, common::ByteCount,
                     packet::FlowKeyHasher>
      truth;
  truth[customer(1)] = 1'000'000;  // estimate below actual
  EXPECT_EQ(overcharged_bytes(bill, truth), 0u);
}

TEST(Overcharge, DetectedForOverestimates) {
  ThresholdAccountant accountant(default_tariff(), 100'000'000);
  const auto bill = accountant.bill(report_with({{1, 1'200'000}}), 1);
  std::unordered_map<packet::FlowKey, common::ByteCount,
                     packet::FlowKeyHasher>
      truth;
  truth[customer(1)] = 1'000'000;  // NetFlow-style overshoot
  EXPECT_EQ(overcharged_bytes(bill, truth), 200'000u);
}

TEST(Overcharge, SampleAndHoldNeverOvercharges) {
  // Property over seeds: billing from sample-and-hold reports never
  // exceeds actual usage (Section 5.2 iii).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    core::SampleAndHoldConfig config;
    config.flow_memory_entries = 256;
    config.threshold = 100'000;
    config.oversampling = 10.0;
    config.seed = seed;
    core::SampleAndHold device(config);

    std::unordered_map<packet::FlowKey, common::ByteCount,
                       packet::FlowKeyHasher>
        truth;
    for (std::uint32_t c = 0; c < 20; ++c) {
      const common::ByteCount bytes = 50'000 + 37'000ULL * c;
      truth[customer(c)] = bytes;
      common::ByteCount remaining = bytes;
      while (remaining > 0) {
        const auto size = static_cast<std::uint32_t>(
            std::min<common::ByteCount>(1000, remaining));
        observe_one(device, customer(c), size);
        remaining -= size;
      }
    }
    ThresholdAccountant accountant(default_tariff(), 100'000'000);
    const auto bill = accountant.bill(device.end_interval(), 20);
    EXPECT_EQ(overcharged_bytes(bill, truth), 0u) << "seed " << seed;
  }
}

TEST(BillingLedger, AccumulatesRevenueAndError) {
  BillingLedger ledger;
  IntervalBill bill;
  bill.usage_revenue = 8.0;
  bill.duration_revenue = 2.0;
  ledger.observe(bill, /*exact_revenue=*/11.0);
  ledger.observe(bill, /*exact_revenue=*/9.0);
  EXPECT_DOUBLE_EQ(ledger.total_revenue(), 20.0);
  EXPECT_DOUBLE_EQ(ledger.total_exact_revenue(), 20.0);
  EXPECT_DOUBLE_EQ(ledger.revenue_error(), 2.0 / 20.0);
  EXPECT_EQ(ledger.intervals(), 2u);
}

TEST(BillingLedger, EmptyLedger) {
  BillingLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.revenue_error(), 0.0);
  EXPECT_EQ(ledger.intervals(), 0u);
}

}  // namespace
}  // namespace nd::accounting
