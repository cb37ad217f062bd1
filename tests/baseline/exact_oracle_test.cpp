#include "baseline/exact_oracle.hpp"

#include <gtest/gtest.h>

#include "../support/report_testing.hpp"

using nd::testing::observe_one;

namespace nd::baseline {
namespace {

packet::FlowKey key(std::uint32_t i) {
  return packet::FlowKey::destination_ip(i);
}

TEST(ExactOracle, CountsExactly) {
  ExactOracle oracle;
  observe_one(oracle, key(1), 100);
  observe_one(oracle, key(1), 200);
  observe_one(oracle, key(2), 50);
  const auto report = oracle.end_interval();
  ASSERT_EQ(report.flows.size(), 2u);
  const auto* f1 = core::find_flow(report, key(1));
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->estimated_bytes, 300u);
  EXPECT_TRUE(f1->exact);
}

TEST(ExactOracle, CurrentSizesLiveView) {
  ExactOracle oracle;
  observe_one(oracle, key(7), 123);
  EXPECT_EQ(oracle.current_sizes().at(key(7)), 123u);
}

TEST(ExactOracle, IntervalsIndependent) {
  ExactOracle oracle;
  observe_one(oracle, key(1), 100);
  const auto first = oracle.end_interval();
  observe_one(oracle, key(1), 900);
  const auto second = oracle.end_interval();
  EXPECT_EQ(first.flows[0].estimated_bytes, 100u);
  EXPECT_EQ(second.flows[0].estimated_bytes, 900u);
  EXPECT_EQ(first.interval, 0u);
  EXPECT_EQ(second.interval, 1u);
}

TEST(ExactOracle, SortAndFindHelpers) {
  ExactOracle oracle;
  observe_one(oracle, key(1), 10);
  observe_one(oracle, key(2), 30);
  observe_one(oracle, key(3), 20);
  auto report = oracle.end_interval();
  core::sort_by_size(report);
  EXPECT_EQ(report.flows[0].estimated_bytes, 30u);
  EXPECT_EQ(report.flows[2].estimated_bytes, 10u);
  EXPECT_EQ(core::find_flow(report, key(9)), nullptr);
}

}  // namespace
}  // namespace nd::baseline
