// Destination sink metrics (§4.2 definitions) on crafted arrival
// sequences, and source emission timing.
#include "runtime/sink.hpp"
#include "runtime/source.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rasc::runtime {
namespace {

DataUnit unit(std::int64_t seq, sim::SimTime created = 0) {
  DataUnit u;
  u.seq = seq;
  u.created_at = created;
  return u;
}

TEST(Sink, CountsDeliveredAndDelay) {
  StreamSink sink(10.0);  // period 100 ms
  sink.on_unit(unit(0, 0), sim::msec(40));
  sink.on_unit(unit(1, sim::msec(100)), sim::msec(150));
  EXPECT_EQ(sink.stats().delivered, 2);
  EXPECT_DOUBLE_EQ(sink.stats().delay_ms.mean(), (40.0 + 50.0) / 2);
}

TEST(Sink, PerfectCadenceHasZeroJitterAndAllTimely) {
  StreamSink sink(10.0);
  for (int i = 0; i < 20; ++i) {
    sink.on_unit(unit(i), sim::msec(100 * i));
  }
  EXPECT_EQ(sink.stats().delivered, 20);
  EXPECT_EQ(sink.stats().timely, 20);
  EXPECT_EQ(sink.stats().out_of_order, 0);
  EXPECT_DOUBLE_EQ(sink.stats().jitter_ms.mean(), 0.0);
}

TEST(Sink, LateUnitAccruesJitter) {
  StreamSink sink(10.0);
  sink.on_unit(unit(0), 0);
  // Deadline for next: 100 ms. Arrives at 130 ms -> 30 ms jitter.
  sink.on_unit(unit(1), sim::msec(130));
  EXPECT_EQ(sink.stats().delivered, 2);
  // First unit contributes 0, second 30.
  EXPECT_DOUBLE_EQ(sink.stats().jitter_ms.sum(), 30.0);
}

TEST(Sink, EarlyUnitHasNoNegativeJitter) {
  StreamSink sink(10.0);
  sink.on_unit(unit(0), 0);
  sink.on_unit(unit(1), sim::msec(50));  // early
  EXPECT_DOUBLE_EQ(sink.stats().jitter_ms.sum(), 0.0);
}

TEST(Sink, OutOfOrderDetection) {
  // Reorder tolerance 1 period = 100 ms: unit 1 arrives 150 ms after
  // being overtaken by unit 2 -> counted out of order.
  StreamSink sink(10.0);
  sink.on_unit(unit(0), 0);
  sink.on_unit(unit(2), sim::msec(100));
  sink.on_unit(unit(1), sim::msec(250));  // stale beyond the buffer
  EXPECT_EQ(sink.stats().out_of_order, 1);
  EXPECT_EQ(sink.stats().delivered, 3);
  // Unit 1 is not timely either, because it is out of order.
  EXPECT_EQ(sink.stats().timely, 2);
}

TEST(Sink, SlightReorderAbsorbedByPlayoutBuffer) {
  // Unit 1 arrives only 30 ms after unit 2 overtook it: still usable.
  StreamSink sink(10.0);
  sink.on_unit(unit(0), 0);
  sink.on_unit(unit(2), sim::msec(100));
  sink.on_unit(unit(1), sim::msec(130));
  EXPECT_EQ(sink.stats().out_of_order, 0);
  EXPECT_EQ(sink.stats().timely, 3);
}

TEST(Sink, ReorderToleranceZeroIsStrict) {
  StreamSink sink(10.0, /*reorder_tolerance_periods=*/0.0);
  sink.on_unit(unit(0), 0);
  sink.on_unit(unit(2), sim::msec(100));
  sink.on_unit(unit(1), sim::msec(101));
  EXPECT_EQ(sink.stats().out_of_order, 1);
}

TEST(Sink, ToleranceGovernsTimeliness) {
  // kTimelyTolerancePeriods = 1: a unit may arrive up to one period
  // (100 ms) past its deadline and still count as timely.
  StreamSink late(10.0);
  late.on_unit(unit(0), 0);
  late.on_unit(unit(1), sim::msec(230));  // 130 ms late > tolerance
  EXPECT_EQ(late.stats().timely, 1);

  StreamSink within(10.0);
  within.on_unit(unit(0), 0);
  within.on_unit(unit(1), sim::msec(130));  // 30 ms late
  EXPECT_EQ(within.stats().timely, 2);
}

TEST(Sink, StatsMerge) {
  StreamSink a(10.0), b(10.0);
  a.on_unit(unit(0), 0);
  b.on_unit(unit(0), 0);
  b.on_unit(unit(1), sim::msec(500));
  SinkStats total = a.stats();
  total.merge(b.stats());
  EXPECT_EQ(total.delivered, 3);
}

class SourceTest : public ::testing::Test {
 protected:
  SourceTest()
      : net_(sim_, sim::make_uniform_topology(3, 100000.0, sim::usec(10))) {
    net_.set_handler(1, [this](const sim::Packet& p) {
      arrivals_.push_back(
          std::static_pointer_cast<const DataUnit>(p.payload));
    });
    net_.set_handler(2, [this](const sim::Packet& p) {
      arrivals2_.push_back(
          std::static_pointer_cast<const DataUnit>(p.payload));
    });
  }

  sim::Simulator sim_;
  sim::Network net_;
  std::vector<std::shared_ptr<const DataUnit>> arrivals_;
  std::vector<std::shared_ptr<const DataUnit>> arrivals2_;
};

TEST_F(SourceTest, EmitsExpectedCountOnGrid) {
  StreamSource src(sim_, net_, 0, 1, 0, 20.0, 500, {{1, 20.0}});
  src.run(0, sim::sec(1));  // 20 ups for 1 s -> exactly 20 units
  sim_.run_until(sim::sec(2));
  EXPECT_EQ(src.emitted(), 20);
  EXPECT_EQ(arrivals_.size(), 20u);
  // Sequences are consecutive from 0, stage 0, correct size.
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    EXPECT_EQ(arrivals_[i]->seq, std::int64_t(i));
    EXPECT_EQ(arrivals_[i]->stage, 0);
    EXPECT_EQ(arrivals_[i]->size_bytes, 500);
  }
}

TEST_F(SourceTest, StopHaltsEmission) {
  StreamSource src(sim_, net_, 0, 1, 0, 100.0, 100, {{1, 100.0}});
  src.run(0, sim::sec(10));
  sim_.run_until(sim::msec(95));
  src.stop();
  sim_.run_until(sim::sec(1));
  EXPECT_LE(src.emitted(), 11);
}

TEST_F(SourceTest, SplitsAcrossFirstStageByWeight) {
  StreamSource src(sim_, net_, 0, 1, 0, 30.0, 100,
                   {{1, 10.0}, {2, 20.0}});
  src.run(0, sim::sec(10));  // ~300 units (period rounding may add 1)
  sim_.run_until(sim::sec(11));
  EXPECT_NEAR(double(arrivals_.size() + arrivals2_.size()), 300.0, 2.0);
  EXPECT_NEAR(double(arrivals_.size()), 100.0, 3.0);
  EXPECT_NEAR(double(arrivals2_.size()), 200.0, 3.0);
}

TEST_F(SourceTest, ReconfigureReratesAndResplitsInPlace) {
  // The rate adapter's source-split delta: the stream keeps running, the
  // sequence numbers continue, only the rate and the stage-0 split change.
  StreamSource src(sim_, net_, 0, 1, 0, 10.0, 100, {{1, 10.0}});
  src.run(0, sim::sec(2));
  sim_.run_until(sim::sec(1));
  src.reconfigure(40.0, {{2, 40.0}});
  const auto emitted_before = src.emitted();
  EXPECT_NEAR(double(emitted_before), 10.0, 2.0);
  // Let units already in flight toward the old split land.
  sim_.run_until(sim::sec(1) + sim::msec(5));
  const auto to_node1 = arrivals_.size();
  EXPECT_EQ(std::int64_t(to_node1), emitted_before);

  sim_.run_until(sim::sec(3));
  // Nothing new lands on the old target; the remaining second runs at
  // the new rate onto the new split.
  EXPECT_EQ(arrivals_.size(), to_node1);
  EXPECT_NEAR(double(arrivals2_.size()), 40.0, 3.0);
  // Sequences continue from where the old rate left off — no reset, no
  // duplicates (downstream order accounting must stay exact).
  ASSERT_FALSE(arrivals2_.empty());
  EXPECT_EQ(arrivals2_.front()->seq, emitted_before);
  for (std::size_t i = 1; i < arrivals2_.size(); ++i) {
    EXPECT_EQ(arrivals2_[i]->seq, arrivals2_[i - 1]->seq + 1);
  }
}

TEST_F(SourceTest, LateStartIsHonored) {
  StreamSource src(sim_, net_, 0, 1, 0, 10.0, 100, {{1, 10.0}});
  src.run(sim::sec(5), sim::sec(6));
  sim_.run_until(sim::sec(4));
  EXPECT_EQ(src.emitted(), 0);
  sim_.run_until(sim::sec(7));
  EXPECT_EQ(src.emitted(), 10);
}

}  // namespace
}  // namespace rasc::runtime
