// SignalBus: deterministic subscriber draws, delivery fan-out, log CSV.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/bus.hpp"

namespace han::grid {
namespace {

BusConfig config() {
  BusConfig c;
  c.min_latency = sim::seconds(2);
  c.max_latency = sim::seconds(45);
  c.opt_in = 0.7;
  return c;
}

GridSignal shed_at(sim::TimePoint t, std::uint32_t id = 0) {
  GridSignal s;
  s.id = id;
  s.kind = SignalKind::kDrShed;
  s.at = t;
  s.target_kw = 90.0;
  s.shed_kw = 20.0;
  s.period_stretch = 2;
  s.duration = sim::minutes(30);
  return s;
}

TEST(SignalBus, RejectsBadConfig) {
  EXPECT_THROW(SignalBus(config(), 0, sim::Rng(1)), std::invalid_argument);
  BusConfig bad = config();
  bad.max_latency = sim::seconds(1);  // < min
  EXPECT_THROW(SignalBus(bad, 4, sim::Rng(1)), std::invalid_argument);
}

TEST(SignalBus, DrawsAreDeterministicInSeed) {
  const SignalBus a(config(), 32, sim::Rng(7));
  const SignalBus b(config(), 32, sim::Rng(7));
  const SignalBus c(config(), 32, sim::Rng(8));
  bool any_difference = false;
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(a.subscriber(i).latency, b.subscriber(i).latency) << i;
    EXPECT_EQ(a.subscriber(i).opted_in, b.subscriber(i).opted_in) << i;
    if (a.subscriber(i).latency != c.subscriber(i).latency) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(SignalBus, LatenciesWithinBounds) {
  const SignalBus bus(config(), 64, sim::Rng(3));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_GE(bus.subscriber(i).latency, sim::seconds(2));
    EXPECT_LE(bus.subscriber(i).latency, sim::seconds(45));
  }
}

TEST(SignalBus, OptInFractionRoughlyHonored) {
  const SignalBus bus(config(), 200, sim::Rng(5));
  const double frac =
      static_cast<double>(bus.opted_in_count()) / 200.0;
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.85);
}

TEST(SignalBus, ChangingOptInDoesNotPerturbLatencies) {
  BusConfig all = config();
  all.opt_in = 1.0;
  BusConfig none = config();
  none.opt_in = 0.0;
  const SignalBus a(all, 16, sim::Rng(9));
  const SignalBus b(none, 16, sim::Rng(9));
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(a.subscriber(i).latency, b.subscriber(i).latency) << i;
    EXPECT_TRUE(a.subscriber(i).opted_in);
    EXPECT_FALSE(b.subscriber(i).opted_in);
  }
}

TEST(SignalBus, PublishFansOutInPremiseOrder) {
  SignalBus bus(config(), 8, sim::Rng(2));
  const GridSignal s = shed_at(sim::TimePoint::epoch() + sim::minutes(5));
  const auto& deliveries = bus.publish(s);
  ASSERT_EQ(deliveries.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(deliveries[i].premise, i);
    EXPECT_EQ(deliveries[i].signal_id, s.id);
    EXPECT_EQ(deliveries[i].deliver_at,
              s.at + bus.subscriber(i).latency);
  }
  EXPECT_EQ(bus.signals().size(), 1u);
  EXPECT_EQ(bus.log().size(), 8u);
}

TEST(SignalBus, ComplianceNeedsOptInAndAbility) {
  BusConfig all = config();
  all.opt_in = 1.0;
  SignalBus bus(all, 4, sim::Rng(2));
  bus.set_can_comply(2, false);  // e.g. an uncoordinated premise
  const auto& deliveries =
      bus.publish(shed_at(sim::TimePoint::epoch()));
  EXPECT_TRUE(deliveries[0].complied);
  EXPECT_TRUE(deliveries[1].complied);
  EXPECT_FALSE(deliveries[2].complied);
  EXPECT_TRUE(deliveries[3].complied);
}

TEST(SignalBus, LogCsvIsStableAndComplete) {
  BusConfig all = config();
  all.opt_in = 1.0;
  SignalBus bus(all, 2, sim::Rng(4));
  (void)bus.publish(shed_at(sim::TimePoint::epoch() + sim::minutes(10), 0));
  GridSignal clear;
  clear.id = 1;
  clear.kind = SignalKind::kAllClear;
  clear.at = sim::TimePoint::epoch() + sim::minutes(40);
  (void)bus.publish(clear);

  std::ostringstream a;
  std::ostringstream b;
  bus.write_log_csv(a);
  bus.write_log_csv(b);
  EXPECT_EQ(a.str(), b.str());

  // Header + 2 signals x 2 premises.
  std::size_t lines = 0;
  for (char ch : a.str()) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5u);
  EXPECT_NE(a.str().find("dr_shed"), std::string::npos);
  EXPECT_NE(a.str().find("all_clear"), std::string::npos);
}

TEST(SignalBus, LogRowsCarryTheirOwnSignalWhenIdsRepeat) {
  // Two publishes with the same id: each row must carry the fields of
  // the signal that delivered it, not of the first signal with its id.
  BusConfig all = config();
  all.opt_in = 1.0;
  SignalBus bus(all, 2, sim::Rng(4));
  (void)bus.publish(shed_at(sim::TimePoint::epoch() + sim::minutes(10), 7));
  GridSignal clear;
  clear.id = 7;
  clear.kind = SignalKind::kAllClear;
  clear.at = sim::TimePoint::epoch() + sim::minutes(40);
  (void)bus.publish(clear);

  std::vector<std::string> rows;
  std::istringstream in(bus.log_csv());
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 5u);  // header + 2 signals x 2 premises
  EXPECT_EQ(rows[0] + "\n", kSignalLogHeader);
  for (std::size_t r = 1; r <= 2; ++r) {
    EXPECT_EQ(rows[r].rfind("7,dr_shed,10.000,90.000,20.000,2,30.0,", 0),
              0u)
        << rows[r];
  }
  for (std::size_t r = 3; r <= 4; ++r) {
    EXPECT_EQ(rows[r].rfind("7,all_clear,40.000,0.000,0.000,1,0.0,", 0), 0u)
        << rows[r];
  }
  std::ostringstream streamed;
  bus.write_log_csv(streamed);
  EXPECT_EQ(streamed.str(), bus.log_csv());
}

}  // namespace
}  // namespace han::grid
