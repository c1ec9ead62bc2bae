// Radio state machine, energy accounting, and medium arbitration
// (capture, CI combining, busy receivers, fault injection).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "net/channel.hpp"
#include "net/medium.hpp"
#include "net/radio.hpp"
#include "net/topology.hpp"

namespace han::net {
namespace {

struct Rig {
  explicit Rig(Topology topo, ChannelParams cp = clean(), std::uint64_t seed = 1)
      : topo_(std::move(topo)),
        rng_(seed),
        channel_(topo_, cp, rng_),
        medium_(sim_, channel_, rng_.stream("medium")) {
    for (std::size_t i = 0; i < topo_.size(); ++i) {
      radios_.push_back(
          std::make_unique<Radio>(sim_, medium_, static_cast<NodeId>(i)));
    }
  }

  static ChannelParams clean() {
    ChannelParams p;
    p.shadowing_sigma_db = 0.0;
    return p;
  }

  Frame frame(std::size_t len = 20) {
    Frame f;
    f.kind = FrameKind::kGlossyFlood;
    f.payload.assign(len, 0x5A);
    return f;
  }

  sim::Simulator sim_;
  Topology topo_;
  sim::Rng rng_;
  Channel channel_;
  Medium medium_;
  std::vector<std::unique_ptr<Radio>> radios_;
};

TEST(Radio, FrameAirtime) {
  EXPECT_EQ(frame_airtime(0).us(), 6 * 32);
  EXPECT_EQ(frame_airtime(127).us(), (127 + 6) * 32);
}

TEST(Radio, StateTransitions) {
  Rig rig(Topology::line(2, 5.0));
  Radio& r = *rig.radios_[0];
  EXPECT_EQ(r.state(), Radio::State::kOff);
  r.listen();
  EXPECT_EQ(r.state(), Radio::State::kListen);
  r.transmit(rig.frame());
  EXPECT_EQ(r.state(), Radio::State::kTx);
  rig.sim_.run();
  EXPECT_EQ(r.state(), Radio::State::kListen);
  r.turn_off();
  EXPECT_EQ(r.state(), Radio::State::kOff);
}

TEST(Radio, TxDoneHandlerFires) {
  Rig rig(Topology::line(2, 5.0));
  bool done = false;
  rig.radios_[0]->set_tx_done_handler([&] { done = true; });
  rig.radios_[0]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_TRUE(done);
}

TEST(Medium, DeliversToListeningNeighbor) {
  Rig rig(Topology::line(2, 5.0));
  int got = 0;
  rig.radios_[1]->listen();
  rig.radios_[1]->set_receive_handler(
      [&](const Frame& f, const RxInfo& info) {
        ++got;
        EXPECT_EQ(f.source, 0);
        EXPECT_GT(info.rssi_dbm, -95.0);
      });
  rig.radios_[0]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rig.medium_.stats().deliveries, 1u);
}

TEST(Medium, NoDeliveryWhenRadioOff) {
  Rig rig(Topology::line(2, 5.0));
  int got = 0;
  rig.radios_[1]->set_receive_handler(
      [&](const Frame&, const RxInfo&) { ++got; });
  rig.radios_[0]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_EQ(got, 0);
}

TEST(Medium, LateListenerMissesFrame) {
  Rig rig(Topology::line(2, 5.0));
  int got = 0;
  rig.radios_[1]->set_receive_handler(
      [&](const Frame&, const RxInfo&) { ++got; });
  rig.radios_[0]->transmit(rig.frame());
  // Start listening a bit into the frame: header already missed.
  rig.sim_.schedule_after(sim::microseconds(100),
                          [&] { rig.radios_[1]->listen(); });
  rig.sim_.run();
  EXPECT_EQ(got, 0);
}

TEST(Medium, OutOfRangeNotDelivered) {
  Rig rig(Topology::line(2, 500.0));
  int got = 0;
  rig.radios_[1]->listen();
  rig.radios_[1]->set_receive_handler(
      [&](const Frame&, const RxInfo&) { ++got; });
  rig.radios_[0]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(rig.medium_.stats().reception_failures, 1u);
}

TEST(Medium, IdenticalConcurrentFramesCombine) {
  // Nodes 0 and 2 transmit the same content simultaneously; node 1 in
  // the middle decodes the CI-combined signal.
  Rig rig(Topology::line(3, 8.0));
  int got = 0;
  std::size_t combined = 0;
  rig.radios_[1]->listen();
  rig.radios_[1]->set_receive_handler(
      [&](const Frame&, const RxInfo& info) {
        ++got;
        combined = info.combined_transmitters;
      });
  rig.radios_[0]->transmit(rig.frame());
  rig.radios_[2]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_EQ(got, 1);  // one delivery, not two
  EXPECT_EQ(combined, 2u);
  EXPECT_EQ(rig.medium_.stats().ci_combined, 1u);
}

TEST(Medium, CiWindowBoundaryIsInclusive) {
  // Identical frames combine when their starts are at most ci_window
  // apart, and are separate (colliding, equal-power) frames one tick
  // beyond it.
  const auto run = [](sim::Duration skew) {
    Rig rig(Topology::line(3, 8.0));
    int got = 0;
    std::size_t combined = 0;
    rig.radios_[1]->listen();
    rig.radios_[1]->set_receive_handler(
        [&](const Frame&, const RxInfo& info) {
          ++got;
          combined = info.combined_transmitters;
        });
    rig.radios_[0]->transmit(rig.frame());
    rig.sim_.schedule_after(skew, [&] { rig.radios_[2]->transmit(rig.frame()); });
    rig.sim_.run();
    return std::tuple{got, combined, rig.medium_.stats().ci_combined};
  };
  Rig probe(Topology::line(3, 8.0));
  const sim::Duration w = probe.medium_.ci_window();
  EXPECT_EQ(run(w), std::tuple(1, std::size_t{2}, std::uint64_t{1}));
  EXPECT_EQ(run(w + sim::microseconds(1)),
            std::tuple(0, std::size_t{0}, std::uint64_t{0}));
}

TEST(Medium, DifferentContentCollides) {
  // Equal-power different-content frames at the middle node: SINR ~0 dB
  // per frame => neither decodes.
  Rig rig(Topology::line(3, 8.0));
  int got = 0;
  rig.radios_[1]->listen();
  rig.radios_[1]->set_receive_handler(
      [&](const Frame&, const RxInfo&) { ++got; });
  Frame a = rig.frame();
  Frame b = rig.frame();
  b.payload[0] = 0xFF;
  rig.radios_[0]->transmit(a);
  rig.radios_[2]->transmit(b);
  rig.sim_.run();
  EXPECT_EQ(got, 0);
}

TEST(Medium, StrongerFrameCapturesWeaker) {
  // Node 1 sits next to node 0 (5 m) and far from node 2 (45 m): the
  // strong frame should capture despite the concurrent weak one.
  Rig rig(Topology{{{0, 0}, {5, 0}, {50, 0}}});
  int got = 0;
  rig.radios_[1]->listen();
  rig.radios_[1]->set_receive_handler(
      [&](const Frame& f, const RxInfo&) {
        ++got;
        EXPECT_EQ(f.source, 0);
      });
  Frame strong = rig.frame();
  Frame weak = rig.frame();
  weak.payload[0] = 0xFF;
  rig.radios_[0]->transmit(strong);
  rig.radios_[2]->transmit(weak);
  rig.sim_.run();
  EXPECT_EQ(got, 1);
}

TEST(Medium, CiGainIsCapped) {
  // Many equidistant same-content transmitters must not produce
  // unbounded combining gain: a far receiver still fails.
  Topology::LinkPredicate unused{};
  (void)unused;
  std::vector<Point> pts;
  for (int i = 0; i < 8; ++i) pts.push_back({static_cast<double>(i), 0.0});
  pts.push_back({60.0, 0.0});  // far receiver
  Rig rig(Topology{std::move(pts)});
  int got = 0;
  rig.radios_[8]->listen();
  rig.radios_[8]->set_receive_handler(
      [&](const Frame&, const RxInfo&) { ++got; });
  for (int i = 0; i < 8; ++i) rig.radios_[static_cast<NodeId>(i)]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_EQ(got, 0);
}

TEST(Medium, ForcedDropRateDropsEverything) {
  Rig rig(Topology::line(2, 5.0));
  rig.medium_.set_forced_drop_rate(1.0);
  int got = 0;
  rig.radios_[1]->listen();
  rig.radios_[1]->set_receive_handler(
      [&](const Frame&, const RxInfo&) { ++got; });
  rig.radios_[0]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_EQ(got, 0);
}

TEST(Medium, BusyReceiverSkipsSecondFrame) {
  // Frame B (from farther away, overlapping A) must not be decoded:
  // the receiver locks onto the stronger A and is busy for B's header.
  Rig rig(Topology{{{0, 0}, {5, 0}, {17, 0}}});
  int got = 0;
  rig.radios_[1]->listen();
  rig.radios_[1]->set_receive_handler(
      [&](const Frame& f, const RxInfo&) {
        ++got;
        EXPECT_EQ(f.source, 0);
      });
  Frame a = rig.frame();
  Frame b = rig.frame(60);
  b.payload[0] = 0x11;
  rig.radios_[0]->transmit(a);
  // Overlap: B starts before A's end.
  rig.sim_.schedule_after(sim::microseconds(200), [&] {
    rig.radios_[2]->transmit(b);
  });
  rig.sim_.run();
  // A decodes (strong, first, SIR above capture threshold); B fails.
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rig.medium_.stats().receiver_busy, 1u);
}

TEST(Radio, EnergyMeterAccumulates) {
  EnergyMeter m;
  m.accumulate(1, sim::seconds(3600));  // 1 h listening
  EXPECT_NEAR(m.total_mah(), 18.8, 1e-6);
  EXPECT_NEAR(m.total_mj(), 18.8 * 3600 * 3.0, 1e-3);
  EXPECT_NEAR(m.duty_cycle(), 1.0, 1e-12);
  m.accumulate(0, sim::seconds(3600));
  EXPECT_NEAR(m.duty_cycle(), 0.5, 1e-12);
}

TEST(Radio, CountersTrackTraffic) {
  Rig rig(Topology::line(2, 5.0));
  rig.radios_[1]->listen();
  rig.radios_[0]->transmit(rig.frame());
  rig.sim_.run();
  EXPECT_EQ(rig.radios_[0]->frames_sent(), 1u);
  EXPECT_EQ(rig.radios_[1]->frames_received(), 1u);
}

}  // namespace
}  // namespace han::net
