// Channel: path loss, BER/PRR link model, connectivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "net/channel.hpp"
#include "net/topology.hpp"

namespace han::net {
namespace {

ChannelParams clean() {
  ChannelParams p;
  p.shadowing_sigma_db = 0.0;
  return p;
}

TEST(Channel, DbmMwConversions) {
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(10.0), 10.0, 1e-9);
  EXPECT_NEAR(mw_to_dbm(1.0), 0.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-37.5)), -37.5, 1e-9);
  EXPECT_LE(mw_to_dbm(0.0), -250.0);  // clamped, not -inf
}

TEST(Channel, LinkTablesMatchDirectComputationBitForBit) {
  // The tabulated per-link mW must be the very doubles the dBm path
  // converts to, at the configured transmit power, for every ordered
  // pair (diagonal included) of a shadowed 26-node deployment.
  const Topology t = Topology::flocklab26();
  for (const double tx_dbm : {0.0, -7.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 17u, 99u}) {
      sim::Rng rng(seed);
      ChannelParams p;
      p.tx_power_dbm = tx_dbm;
      const Channel ch(t, p, rng);
      for (NodeId a = 0; a < t.size(); ++a) {
        for (NodeId b = 0; b < t.size(); ++b) {
          const double dbm = ch.rx_power_dbm(a, b, p.tx_power_dbm);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(dbm),
                    std::bit_cast<std::uint64_t>(p.tx_power_dbm -
                                                 ch.path_loss_db(a, b)));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(ch.rx_mw(a, b)),
                    std::bit_cast<std::uint64_t>(dbm_to_mw(dbm)))
              << "seed " << seed << " link " << a << "->" << b;
        }
      }
    }
  }
}

TEST(Channel, PathLossTableIsTheLogDistanceExpressionBitForBit) {
  // Without shadowing the table entry is the log-distance expression
  // itself, evaluated in the same order, so it must match to the bit.
  sim::Rng rng(1);
  const Topology t = Topology::flocklab26();
  ChannelParams p;
  p.shadowing_sigma_db = 0.0;
  p.hard_range_m = 12.0;  // exercise the outer-wall branch too
  const Channel ch(t, p, rng);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b = 0; b < t.size(); ++b) {
      double expected = 0.0;
      if (a != b) {
        const double d =
            std::max(t.distance_between(a, b), p.reference_distance_m);
        expected = p.reference_loss_db +
                   10.0 * p.path_loss_exponent *
                       std::log10(d / p.reference_distance_m);
        if (d > p.hard_range_m) expected += p.hard_range_extra_loss_db;
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ch.path_loss_db(a, b)),
                std::bit_cast<std::uint64_t>(expected))
          << "link " << a << "->" << b;
    }
  }
}

TEST(Channel, PathLossGrowsWithDistance) {
  sim::Rng rng(1);
  const Topology t = Topology::line(3, 10.0);
  const Channel ch(t, clean(), rng);
  EXPECT_LT(ch.path_loss_db(0, 1), ch.path_loss_db(0, 2));
}

TEST(Channel, PathLossMatchesLogDistanceFormula) {
  sim::Rng rng(1);
  const Topology t = Topology::line(2, 10.0);
  ChannelParams p = clean();
  const Channel ch(t, p, rng);
  const double expected =
      p.reference_loss_db + 10.0 * p.path_loss_exponent * 1.0;  // log10(10)=1
  EXPECT_NEAR(ch.path_loss_db(0, 1), expected, 1e-9);
}

TEST(Channel, LinksAreSymmetric) {
  sim::Rng rng(3);
  ChannelParams p;
  p.shadowing_sigma_db = 4.0;
  const Topology t = Topology::flocklab26();
  const Channel ch(t, p, rng);
  for (NodeId a = 0; a < 26; a += 5) {
    for (NodeId b = 1; b < 26; b += 7) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(ch.path_loss_db(a, b), ch.path_loss_db(b, a));
    }
  }
}

TEST(Channel, ShadowingIsDeterministicPerSeed) {
  const Topology t = Topology::line(4, 10.0);
  ChannelParams p;
  p.shadowing_sigma_db = 4.0;
  sim::Rng r1(9), r2(9);
  const Channel a(t, p, r1);
  const Channel b(t, p, r2);
  EXPECT_DOUBLE_EQ(a.path_loss_db(0, 3), b.path_loss_db(0, 3));
}

TEST(Channel, BerMonotoneInSinr) {
  double prev = 0.5;
  for (double sinr = -12.0; sinr <= 12.0; sinr += 0.5) {
    const double ber = Channel::ber_oqpsk(sinr);
    EXPECT_LE(ber, prev + 1e-12);
    prev = ber;
  }
  EXPECT_DOUBLE_EQ(Channel::ber_oqpsk(15.0), 0.0);
  EXPECT_DOUBLE_EQ(Channel::ber_oqpsk(-15.0), 0.5);
}

TEST(Channel, PrrCliffAroundSensitivity) {
  sim::Rng rng(1);
  const Topology t = Topology::line(2, 5.0);
  const Channel ch(t, clean(), rng);
  // Strong signal: near-perfect; below the noise floor: near-zero.
  EXPECT_GT(ch.prr(-80.0, 0.0, 64), 0.999);
  EXPECT_LT(ch.prr(-101.0, 0.0, 64), 0.05);
  // The transitional region sits within a few dB of the floor.
  const double mid = ch.prr(-98.5, 0.0, 64);
  EXPECT_GT(mid, 0.05);
  EXPECT_LT(mid, 0.999);
}

TEST(Channel, PrrDecreasesWithFrameLength) {
  sim::Rng rng(1);
  const Topology t = Topology::line(2, 5.0);
  const Channel ch(t, clean(), rng);
  const double short_prr = ch.prr(-94.0, 0.0, 16);
  const double long_prr = ch.prr(-94.0, 0.0, 127);
  EXPECT_GT(short_prr, long_prr);
}

TEST(Channel, InterferenceReducesPrr) {
  sim::Rng rng(1);
  const Topology t = Topology::line(2, 5.0);
  const Channel ch(t, clean(), rng);
  const double quiet = ch.prr(-90.0, 0.0, 64);
  const double noisy = ch.prr(-90.0, dbm_to_mw(-92.0), 64);
  EXPECT_GT(quiet, noisy);
}

TEST(Channel, UsableRangeIsRealistic) {
  sim::Rng rng(1);
  // 8 m apart: solid link; 60 m apart: dead link.
  const Topology t{{{0, 0}, {8, 0}, {60, 0}}};
  const Channel ch(t, clean(), rng);
  EXPECT_TRUE(ch.usable_link(0, 1));
  EXPECT_FALSE(ch.usable_link(0, 2));
}

TEST(Channel, HardRangeWallCutsLink) {
  sim::Rng rng(1);
  ChannelParams p = clean();
  p.hard_range_m = 10.0;
  p.hard_range_extra_loss_db = 60.0;
  const Topology t = Topology::line(2, 12.0);
  const Channel ch(t, p, rng);
  EXPECT_FALSE(ch.usable_link(0, 1));
}

TEST(Channel, ConnectivityMatrixMatchesUsableLink) {
  sim::Rng rng(2);
  const Topology t = Topology::flocklab26();
  const Channel ch(t, clean(), rng);
  const auto adj = ch.connectivity();
  for (NodeId a = 0; a < 26; a += 3) {
    for (NodeId b = 0; b < 26; b += 5) {
      EXPECT_EQ(adj[a][b], ch.usable_link(a, b));
    }
  }
  EXPECT_TRUE(Topology::is_connected(adj));
}

}  // namespace
}  // namespace han::net
