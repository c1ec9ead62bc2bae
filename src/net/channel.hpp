// han::net — radio propagation and link quality model.
//
// Log-distance path loss with static per-link log-normal shadowing,
// plus the 802.15.4 2.4 GHz O-QPSK/DSSS bit-error model of Zuniga &
// Krishnamachari ("Analyzing the transitional region in low power
// wireless links", SECON'04), which is the standard way to turn SINR
// into a packet reception ratio for CC2420-class radios.
//
// Shadowing is drawn once per (unordered) link at construction and held
// fixed, modelling walls/furniture of the office deployment; this keeps
// runs deterministic and links symmetric. Path loss is therefore fixed
// per link too, and is tabulated at construction together with the
// received power in mW at the configured transmit power, which the
// medium reads for every receiver of every frame.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"

namespace han::net {

/// Tunable propagation parameters. Defaults approximate an indoor office
/// at 2.4 GHz with CC2420-class radios.
struct ChannelParams {
  double path_loss_exponent = 4.0;   // obstructed indoor (walls, furniture)
  double reference_loss_db = 46.0;   // PL(d0) at d0 = 1 m
  double reference_distance_m = 1.0;
  double shadowing_sigma_db = 3.0;   // per-link, static
  /// Effective noise floor including receiver implementation loss; puts
  /// the reception cliff near the CC2420's -95 dBm sensitivity.
  double noise_floor_dbm = -98.0;
  double tx_power_dbm = 0.0;         // CC2420 maximum
  /// Extra loss applied beyond this distance to emulate outer walls;
  /// keeps the far corners of a floor from hearing each other directly.
  double hard_range_m = 1e9;
  double hard_range_extra_loss_db = 40.0;
};

/// dBm <-> mW conversions.
[[nodiscard]] double dbm_to_mw(double dbm) noexcept;
[[nodiscard]] double mw_to_dbm(double mw) noexcept;

/// Immutable per-deployment channel: pairwise attenuation plus the
/// SINR -> PRR link model.
class Channel {
 public:
  /// Draws the static shadowing for every link from `rng` ("channel"
  /// stream recommended).
  Channel(const Topology& topo, const ChannelParams& params, sim::Rng& rng);

  [[nodiscard]] const ChannelParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// Received power at `rx` for a transmission by `tx` at `tx_dbm`.
  [[nodiscard]] double rx_power_dbm(NodeId tx, NodeId rx,
                                    double tx_dbm) const;

  /// dbm_to_mw(rx_power_dbm(tx, rx, params().tx_power_dbm)), from the
  /// construction-time table (the same double the call returns).
  [[nodiscard]] double rx_mw(NodeId tx, NodeId rx) const noexcept {
    return rx_mw_[link_index(tx, rx)];
  }

  /// Path loss (dB) on the (tx, rx) link, shadowing included.
  [[nodiscard]] double path_loss_db(NodeId tx, NodeId rx) const;

  /// Packet reception ratio for a signal at `signal_dbm` against
  /// `interference_mw` (linear mW, excluding noise) for a PSDU of
  /// `psdu_bytes` bytes.
  [[nodiscard]] double prr(double signal_dbm, double interference_mw,
                           std::size_t psdu_bytes) const;

  /// Bit error rate at the given SINR (dB) for 802.15.4 O-QPSK/DSSS.
  [[nodiscard]] static double ber_oqpsk(double sinr_db) noexcept;

  /// Convenience: single-transmitter PRR with no interference.
  [[nodiscard]] double link_prr(NodeId tx, NodeId rx,
                                std::size_t psdu_bytes) const;

  /// True if the link delivers >= `threshold` PRR for a typical frame
  /// (used to derive the connectivity graph for analysis/tests).
  [[nodiscard]] bool usable_link(NodeId tx, NodeId rx,
                                 double threshold = 0.9,
                                 std::size_t psdu_bytes = 64) const;

  /// Connectivity matrix under usable_link().
  [[nodiscard]] std::vector<std::vector<bool>> connectivity(
      double threshold = 0.9, std::size_t psdu_bytes = 64) const;

 private:
  [[nodiscard]] std::size_t link_index(NodeId a, NodeId b) const noexcept {
    return static_cast<std::size_t>(a) * n_ + static_cast<std::size_t>(b);
  }

  std::size_t n_ = 0;
  ChannelParams params_;
  std::vector<double> path_loss_db_;  // n*n, symmetric, 0 on diagonal
  std::vector<double> rx_mw_;         // n*n, at params_.tx_power_dbm
};

}  // namespace han::net
