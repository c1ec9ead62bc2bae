#include "net/channel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace han::net {

double dbm_to_mw(double dbm) noexcept { return std::pow(10.0, dbm / 10.0); }

double mw_to_dbm(double mw) noexcept {
  // Clamp to avoid -inf for a zero signal; -300 dBm is "nothing".
  return mw <= 1e-30 ? -300.0 : 10.0 * std::log10(mw);
}

Channel::Channel(const Topology& topo, const ChannelParams& params,
                 sim::Rng& rng)
    : n_(topo.size()), params_(params) {
  path_loss_db_.assign(n_ * n_, 0.0);
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = a + 1; b < n_; ++b) {
      const double d =
          std::max(topo.distance_between(static_cast<NodeId>(a),
                                         static_cast<NodeId>(b)),
                   params_.reference_distance_m);
      const double sh = rng.normal(0.0, params_.shadowing_sigma_db);
      double pl = params_.reference_loss_db +
                  10.0 * params_.path_loss_exponent *
                      std::log10(d / params_.reference_distance_m) +
                  sh;
      if (d > params_.hard_range_m) pl += params_.hard_range_extra_loss_db;
      path_loss_db_[a * n_ + b] = path_loss_db_[b * n_ + a] = pl;
    }
  }
  rx_mw_.resize(n_ * n_);
  for (std::size_t i = 0; i < n_ * n_; ++i) {
    rx_mw_[i] = dbm_to_mw(params_.tx_power_dbm - path_loss_db_[i]);
  }
}

double Channel::path_loss_db(NodeId tx, NodeId rx) const {
  assert(tx < n_ && rx < n_);
  return path_loss_db_[link_index(tx, rx)];
}

double Channel::rx_power_dbm(NodeId tx, NodeId rx, double tx_dbm) const {
  return tx_dbm - path_loss_db(tx, rx);
}

double Channel::ber_oqpsk(double sinr_db) noexcept {
  // Zuniga & Krishnamachari: BER for 802.15.4 O-QPSK with DSSS,
  //   BER = (8/15) * (1/16) * sum_{k=2}^{16} (-1)^k C(16,k) exp(20*SNR*(1/k - 1))
  // with SNR linear. Clamp extremes for numeric stability.
  if (sinr_db > 12.0) return 0.0;
  if (sinr_db < -12.0) return 0.5;
  const double snr = std::pow(10.0, sinr_db / 10.0);
  static constexpr double kBinom16[17] = {
      1,    16,   120,  560,  1820, 4368, 8008, 11440, 12870,
      11440, 8008, 4368, 1820, 560,  120,  16,   1};
  double acc = 0.0;
  for (int k = 2; k <= 16; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    acc += sign * kBinom16[k] * std::exp(20.0 * snr * (1.0 / k - 1.0));
  }
  const double ber = (8.0 / 15.0) * (1.0 / 16.0) * acc;
  return std::clamp(ber, 0.0, 0.5);
}

double Channel::prr(double signal_dbm, double interference_mw,
                    std::size_t psdu_bytes) const {
  const double noise_mw = dbm_to_mw(params_.noise_floor_dbm);
  const double sinr_db =
      signal_dbm - mw_to_dbm(noise_mw + interference_mw);
  const double ber = ber_oqpsk(sinr_db);
  if (ber >= 0.5) return 0.0;
  // Independent bit errors over the PSDU plus the 6-byte synchronization
  // header (whose loss also kills the frame).
  const double bits = 8.0 * static_cast<double>(psdu_bytes + 6);
  return std::pow(1.0 - ber, bits);
}

double Channel::link_prr(NodeId tx, NodeId rx, std::size_t psdu_bytes) const {
  if (tx == rx) return 0.0;
  return prr(rx_power_dbm(tx, rx, params_.tx_power_dbm), 0.0, psdu_bytes);
}

bool Channel::usable_link(NodeId tx, NodeId rx, double threshold,
                          std::size_t psdu_bytes) const {
  return tx != rx && link_prr(tx, rx, psdu_bytes) >= threshold;
}

std::vector<std::vector<bool>> Channel::connectivity(
    double threshold, std::size_t psdu_bytes) const {
  std::vector<std::vector<bool>> adj(n_, std::vector<bool>(n_, false));
  for (std::size_t a = 0; a < n_; ++a) {
    for (std::size_t b = 0; b < n_; ++b) {
      if (a != b) {
        adj[a][b] = usable_link(static_cast<NodeId>(a), static_cast<NodeId>(b),
                                threshold, psdu_bytes);
      }
    }
  }
  return adj;
}

}  // namespace han::net
