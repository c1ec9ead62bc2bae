// han::net — the shared wireless medium.
//
// The Medium arbitrates all transmissions of one deployment. When a
// transmission ends it decides, per listening radio, whether the frame
// was received, applying:
//
//  * log-distance path loss + shadowing (Channel),
//  * constructive interference: concurrent transmissions of *identical*
//    content whose starts fall within the CI window (0.5 us, per the
//    Glossy literature) combine non-coherently (powers add) and are
//    decoded as one signal;
//  * capture: non-identical overlapping transmissions contribute to the
//    interference term of the SINR; a receiver decodes at most one frame
//    per busy period (first successfully-decoded group wins).
//
// Reception outcomes are Bernoulli draws from the SINR->PRR link model,
// using a dedicated deterministic RNG stream.
//
// Transmissions are kept in a history vector in start-time order (each
// is appended when it starts, at now()). A transmission is retired once
// its CI group has been evaluated and it ended more than the overlap
// horizon ago; retired entries form a prefix that a head index skips and
// that is compacted away occasionally. The ordering lets a frame find
// its CI group by binary search on start time, stop its interferer scan
// at the first transmission starting after it ended, and be found at its
// end by its key's offset from the head.
#pragma once

#include <cstdint>
#include <vector>

#include "net/channel.hpp"
#include "net/packet.hpp"
#include "net/radio.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace han::net {

/// Statistics the medium keeps about PHY-layer outcomes.
struct MediumStats {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;         // successful frame receptions
  std::uint64_t reception_failures = 0; // listening but PRR draw failed
  std::uint64_t receiver_busy = 0;      // lost because locked on another frame
  std::uint64_t ci_combined = 0;        // deliveries decoded from >1 TX
};

/// Shared medium for one deployment.
class Medium {
 public:
  /// `rng` should be the deployment's "medium" stream; the Channel is
  /// owned elsewhere and must outlive the Medium.
  Medium(sim::Simulator& sim, const Channel& channel, sim::Rng rng);

  /// Radios register themselves at construction (called by Radio).
  void attach(Radio& radio);
  void detach(Radio& radio) noexcept;

  /// Called by Radio::transmit. `airtime` covers header + PSDU.
  void begin_tx(Radio& src, Frame frame, sim::Duration airtime);

  /// Width of the constructive-interference window.
  [[nodiscard]] sim::Duration ci_window() const noexcept { return ci_window_; }
  void set_ci_window(sim::Duration w) noexcept { ci_window_ = w; }

  /// Probability that a CI-combined decode fails for reasons the SINR
  /// model does not capture (residual carrier-frequency offset etc.).
  /// Applied per reception in addition to the PRR draw.
  void set_ci_decode_penalty(double p) noexcept { ci_decode_penalty_ = p; }

  /// Cap on the power gain from non-coherent CI combining relative to
  /// the strongest transmitter (measurements on Glossy-class systems
  /// report 0-3 dB; summing many relays unbounded would be unphysical).
  void set_ci_max_gain_db(double db) noexcept;

  /// Minimum signal-to-interference ratio for a frame to be decodable
  /// against non-identical concurrent frames (co-channel rejection of
  /// CC2420-class receivers is ~3 dB). Noise is handled by the BER
  /// model; this models the capture/synchronization limit.
  void set_capture_threshold_db(double db) noexcept {
    capture_threshold_db_ = db;
  }

  /// Forces an additional independent drop probability on every
  /// reception (fault injection for robustness experiments).
  void set_forced_drop_rate(double p) noexcept { forced_drop_rate_ = p; }

  [[nodiscard]] const MediumStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Channel& channel() const noexcept { return channel_; }

  /// Clear-channel assessment at `listener`: true when the summed power
  /// of in-flight transmissions exceeds `cca_threshold_dbm` (energy
  /// detect, CCA mode 1), or when audible activity ended less than
  /// `ifs` ago (the 802.15.4 interframe-spacing rule — this is what
  /// keeps contenders out of the turnaround gap in which ACKs start).
  /// Used by the CSMA/CA MAC.
  [[nodiscard]] bool channel_busy(
      NodeId listener, double cca_threshold_dbm = -87.0,
      sim::Duration ifs = sim::microseconds(640)) const;

 private:
  struct ActiveTx {
    NodeId src = kInvalidNode;
    Frame frame;
    sim::TimePoint start;
    sim::TimePoint end;
    bool evaluated = false;  // set once its CI group has been delivered
  };

  void finish_tx(std::uint64_t tx_key);
  void evaluate_group(std::size_t primary_idx);
  void prune_history();

  sim::Simulator& sim_;
  const Channel& channel_;
  sim::Rng rng_;
  std::vector<Radio*> radios_;        // indexed by NodeId
  /// Transmissions in start-time order; [0, head_) are retired.
  std::vector<ActiveTx> history_;
  std::size_t head_ = 0;
  std::uint64_t first_key_ = 1;       // key of history_[0]
  std::uint64_t next_tx_key_ = 1;     // key of the next begin_tx
  std::vector<sim::TimePoint> rx_busy_until_;  // per receiver decode lock
  // evaluate_group scratch, kept to reuse its capacity.
  std::vector<std::size_t> group_;        // CI group, ascending index
  std::vector<std::size_t> interferers_;  // ascending index
  std::vector<std::uint8_t> group_source_;  // per NodeId: transmits in group_
  sim::Duration ci_window_ = sim::Duration{0};  // set in ctor (0.5 us)
  double ci_decode_penalty_ = 0.0;
  double ci_max_gain_db_ = 3.0;
  double ci_max_gain_ = 0.0;  // 10^(ci_max_gain_db_/10), set in ctor
  double capture_threshold_db_ = 3.0;
  double forced_drop_rate_ = 0.0;
  MediumStats stats_;
};

}  // namespace han::net
