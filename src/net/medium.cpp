#include "net/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace han::net {

namespace {
/// History entries older than this relative to "now" can never overlap a
/// new transmission (max frame airtime is ~4.3 ms) and are pruned.
constexpr sim::Duration kHistoryHorizon = sim::milliseconds(20);
/// Retired history entries tolerated before compacting the vector.
constexpr std::size_t kCompactMin = 64;
}  // namespace

Medium::Medium(sim::Simulator& sim, const Channel& channel, sim::Rng rng)
    : sim_(sim),
      channel_(channel),
      rng_(rng),
      ci_window_(sim::Duration{1}) {
  // The Glossy CI window is 0.5 us; we round to 1 tick (1 us) — slot-level
  // synchronization in the flood engine guarantees sub-tick alignment.
  radios_.resize(channel.node_count(), nullptr);
  rx_busy_until_.resize(channel.node_count(), sim::TimePoint::epoch());
  group_source_.resize(channel.node_count(), 0);
  set_ci_max_gain_db(ci_max_gain_db_);
}

void Medium::set_ci_max_gain_db(double db) noexcept {
  ci_max_gain_db_ = db;
  ci_max_gain_ = std::pow(10.0, ci_max_gain_db_ / 10.0);
}

void Medium::attach(Radio& radio) {
  assert(radio.id() < radios_.size());
  assert(radios_[radio.id()] == nullptr && "duplicate NodeId");
  radios_[radio.id()] = &radio;
}

void Medium::detach(Radio& radio) noexcept {
  if (radio.id() < radios_.size() && radios_[radio.id()] == &radio) {
    radios_[radio.id()] = nullptr;
  }
}

void Medium::begin_tx(Radio& src, Frame frame, sim::Duration airtime) {
  ++stats_.transmissions;
  frame.source = frame.source == kInvalidNode ? src.id() : frame.source;
  ActiveTx tx;
  tx.src = src.id();
  tx.frame = std::move(frame);
  tx.start = sim_.now();
  tx.end = sim_.now() + airtime;
  const std::uint64_t key = next_tx_key_++;
  history_.push_back(std::move(tx));
  sim_.schedule_at(history_.back().end, [this, key]() { finish_tx(key); });
}

void Medium::finish_tx(std::uint64_t tx_key) {
  // Keys are handed out in history order, so a key's entry sits at its
  // offset from the first key. A transmission is retired only after it
  // ended and was evaluated, so its own end event always finds it live.
  const std::uint64_t offset = tx_key - first_key_;
  if (tx_key < first_key_ || offset < head_ || offset >= history_.size()) {
    throw std::logic_error("Medium::finish_tx: transmission " +
                           std::to_string(tx_key) +
                           " is not in the history at t=" +
                           std::to_string(sim_.now().us()) + " us");
  }
  const auto idx = static_cast<std::size_t>(offset);
  const NodeId src = history_[idx].src;
  if (!history_[idx].evaluated) evaluate_group(idx);
  prune_history();
  // Return the transmitter to Listen (single event for PHY + radio).
  if (src < radios_.size() && radios_[src] != nullptr) {
    radios_[src]->handle_tx_end();
  }
}

void Medium::evaluate_group(std::size_t primary_idx) {
  const ActiveTx& primary = history_[primary_idx];
  const sim::TimePoint primary_start = primary.start;

  // Collect the constructive-interference group: identical content,
  // starts within the CI window of the primary. History is in start
  // order, so the window is a contiguous index range.
  group_.clear();
  sim::TimePoint group_start = primary_start;
  const auto first = std::lower_bound(
      history_.begin() + static_cast<std::ptrdiff_t>(head_), history_.end(),
      primary_start - ci_window_,
      [](const ActiveTx& tx, sim::TimePoint t) { return tx.start < t; });
  for (auto i = static_cast<std::size_t>(first - history_.begin());
       i < history_.size() && history_[i].start <= primary_start + ci_window_;
       ++i) {
    ActiveTx& cand = history_[i];
    if (cand.evaluated) continue;
    if (cand.frame.same_content(primary.frame)) {
      group_.push_back(i);
      group_start = std::min(group_start, cand.start);
      cand.evaluated = true;
    }
  }
  assert(!group_.empty());

  const sim::TimePoint group_end = primary.end;
  const std::size_t psdu_bytes = primary.frame.psdu_bytes();

  // Interference set: any non-group transmission overlapping the group.
  // Nothing starting at or after group_end can overlap it.
  interferers_.clear();
  std::size_t next_member = 0;  // group_ is ascending: merge-skip it
  for (std::size_t i = head_;
       i < history_.size() && history_[i].start < group_end; ++i) {
    if (next_member < group_.size() && group_[next_member] == i) {
      ++next_member;
      continue;
    }
    if (history_[i].end > group_start) interferers_.push_back(i);
  }

  for (std::size_t g : group_) group_source_[history_[g].src] = 1;

  for (NodeId rx = 0; rx < radios_.size(); ++rx) {
    Radio* radio = radios_[rx];
    if (radio == nullptr) continue;
    if (group_source_[rx] != 0) continue;
    // Receiver must have been listening for the whole frame.
    if (radio->state() != Radio::State::kListen) continue;
    if (radio->listening_since() > group_start) continue;
    // Receiver already locked onto another frame in this window?
    if (rx_busy_until_[rx] > group_start) {
      ++stats_.receiver_busy;
      continue;
    }

    double signal_mw = 0.0;
    double strongest_mw = 0.0;
    for (std::size_t g : group_) {
      const double p = channel_.rx_mw(history_[g].src, rx);
      signal_mw += p;
      strongest_mw = std::max(strongest_mw, p);
    }
    // Non-coherent combining gain saturates (see set_ci_max_gain_db).
    signal_mw = std::min(signal_mw, strongest_mw * ci_max_gain_);
    double interference_mw = 0.0;
    for (std::size_t i : interferers_) {
      if (history_[i].src == rx) continue;
      interference_mw += channel_.rx_mw(history_[i].src, rx);
    }

    const double signal_dbm = mw_to_dbm(signal_mw);
    double prr = channel_.prr(signal_dbm, interference_mw, psdu_bytes);
    // Capture limit: against non-identical concurrent frames the
    // receiver needs a minimum SIR to synchronize at all.
    if (interference_mw > 0.0 &&
        signal_dbm - mw_to_dbm(interference_mw) < capture_threshold_db_) {
      prr = 0.0;
    }
    if (group_.size() > 1 && ci_decode_penalty_ > 0.0) {
      prr *= 1.0 - ci_decode_penalty_;
    }
    if (forced_drop_rate_ > 0.0) prr *= 1.0 - forced_drop_rate_;

    if (rng_.bernoulli(prr)) {
      rx_busy_until_[rx] = group_end;
      RxInfo info;
      info.rssi_dbm = signal_dbm;
      info.sfd_time = group_start;
      info.combined_transmitters = group_.size();
      ++stats_.deliveries;
      if (group_.size() > 1) ++stats_.ci_combined;
      // Indexed, not via `primary`: a receiver that transmits from its
      // receive callback appends to (and may reallocate) history_.
      radio->deliver(history_[primary_idx].frame, info);
    } else {
      ++stats_.reception_failures;
    }
  }

  for (std::size_t g : group_) group_source_[history_[g].src] = 0;
}

bool Medium::channel_busy(NodeId listener, double cca_threshold_dbm,
                          sim::Duration ifs) const {
  double inflight_mw = 0.0;
  const sim::TimePoint now = sim_.now();
  for (std::size_t i = head_; i < history_.size(); ++i) {
    const ActiveTx& tx = history_[i];
    if (tx.src == listener) continue;
    if (tx.end <= now) {
      // Ended recently? The IFS rule keeps the channel reserved so the
      // receiver's turnaround + ACK fit before anyone else starts.
      if (tx.end + ifs > now &&
          channel_.rx_power_dbm(tx.src, listener,
                                channel_.params().tx_power_dbm) >
              cca_threshold_dbm) {
        return true;
      }
      continue;
    }
    inflight_mw += channel_.rx_mw(tx.src, listener);
  }
  return mw_to_dbm(inflight_mw) > cca_threshold_dbm;
}

void Medium::prune_history() {
  // Retire the evaluated prefix that ended before the horizon. Entries
  // behind a still-pending transmission wait for it: every pending one
  // started less than one airtime ago, so anything after it in start
  // order has not yet passed the horizon either.
  const sim::TimePoint horizon = sim_.now() - kHistoryHorizon;
  while (head_ < history_.size() && history_[head_].evaluated &&
         history_[head_].end < horizon) {
    ++head_;
  }
  // Compact once the retired prefix is at least half the vector, so
  // each entry is moved O(1) times on average.
  if (head_ >= kCompactMin && 2 * head_ >= history_.size()) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(head_));
    first_key_ += head_;
    head_ = 0;
  }
}

}  // namespace han::net
