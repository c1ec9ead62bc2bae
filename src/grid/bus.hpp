// han::grid — signal delivery from the head end to premises.
//
// Real DR dispatch is neither instant nor universal: AMI backhaul and
// gateway polling add seconds-to-minutes of latency, and premises only
// act if the customer opted into the program. The SignalBus models both
// per premise, drawn deterministically from its own RNG (an independent
// stream of the fleet seed, so enabling the grid layer never perturbs
// the premise draws), and keeps the full delivery/compliance log — the
// artifact the determinism tests compare byte-for-byte across thread
// counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "grid/signal.hpp"
#include "sim/random.hpp"

namespace han::grid {

/// Header line of a feeder's signal/compliance log CSV.
inline constexpr std::string_view kSignalLogHeader =
    "signal_id,kind,emit_min,target_kw,shed_kw,stretch,duration_min,tier,"
    "premise,deliver_min,complied\n";

/// Delivery-model parameters.
struct BusConfig {
  /// Per-premise delivery latency, uniform on [min_latency, max_latency].
  sim::Duration min_latency = sim::seconds(2);
  sim::Duration max_latency = sim::seconds(45);
  /// Probability a premise enrolled in the DR program.
  double opt_in = 1.0;
};

/// One premise's standing subscription.
struct Subscriber {
  sim::Duration latency = sim::Duration::zero();
  bool opted_in = true;
  /// Whether the premise runs a policy that can act on a shed (the
  /// engine sets this: coordinated premises only — the uncoordinated
  /// baseline ignores signals by design).
  bool can_comply = true;
};

/// One (signal, premise) delivery record.
struct Delivery {
  std::uint32_t signal_id = 0;
  std::size_t premise = 0;
  sim::TimePoint deliver_at;
  /// opted_in && can_comply: the premise will act on a shed/all-clear.
  /// Tariff changes are informational and reach every premise
  /// regardless; for them this flag just records DR enrollment.
  bool complied = false;

  bool operator==(const Delivery&) const = default;
};

class SignalBus {
 public:
  /// Serves premises 0..premise_count-1. Draws each premise's latency
  /// and opt-in from `rng` sub-streams.
  SignalBus(BusConfig config, std::size_t premise_count, sim::Rng rng);

  /// Serves an explicit member list (one feeder's shard of a larger
  /// fleet). `premise_ids` are global premise indices, and each
  /// subscriber's latency/opt-in is drawn from `rng`'s per-GLOBAL-id
  /// sub-stream — so a premise keeps the same draws however the fleet
  /// is sharded, and a single shard holding every premise reproduces
  /// the premise_count constructor exactly. May be empty (a feeder with
  /// no customers publishes into the void).
  SignalBus(BusConfig config, std::vector<std::size_t> premise_ids,
            const sim::Rng& rng);

  /// Members served by this bus (== premise count for the whole-fleet
  /// constructor).
  [[nodiscard]] std::size_t premise_count() const noexcept {
    return subscribers_.size();
  }
  /// Global premise id of member `pos`.
  [[nodiscard]] std::size_t premise_id(std::size_t pos) const {
    return ids_.at(pos);
  }
  /// Subscriber at member position `pos` (== global id for the
  /// whole-fleet constructor).
  [[nodiscard]] const Subscriber& subscriber(std::size_t pos) const {
    return subscribers_.at(pos);
  }
  /// Engine hook: premises that cannot act (uncoordinated baseline).
  /// `pos` is the member position, not the global id.
  void set_can_comply(std::size_t pos, bool can_comply) {
    subscribers_.at(pos).can_comply = can_comply;
  }
  [[nodiscard]] std::size_t opted_in_count() const noexcept;

  /// Tie-switch migration: removes global premise `premise_id` from
  /// this bus and returns its subscription (latency / opt-in /
  /// can_comply), so the receiving feeder's bus can carry the
  /// premise's draws over verbatim. Throws if the premise is not a
  /// member. Past log entries stand — they record deliveries that
  /// happened.
  Subscriber remove_member(std::size_t premise_id);
  /// Adds `premise_id` with an existing subscription, keeping the
  /// member list ascending by global id. Throws on a duplicate.
  void add_member(std::size_t premise_id, const Subscriber& subscriber);

  /// Fans `signal` out to every premise in index order, appending to the
  /// log. Returns the deliveries of this signal (same order).
  const std::vector<Delivery>& publish(const GridSignal& signal);

  /// Every signal published so far, in emission order.
  [[nodiscard]] const std::vector<GridSignal>& signals() const noexcept {
    return signals_;
  }
  /// Flat (signal x premise) delivery log, in publish order.
  [[nodiscard]] const std::vector<Delivery>& log() const noexcept {
    return log_;
  }

  /// The signal/compliance log as CSV: kSignalLogHeader, then one row
  /// per delivery carrying the fields of the signal it delivered.
  /// Deterministic formatting; the thread-independence tests compare
  /// this output byte-for-byte.
  [[nodiscard]] std::string log_csv() const;
  /// Streams log_csv().
  void write_log_csv(std::ostream& os) const;

  /// Appends the data rows only (no header), each prefixed with
  /// `row_prefix` — the Substation uses this to join per-feeder logs
  /// under one header with a leading feeder column.
  void append_log_rows(std::string& out, std::string_view row_prefix) const;

 private:
  std::vector<std::size_t> ids_;  // global premise id per member position
  std::vector<Subscriber> subscribers_;
  std::vector<GridSignal> signals_;
  std::vector<Delivery> log_;
  /// Index in log_ of each signal's first delivery: signal i owns rows
  /// [log_begin_[i], log_begin_[i + 1]), the last one up to log_.size().
  std::vector<std::size_t> log_begin_;
  std::vector<Delivery> last_published_;
};

}  // namespace han::grid
