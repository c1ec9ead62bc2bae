#include "grid/substation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace han::grid {

namespace {

/// Resolves the substation bank config against the feeder plans:
/// capacity defaults to the sum of feeder ratings, thermal shape to
/// feeder 0's.
FeederConfig resolve_bank(const SubstationConfig& config,
                          const std::vector<FeederPlan>& plans) {
  if (plans.empty()) {
    throw std::invalid_argument("Substation: needs at least one feeder");
  }
  FeederConfig bank;
  bank.capacity_kw = config.capacity_kw;
  if (bank.capacity_kw <= 0.0) {
    bank.capacity_kw = 0.0;
    for (const FeederPlan& p : plans) bank.capacity_kw += p.feeder.capacity_kw;
  }
  bank.thermal_tau = config.thermal_tau > sim::Duration::zero()
                         ? config.thermal_tau
                         : plans.front().feeder.thermal_tau;
  bank.overload_temp_pu = config.overload_temp_pu > 0.0
                              ? config.overload_temp_pu
                              : plans.front().feeder.overload_temp_pu;
  return bank;
}

}  // namespace

Substation::Substation(SubstationConfig config, std::vector<FeederPlan> plans,
                       const sim::Rng& bus_rng, TieConfig tie)
    : transformer_(resolve_bank(config, plans)), tie_(std::move(tie)) {
  shards_.reserve(plans.size());
  for (FeederPlan& p : plans) {
    for (std::size_t i = 1; i < p.premises.size(); ++i) {
      if (p.premises[i - 1] >= p.premises[i]) {
        throw std::invalid_argument(
            "Substation: feeder premise ids must be ascending");
      }
    }
    shards_.push_back(Shard{
        DemandResponseController(p.feeder, std::move(p.dr)),
        SignalBus(p.bus, p.premises, bus_rng),
        std::move(p.premises),
    });
  }
  if (tie_.enabled) {
    for (const auto& [a, b] : tie_.ties) {
      if (a >= shards_.size() || b >= shards_.size() || a == b) {
        throw std::invalid_argument("Substation: bad tie pair");
      }
    }
    if (tie_.max_transfer_fraction <= 0.0 ||
        tie_.trigger_utilization <= 0.0 ||
        tie_.switch_latency < sim::Duration::zero() ||
        tie_.hold_time < sim::Duration::zero()) {
      throw std::invalid_argument("Substation: bad tie config");
    }
    if (tie_.give_back_utilization >= tie_.trigger_utilization) {
      // The gap between the bands IS the hysteresis: without it a
      // donor still over trigger after the hold would reclaim its
      // premises and re-trigger at the next barrier, ping-ponging the
      // switch every hold_time.
      throw std::invalid_argument(
          "Substation: give_back_utilization must sit below "
          "trigger_utilization");
    }
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      for (const std::size_t p : shards_[k].premises) {
        home_.emplace(p, k);
        serving_.emplace(p, k);
      }
    }
  }
}

std::size_t Substation::home_feeder(std::size_t premise) const {
  const auto it = home_.find(premise);
  if (it == home_.end()) {
    throw std::out_of_range("Substation: unknown premise");
  }
  return it->second;
}

std::size_t Substation::serving_feeder(std::size_t premise) const {
  const auto it = serving_.find(premise);
  if (it == serving_.end()) {
    throw std::out_of_range("Substation: unknown premise");
  }
  return it->second;
}

std::vector<std::size_t> Substation::tied_neighbors(std::size_t feeder) const {
  std::vector<std::size_t> out;
  const std::size_t k = shards_.size();
  if (tie_.ties.empty()) {
    // Derived ring: k-1 and k+1 mod K (one tie for K == 2).
    if (k >= 2) {
      out.push_back((feeder + 1) % k);
      if (k > 2) out.push_back((feeder + k - 1) % k);
    }
  } else {
    for (const auto& [a, b] : tie_.ties) {
      if (a == feeder) out.push_back(b);
      if (b == feeder) out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Substation::plan_transfers(
    sim::TimePoint t, const std::vector<double>& feeder_load_kw,
    const std::function<double(std::size_t)>& premise_load_kw) {
  if (!tie_.enabled || shards_.size() < 2) return;
  const telemetry::Span plan_span(telemetry_,
                                  telemetry::Phase::kTransferPlanning);
  if (feeder_load_kw.size() != shards_.size()) {
    throw std::invalid_argument(
        "Substation::plan_transfers: one load per feeder");
  }

  // Role bookkeeping. A feeder with a PENDING operation (either side)
  // is frozen outright: its load still reflects the pre-actuation
  // membership, so planning against it would double-commit the same
  // kilowatts (or even the same premises). Once a transfer is ACTIVE
  // its effect is in the observed loads, so a donor may lend again
  // (a deeply overloaded shard needs several bites) and a receiver
  // may receive again — but the roles never mix: a borrower cannot
  // donate and a lender cannot borrow, which is what keeps borrowed
  // premises from being re-lent and two feeders from trading load in
  // a cycle.
  std::vector<char> frozen(shards_.size(), 0);
  std::vector<char> lender(shards_.size(), 0);
  std::vector<char> borrower(shards_.size(), 0);
  for (const TieEvent& ev : pending_) {
    frozen[ev.from] = frozen[ev.to] = 1;
  }
  for (const ActiveTransfer& a : active_) {
    lender[a.from] = 1;
    borrower[a.to] = 1;
  }

  // --- Give-backs first: recovery frees capacity for new transfers.
  for (ActiveTransfer& a : active_) {
    // Defer while either end has an operation in flight: the pending
    // actuation is about to change the loads this decision reads.
    if (a.give_back_pending || frozen[a.from] || frozen[a.to]) continue;
    double moved = 0.0;
    for (const std::size_t p : a.premises) moved += premise_load_kw(p);
    const double donor_with_return = feeder_load_kw[a.from] + moved;
    // Normal give-back once the hold expired, with hysteresis: the
    // donor must carry the returned load at/below the give-back band,
    // which sits strictly below the trigger band.
    const bool donor_recovered =
        t >= a.hold_until &&
        donor_with_return <=
            tie_.give_back_utilization * capacity_of(a.from);
    // Emergency give-back, hold or no hold: the borrowed premises now
    // push the RECEIVER over its own trigger band. Holding load on a
    // failing bank is strictly worse than returning it, provided the
    // donor can take it back without immediately re-triggering (if
    // both ends are over trigger there is no good move and the
    // transfer stands). The hold exists to stop churn, not to pin
    // load on the hotter side.
    const bool receiver_distress =
        feeder_load_kw[a.to] >=
            tie_.trigger_utilization * capacity_of(a.to) &&
        donor_with_return < tie_.trigger_utilization * capacity_of(a.from);
    if (!donor_recovered && !receiver_distress) continue;
    TieEvent ev;
    ev.at = t + tie_.switch_latency;
    ev.from = a.to;
    ev.to = a.from;
    ev.give_back = true;
    ev.premises = a.premises;
    ev.moved_kw = moved;
    pending_.push_back(std::move(ev));
    a.give_back_pending = true;
    // The return is now in flight: both ends are frozen for the
    // new-transfer scan below, like any other pending actuation.
    frozen[a.from] = frozen[a.to] = 1;
  }

  // --- New transfers, donors in ascending feeder order.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (frozen[k] || borrower[k]) continue;
    const double cap_k = capacity_of(k);
    if (feeder_load_kw[k] < tie_.trigger_utilization * cap_k) continue;

    // Receiver: the tied neighbor with the most headroom under its cap
    // (ties break toward the lower feeder id via the ascending scan).
    std::size_t best = shards_.size();
    double best_headroom = 0.0;
    for (const std::size_t n : tied_neighbors(k)) {
      if (frozen[n] || lender[n]) continue;
      const double headroom =
          tie_.receiver_cap_utilization * capacity_of(n) - feeder_load_kw[n];
      if (headroom > best_headroom) {
        best = n;
        best_headroom = headroom;
      }
    }
    if (best == shards_.size()) continue;

    const double budget = std::min(
        {feeder_load_kw[k] - tie_.donor_target_utilization * cap_k,
         tie_.max_transfer_fraction * feeder_load_kw[k], best_headroom});
    if (budget <= 0.0) continue;

    // Biggest contributors first (ids break ties), so the fewest
    // premises carry the most relief. The budget — receiver headroom
    // included — is a hard wall: a premise that does not fit whole is
    // skipped and a smaller one may still top the batch up, so the
    // moved load can never exceed the configured fraction of the
    // donor's load (or the receiver's headroom).
    struct Candidate {
      std::size_t premise;
      double kw;
    };
    std::vector<Candidate> candidates;
    for (const std::size_t p : shards_[k].premises) {
      // Only home premises travel — a borrowed premise is never
      // re-lent (and an uninvolved donor holds no borrowed premises).
      if (home_.at(p) != k) continue;
      const double kw = premise_load_kw(p);
      if (kw > 0.0) candidates.push_back({p, kw});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.kw != b.kw) return a.kw > b.kw;
                return a.premise < b.premise;
              });
    TieEvent ev;
    double moved = 0.0;
    for (const Candidate& c : candidates) {
      if (moved + c.kw > budget) continue;
      ev.premises.push_back(c.premise);
      moved += c.kw;
    }
    if (ev.premises.empty()) continue;
    std::sort(ev.premises.begin(), ev.premises.end());
    ev.at = t + tie_.switch_latency;
    ev.from = k;
    ev.to = best;
    ev.moved_kw = moved;
    frozen[k] = frozen[best] = 1;
    pending_.push_back(std::move(ev));
  }
}

std::vector<TieEvent> Substation::apply_due_transfers(sim::TimePoint t) {
  std::vector<TieEvent> out;
  if (pending_.empty()) return out;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    TieEvent& ev = pending_[i];
    if (ev.at > t) {
      if (kept != i) pending_[kept] = std::move(ev);
      ++kept;
      continue;
    }
    // Stamp the actual actuation instant — in polled mode the first
    // barrier at/after the scheduled time, in event mode the barrier
    // the tie deadline itself forced.
    ev.at = t;
    for (const std::size_t p : ev.premises) {
      std::vector<std::size_t>& from = shards_[ev.from].premises;
      from.erase(std::lower_bound(from.begin(), from.end(), p));
      std::vector<std::size_t>& to = shards_[ev.to].premises;
      to.insert(std::lower_bound(to.begin(), to.end(), p), p);
      shards_[ev.to].bus.add_member(p, shards_[ev.from].bus.remove_member(p));
      serving_[p] = ev.to;
    }
    ++tie_stats_.switch_operations;
    tie_stats_.premise_moves += ev.premises.size();
    if (ev.give_back) {
      ++tie_stats_.give_backs;
      active_.erase(std::find_if(active_.begin(), active_.end(),
                                 [&ev](const ActiveTransfer& a) {
                                   return a.give_back_pending &&
                                          a.to == ev.from &&
                                          a.from == ev.to &&
                                          a.premises == ev.premises;
                                 }));
    } else {
      ++tie_stats_.transfers;
      ActiveTransfer a;
      a.from = ev.from;
      a.to = ev.to;
      a.premises = ev.premises;
      a.since = t;
      a.hold_until = t + tie_.hold_time;
      active_.push_back(std::move(a));
    }
    tie_log_.push_back(ev);
    out.push_back(std::move(ev));
  }
  pending_.resize(kept);
  return out;
}

sim::TimePoint Substation::next_tie_deadline(
    sim::TimePoint after) const noexcept {
  sim::TimePoint next = sim::TimePoint::max();
  // Pending actuations are reported even when already due (a
  // zero-latency switch planned at this barrier): the engine clamps
  // barriers to at least one control interval ahead, so a past-due op
  // forces the NEXT barrier — exactly where the polled loop would
  // land it — and is consumed there.
  for (const TieEvent& ev : pending_) next = std::min(next, ev.at);
  for (const ActiveTransfer& a : active_) {
    // A hold expiry is only a deadline while the give-back decision is
    // still open, and only until it passes.
    if (!a.give_back_pending && a.hold_until > after) {
      next = std::min(next, a.hold_until);
    }
  }
  return next;
}

std::size_t Substation::premise_count() const noexcept {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.premises.size();
  return n;
}

std::vector<GridSignal> Substation::observe_feeder(std::size_t feeder,
                                                   sim::TimePoint t,
                                                   double load_kw) {
  std::vector<GridSignal> out = shards_.at(feeder).controller.observe(t, load_kw);
  for (GridSignal& s : out) s.feeder = static_cast<std::uint32_t>(feeder);
  return out;
}

std::vector<GridSignal> Substation::on_crossing(std::size_t feeder,
                                                const Observation& obs) {
  std::vector<GridSignal> out = shards_.at(feeder).controller.on_crossing(obs);
  for (GridSignal& s : out) s.feeder = static_cast<std::uint32_t>(feeder);
  return out;
}

std::vector<GridSignal> Substation::on_timer(std::size_t feeder,
                                             const Observation& obs) {
  std::vector<GridSignal> out = shards_.at(feeder).controller.on_timer(obs);
  for (GridSignal& s : out) s.feeder = static_cast<std::uint32_t>(feeder);
  return out;
}

void Substation::observe_total(sim::TimePoint t, double load_kw) {
  transformer_.observe(t, load_kw);
}

namespace {

std::string multi_feeder_header() {
  std::string header = "feeder,";
  header += kSignalLogHeader;
  return header;
}

std::string feeder_prefix(std::size_t k) {
  std::string prefix = std::to_string(k);
  prefix += ',';
  return prefix;
}

}  // namespace

void Substation::write_log_csv(std::ostream& os) const {
  if (shards_.size() == 1) {
    // Byte-for-byte the single-feeder format the PR 2 determinism
    // artifacts compare against.
    shards_.front().bus.write_log_csv(os);
    return;
  }
  std::string csv = multi_feeder_header();
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k].bus.append_log_rows(csv, feeder_prefix(k));
  }
  os.write(csv.data(), static_cast<std::streamsize>(csv.size()));
}

std::string join_feeder_logs(const std::vector<std::string_view>& feeder_logs) {
  for (const std::string_view log : feeder_logs) {
    if (!log.starts_with(kSignalLogHeader)) {
      throw std::invalid_argument("join_feeder_logs: not a feeder log");
    }
  }
  if (feeder_logs.size() == 1) return std::string(feeder_logs.front());
  const auto rows = [&feeder_logs](std::size_t k) {
    return feeder_logs[k].substr(kSignalLogHeader.size());
  };
  std::string out = multi_feeder_header();
  std::size_t bytes = out.size();
  for (std::size_t k = 0; k < feeder_logs.size(); ++k) {
    const auto lines = std::count(rows(k).begin(), rows(k).end(), '\n');
    bytes += rows(k).size() +
             static_cast<std::size_t>(lines) * feeder_prefix(k).size();
  }
  out.reserve(bytes);
  for (std::size_t k = 0; k < feeder_logs.size(); ++k) {
    const std::string prefix = feeder_prefix(k);
    for (std::string_view rest = rows(k); !rest.empty();) {
      const std::size_t len = std::min(rest.find('\n'), rest.size() - 1) + 1;
      out += prefix;
      out += rest.substr(0, len);
      rest.remove_prefix(len);
    }
  }
  return out;
}

}  // namespace han::grid
