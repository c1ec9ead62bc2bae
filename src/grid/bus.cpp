#include "grid/bus.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "metrics/csv.hpp"

namespace han::grid {

namespace {

std::vector<std::size_t> iota_ids(std::size_t n) {
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// What every log row of `s` starts with: the prefix, then signal_id
/// through tier, each followed by a comma.
std::string row_lead(const GridSignal& s, std::string_view row_prefix) {
  std::string lead(row_prefix);
  append_int(lead, s.id);
  lead += ',';
  lead += to_string(s.kind);
  lead += ',';
  metrics::append_fixed(lead, s.at.since_epoch().minutes_f(), 3);
  lead += ',';
  metrics::append_fixed(lead, s.target_kw, 3);
  lead += ',';
  metrics::append_fixed(lead, s.shed_kw, 3);
  lead += ',';
  append_int(lead, s.period_stretch);
  lead += ',';
  metrics::append_fixed(lead, s.duration.minutes_f(), 1);
  lead += ',';
  lead += to_string(s.tier);
  lead += ',';
  return lead;
}

/// Upper bound on a row's bytes after its lead for any realistic
/// premise id and delivery time; only sizes the up-front reservation.
constexpr std::size_t kRowTailBytes = 32;

}  // namespace

SignalBus::SignalBus(BusConfig config, std::size_t premise_count,
                     sim::Rng rng)
    : SignalBus(config, iota_ids(premise_count), rng) {
  if (premise_count == 0) {
    throw std::invalid_argument("SignalBus: premise_count must be > 0");
  }
}

SignalBus::SignalBus(BusConfig config, std::vector<std::size_t> premise_ids,
                     const sim::Rng& rng)
    : ids_(std::move(premise_ids)) {
  if (config.min_latency < sim::Duration::zero() ||
      config.max_latency < config.min_latency) {
    throw std::invalid_argument("SignalBus: bad latency range");
  }
  subscribers_.reserve(ids_.size());
  for (const std::size_t id : ids_) {
    // Keyed by the GLOBAL premise id, so re-sharding the fleet never
    // changes a premise's latency or enrollment.
    sim::Rng draw = rng.stream("premise", id);
    Subscriber s;
    s.latency = sim::microseconds(draw.uniform_int(
        config.min_latency.us(), config.max_latency.us()));
    // Last draw, like the adoption draw in make_spec: bernoulli(0)/(1)
    // consume nothing, so changing opt_in never perturbs the latencies.
    s.opted_in = draw.bernoulli(config.opt_in);
    subscribers_.push_back(s);
  }
}

Subscriber SignalBus::remove_member(std::size_t premise_id) {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), premise_id);
  if (it == ids_.end() || *it != premise_id) {
    throw std::invalid_argument("SignalBus: premise is not a member");
  }
  const auto pos = static_cast<std::size_t>(it - ids_.begin());
  const Subscriber sub = subscribers_[pos];
  ids_.erase(it);
  subscribers_.erase(subscribers_.begin() +
                     static_cast<std::ptrdiff_t>(pos));
  return sub;
}

void SignalBus::add_member(std::size_t premise_id,
                           const Subscriber& subscriber) {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), premise_id);
  if (it != ids_.end() && *it == premise_id) {
    throw std::invalid_argument("SignalBus: premise is already a member");
  }
  const auto pos = static_cast<std::size_t>(it - ids_.begin());
  ids_.insert(it, premise_id);
  subscribers_.insert(subscribers_.begin() + static_cast<std::ptrdiff_t>(pos),
                      subscriber);
}

std::size_t SignalBus::opted_in_count() const noexcept {
  std::size_t n = 0;
  for (const Subscriber& s : subscribers_) {
    if (s.opted_in) ++n;
  }
  return n;
}

const std::vector<Delivery>& SignalBus::publish(const GridSignal& signal) {
  signals_.push_back(signal);
  log_begin_.push_back(log_.size());
  last_published_.clear();
  last_published_.reserve(subscribers_.size());
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    const Subscriber& sub = subscribers_[i];
    Delivery d;
    d.signal_id = signal.id;
    d.premise = ids_[i];
    d.deliver_at = signal.at + sub.latency;
    d.complied = sub.opted_in && sub.can_comply;
    last_published_.push_back(d);
    log_.push_back(d);
  }
  return last_published_;
}

std::string SignalBus::log_csv() const {
  std::string out(kSignalLogHeader);
  append_log_rows(out, {});
  return out;
}

void SignalBus::write_log_csv(std::ostream& os) const {
  const std::string csv = log_csv();
  os.write(csv.data(), static_cast<std::streamsize>(csv.size()));
}

void SignalBus::append_log_rows(std::string& out,
                                std::string_view row_prefix) const {
  // Each signal owns the contiguous block of rows its publish appended,
  // so a row never has to search for its signal.
  const auto block_end = [this](std::size_t i) {
    return i + 1 < signals_.size() ? log_begin_[i + 1] : log_.size();
  };
  std::vector<std::string> leads;
  leads.reserve(signals_.size());
  std::size_t bytes = out.size();
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    leads.push_back(row_lead(signals_[i], row_prefix));
    bytes += (block_end(i) - log_begin_[i]) *
             (leads.back().size() + kRowTailBytes);
  }
  out.reserve(bytes);
  for (std::size_t i = 0; i < signals_.size(); ++i) {
    for (std::size_t r = log_begin_[i]; r < block_end(i); ++r) {
      const Delivery& d = log_[r];
      out += leads[i];
      append_int(out, d.premise);
      out += ',';
      metrics::append_fixed(out, d.deliver_at.since_epoch().minutes_f(), 3);
      out += d.complied ? ",1\n" : ",0\n";
    }
  }
}

}  // namespace han::grid
