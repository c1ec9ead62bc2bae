// The traced pass: end-to-end runs under spans plus one unit of work
// per layer, measured on inputs shaped by the workload (specs from its
// engine, its largest feeder, its recorded loads, signals and delivery
// counts). Spans are recorded only here, around the benchmark's own
// calls into each layer, kept in memory and written out at the end.
//
// Every per-layer metric is emitted on every workload so traced outputs
// line up; NOTES.md says on which workload each one is meant to be read.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "fidelity/backend.hpp"
#include "grid/bus.hpp"
#include "grid/controller.hpp"
#include "grid/substation.hpp"
#include "metrics/hotspot.hpp"
#include "metrics/stream_aggregate.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

namespace fid = han::fidelity;
namespace grid = han::grid;
namespace hm = han::metrics;
namespace tel = han::telemetry;

// --- spans ----------------------------------------------------------------

/// In-memory span recorder: (name, start, end, parent). Spans nest
/// strictly (one thread opens and closes them), so a span's self time is
/// its duration minus its direct children's.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
  };

  /// RAII scope of one span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.open(std::move(name))) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Prints every span with its total and self time.
  void print() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::printf("spans (total ms / self ms):\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      int depth = 0;
      for (int p = spans_[i].parent; p >= 0;
           p = spans_[static_cast<std::size_t>(p)].parent) {
        ++depth;
      }
      const std::uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
      std::printf("  %*s%-40s %10.3f %10.3f\n", 2 * depth, "",
                  spans_[i].name.c_str(), static_cast<double>(total) * 1e-6,
                  static_cast<double>(total - child_ns[i]) * 1e-6);
    }
  }

  /// Writes the spans as a JSON array (times in microseconds from the
  /// first span's start).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      return;
    }
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].start_ns;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_us\": "
          << static_cast<double>(s.start_ns - origin) * 1e-3
          << ", \"end_us\": " << static_cast<double>(s.end_ns - origin) * 1e-3
          << ", \"parent\": " << s.parent << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- measurement helpers --------------------------------------------------

/// Repeats `rep` (which returns {timed ns, units of work}) until the
/// timed total reaches `budget_ns` (at least once, at most `max_reps`
/// times) and returns the median ns per unit over the repetitions.
template <class Rep>
double ns_per_unit(Rep&& rep, std::uint64_t budget_ns = 50'000'000,
                   int max_reps = 1000) {
  std::vector<double> per_unit;
  std::uint64_t spent = 0;
  while (per_unit.empty() ||
         (spent < budget_ns && static_cast<int>(per_unit.size()) < max_reps)) {
    const auto [ns, units] = rep();
    spent += ns;
    per_unit.push_back(static_cast<double>(ns) /
                       static_cast<double>(std::max<std::size_t>(units, 1)));
  }
  return median(std::move(per_unit));
}

using TimedUnits = std::pair<std::uint64_t, std::size_t>;

/// Keeps the optimizer from discarding work whose result is unused.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Counts one checked run in `outcome`.
void record(Outcome& outcome, const std::vector<std::string>& failures,
            const std::string& what) {
  ++outcome.attempted;
  if (failures.empty()) return;
  ++outcome.failed;
  for (const std::string& f : failures) {
    outcome.failures.push_back(what + ": " + f);
  }
}

// --- layer inputs -----------------------------------------------------------

/// What the layer measurements read from the workload: sample premise
/// specs, the barrier grid, and the largest feeder's recorded series.
struct LayerInputs {
  std::vector<fleet::PremiseSpec> specs;
  /// Mean ns to draw one of those specs (the first half of boot).
  double spec_ns = 0.0;
  fid::FidelityTier tier = fid::FidelityTier::kFull;
  fid::CalibrationTable calibration = fid::CalibrationTable::defaults();
  /// Barrier instants the sample premises advance through.
  std::vector<sim::TimePoint> barriers;
  std::size_t premises = 1;
  std::size_t feeders = 1;
  /// Home members of every feeder, ascending.
  std::vector<std::vector<std::size_t>> members;
  /// Index of the largest feeder.
  std::size_t largest = 0;
  /// Per-member recorded load series of the largest feeder.
  std::vector<const std::vector<double>*> member_loads;
  /// Recorded total load of every feeder, and its sample interval.
  std::vector<const std::vector<double>*> feeder_loads;
  sim::Duration sample_interval = sim::minutes(1);
  grid::FeederConfig feeder;
  grid::DrConfig dr;
  grid::BusConfig bus;
  grid::TieConfig tie;
  double substation_capacity_kw = 0.0;
  std::vector<double> feeder_capacity_kw;
  bool event_driven = false;
  std::uint64_t seed = 1;
  /// Signals the largest feeder's controller emitted.
  std::vector<grid::GridSignal> signals;
  /// Delivery rows the run formatted into its signal log.
  std::size_t log_rows = 0;
};

struct TierCost {
  double boot_ns = 0.0;
  double advance_ns = 0.0;
  double finish_ns = 0.0;
  double result_bytes = 0.0;
};

/// Boots, advances and finishes the sample premises at `tier`: ns per
/// premise boot (spec copy + make_backend), per premise-barrier advance
/// and per finish, plus the computed bytes of one PremiseResult.
TierCost tier_cost(const LayerInputs& in, fid::FidelityTier tier) {
  std::vector<double> boot;
  std::vector<double> advance;
  std::vector<double> finish;
  double bytes = 0.0;
  std::uint64_t spent = 0;
  while (advance.empty() || (spent < 200'000'000 && advance.size() < 200)) {
    std::vector<std::unique_ptr<fid::PremiseBackend>> backends;
    backends.reserve(in.specs.size());
    std::uint64_t t0 = now_ns();
    for (const fleet::PremiseSpec& spec : in.specs) {
      backends.push_back(fid::make_backend(tier, spec, in.calibration));
    }
    const std::uint64_t boot_ns = now_ns() - t0;
    t0 = now_ns();
    for (const sim::TimePoint t : in.barriers) {
      for (auto& b : backends) b->advance_to(t);
    }
    const std::uint64_t advance_ns = now_ns() - t0;
    std::vector<fleet::PremiseResult> results;
    results.reserve(backends.size());
    t0 = now_ns();
    for (auto& b : backends) results.push_back(b->finish());
    const std::uint64_t finish_ns = now_ns() - t0;
    bytes = 0.0;
    for (const fleet::PremiseResult& r : results) {
      bytes += static_cast<double>(sizeof(fleet::PremiseResult) +
                                   r.load.values().capacity() * sizeof(double));
    }
    const double n = static_cast<double>(in.specs.size());
    bytes /= n;
    boot.push_back(static_cast<double>(boot_ns) / n);
    advance.push_back(static_cast<double>(advance_ns) /
                      (n * static_cast<double>(in.barriers.size())));
    finish.push_back(static_cast<double>(finish_ns) / n);
    spent += boot_ns + advance_ns + finish_ns;
  }
  return {median(std::move(boot)), median(std::move(advance)),
          median(std::move(finish)), bytes};
}

/// Empty-chunk dispatch: the workload's premises cut at
/// suggested_grain(N) into empty tasks under one join; ns per task.
double dispatch_ns_per_task(fleet::Executor& executor, std::size_t premises) {
  const std::size_t grain = executor.suggested_grain(premises);
  const std::size_t tasks = (premises + grain - 1) / grain;
  return ns_per_unit([&]() -> TimedUnits {
    fleet::Executor::TaskGraph graph;
    std::vector<fleet::Executor::TaskId> ids;
    ids.reserve(tasks);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < tasks; ++i) ids.push_back(graph.add([] {}));
    graph.add_join(std::move(ids));
    fleet::Executor::GraphRun run = executor.submit_graph(std::move(graph));
    run.wait_all();
    return {now_ns() - t0, tasks};
  });
}

/// Per-shard joins: K shards of one empty task pinned to worker k, one
/// join node each, waited in feeder order like the polled control
/// plane; ns per join.
double join_ns(fleet::Executor& executor, std::size_t feeders) {
  return ns_per_unit([&]() -> TimedUnits {
    fleet::Executor::TaskGraph graph;
    std::vector<fleet::Executor::TaskId> joins;
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < feeders; ++k) {
      joins.push_back(graph.add_join({graph.add([] {}, k)}));
    }
    fleet::Executor::GraphRun run = executor.submit_graph(std::move(graph));
    for (const fleet::Executor::TaskId j : joins) run.wait(j);
    run.wait_all();
    return {now_ns() - t0, feeders};
  });
}

/// Samples every member series of the largest feeder covers.
std::size_t common_samples(const LayerInputs& in) {
  std::size_t n = in.feeder_loads[in.largest]->size();
  for (const std::vector<double>* s : in.member_loads) {
    n = std::min(n, s->size());
  }
  return n;
}

sim::TimePoint sample_time(const LayerInputs& in, std::size_t b) {
  return sim::TimePoint::epoch() +
         in.sample_interval * static_cast<sim::Ticks>(b + 1);
}

grid::FeederConfig feeder_config(const LayerInputs& in, std::size_t k) {
  grid::FeederConfig fc = in.feeder;
  fc.capacity_kw = in.feeder_capacity_kw[k];
  return fc;
}

/// Staging every member of the largest feeder plus one commit, per
/// recorded sample (thermal bands armed as in event mode); ns per member.
double commit_ns_per_member(const LayerInputs& in) {
  const std::size_t samples = common_samples(in);
  const std::size_t m = in.member_loads.size();
  return ns_per_unit([&]() -> TimedUnits {
    hm::StreamAggregate agg(m);
    if (in.event_driven) {
      const grid::FeederConfig fc = feeder_config(in, in.largest);
      agg.enable_thermal({fc.capacity_kw, fc.thermal_tau, fc.overload_temp_pu});
      grid::DemandResponseController(fc, in.dr).register_bands(agg);
    }
    const std::uint64_t t0 = now_ns();
    for (std::size_t b = 0; b < samples; ++b) {
      for (std::size_t pos = 0; pos < m; ++pos) {
        agg.update(pos, (*in.member_loads[pos])[b]);
      }
      (void)agg.commit(sample_time(in, b));
    }
    return {now_ns() - t0, samples * m};
  });
}

/// HotspotTracker step over the largest feeder's recorded total.
double hotspot_observe_ns(const LayerInputs& in) {
  const std::vector<double>& load = *in.feeder_loads[in.largest];
  const grid::FeederConfig fc = feeder_config(in, in.largest);
  const double dt_min = in.sample_interval.minutes_f();
  return ns_per_unit([&]() -> TimedUnits {
    hm::HotspotTracker tracker({fc.capacity_kw, fc.thermal_tau,
                                fc.overload_temp_pu});
    const std::uint64_t t0 = now_ns();
    for (const double kw : load) tracker.observe(dt_min, kw);
    const std::uint64_t ns_spent = now_ns() - t0;
    keep(tracker);
    return {ns_spent, load.size()};
  });
}

struct BusCost {
  double publish_ns = 0.0;
  double log_ns_per_row = 0.0;
};

/// Publishes the largest feeder's recorded signals (one synthetic shed
/// when it emitted none) to its members, then formats the bus log.
BusCost bus_cost(const LayerInputs& in) {
  std::vector<grid::GridSignal> signals = in.signals;
  if (signals.empty()) {
    grid::GridSignal shed;
    shed.feeder = static_cast<std::uint32_t>(in.largest);
    shed.at = sim::TimePoint::epoch() + sim::hours(1);
    shed.period_stretch = 2;
    shed.duration = sim::minutes(30);
    signals.push_back(shed);
  }
  const sim::Rng bus_rng = sim::Rng(in.seed).stream("grid-bus");
  std::unique_ptr<grid::SignalBus> bus;
  BusCost cost;
  cost.publish_ns = ns_per_unit([&]() -> TimedUnits {
    bus = std::make_unique<grid::SignalBus>(in.bus, in.members[in.largest],
                                            bus_rng);
    const std::uint64_t t0 = now_ns();
    for (const grid::GridSignal& s : signals) (void)bus->publish(s);
    return {now_ns() - t0, bus->log().size()};
  });
  cost.log_ns_per_row = ns_per_unit([&]() -> TimedUnits {
    std::ostringstream csv;
    const std::uint64_t t0 = now_ns();
    bus->write_log_csv(csv);
    return {now_ns() - t0, bus->log().size()};
  });
  return cost;
}

/// Polled controller observe() over the largest feeder's recorded total.
double controller_observe_ns(const LayerInputs& in) {
  const std::vector<double>& load = *in.feeder_loads[in.largest];
  return ns_per_unit([&]() -> TimedUnits {
    grid::DemandResponseController c(feeder_config(in, in.largest), in.dr);
    const std::uint64_t t0 = now_ns();
    for (std::size_t b = 0; b < load.size(); ++b) {
      (void)c.observe(sample_time(in, b), load[b]);
    }
    return {now_ns() - t0, load.size()};
  });
}

/// Event-driven controller wakes over the same series: observations and
/// crossing flags come from a banded monitor first, then only the
/// controller calls are timed.
double controller_wake_ns(const LayerInputs& in) {
  const std::vector<double>& load = *in.feeder_loads[in.largest];
  const grid::FeederConfig fc = feeder_config(in, in.largest);
  std::vector<grid::Observation> obs;
  std::vector<char> crossed;
  {
    hm::StreamAggregate agg(1);
    agg.enable_thermal({fc.capacity_kw, fc.thermal_tau, fc.overload_temp_pu});
    grid::DemandResponseController(fc, in.dr).register_bands(agg);
    for (std::size_t b = 0; b < load.size(); ++b) {
      agg.update(0, load[b]);
      crossed.push_back(agg.commit(sample_time(in, b)).empty() ? 0 : 1);
      obs.push_back({sample_time(in, b), agg.total_kw(), agg.temperature_pu()});
    }
  }
  return ns_per_unit([&]() -> TimedUnits {
    grid::DemandResponseController c(fc, in.dr);
    const std::uint64_t t0 = now_ns();
    for (std::size_t b = 0; b < obs.size(); ++b) {
      (void)(crossed[b] != 0 ? c.on_crossing(obs[b]) : c.on_timer(obs[b]));
    }
    return {now_ns() - t0, obs.size()};
  });
}

/// Substation::plan_transfers per barrier over the recorded feeder
/// totals (due actuations applied untimed in between).
double substation_plan_ns(const LayerInputs& in,
                          const fleet::GridFleetResult* result) {
  std::size_t samples = in.feeder_loads[0]->size();
  for (const std::vector<double>* s : in.feeder_loads) {
    samples = std::min(samples, s->size());
  }
  const sim::Rng bus_rng = sim::Rng(in.seed).stream("grid-bus");
  return ns_per_unit([&]() -> TimedUnits {
    std::vector<grid::FeederPlan> plans(in.feeders);
    for (std::size_t k = 0; k < in.feeders; ++k) {
      plans[k].feeder = feeder_config(in, k);
      plans[k].dr = in.dr;
      plans[k].bus = in.bus;
      plans[k].premises = in.members[k];
    }
    grid::SubstationConfig bank;
    bank.capacity_kw = in.substation_capacity_kw;
    grid::Substation sub(bank, std::move(plans), bus_rng, in.tie);
    std::vector<double> loads(in.feeders);
    std::uint64_t timed = 0;
    for (std::size_t b = 0; b < samples; ++b) {
      const sim::TimePoint t = sample_time(in, b);
      (void)sub.apply_due_transfers(t);
      for (std::size_t k = 0; k < in.feeders; ++k) {
        loads[k] = (*in.feeder_loads[k])[b];
      }
      const auto premise_kw = [result, b](std::size_t p) {
        if (result == nullptr) return 0.0;
        const std::vector<double>& v = result->fleet.premises[p].load.values();
        return b < v.size() ? v[b] : 0.0;
      };
      const std::uint64_t t0 = now_ns();
      sub.plan_transfers(t, loads, premise_kw);
      timed += now_ns() - t0;
    }
    return {timed, samples};
  });
}

struct SimCost {
  double events = 0.0;
  double ns_per_event = 0.0;
  double cp_coverage = 0.0;
  double stale_view_rounds = 0.0;
};

// --- the ledger -------------------------------------------------------------

/// Facts of the workload's end-to-end runs that feed the ledger.
struct RunFacts {
  double plain_s = 0.0;
  double one_worker_s = 0.0;
  double rss_bytes = 0.0;
  double barriers = 0.0;
  double requests = 0.0;
  SimCost sim;
  /// Telemetry: attached/plain ratio, unattributed share, phase ms.
  double overhead = 1.0;
  double unattributed = 1.0;
  double commit_ms = 0.0;
  double join_wait_ms = 0.0;
  double boot_ms = 0.0;
  double collect_ms = 0.0;
};

Metrics ledger(const LayerInputs& in, const RunFacts& f, Tracer& tr,
               fleet::Executor& executor,
               const fleet::GridFleetResult* result) {
  TierCost own;
  TierCost full;
  TierCost device;
  TierCost stat;
  {
    const Tracer::Scope s(tr, "fidelity");
    {
      const Tracer::Scope s1(tr, "fidelity.full");
      full = tier_cost(in, fid::FidelityTier::kFull);
    }
    {
      const Tracer::Scope s1(tr, "fidelity.device");
      device = tier_cost(in, fid::FidelityTier::kDevice);
    }
    {
      const Tracer::Scope s1(tr, "fidelity.stat");
      stat = tier_cost(in, fid::FidelityTier::kStatistical);
    }
    own = in.tier == fid::FidelityTier::kFull     ? full
          : in.tier == fid::FidelityTier::kDevice ? device
                                                  : stat;
  }
  double dispatch = 0.0;
  double join = 0.0;
  {
    const Tracer::Scope s(tr, "fleet.executor");
    dispatch = dispatch_ns_per_task(executor, in.premises);
    join = join_ns(executor, in.feeders);
  }
  double commit = 0.0;
  double hotspot = 0.0;
  {
    const Tracer::Scope s(tr, "metrics");
    commit = commit_ns_per_member(in);
    hotspot = hotspot_observe_ns(in);
  }
  BusCost bus;
  double observe = 0.0;
  double wake = 0.0;
  double plan = 0.0;
  {
    const Tracer::Scope s(tr, "grid");
    {
      const Tracer::Scope s1(tr, "grid.bus");
      bus = bus_cost(in);
    }
    {
      const Tracer::Scope s1(tr, "grid.controller");
      observe = controller_observe_ns(in);
      wake = controller_wake_ns(in);
    }
    {
      const Tracer::Scope s1(tr, "grid.substation");
      plan = substation_plan_ns(in, result);
    }
  }
  const double rows = static_cast<double>(in.log_rows);
  return {
      {"fidelity.full.advance_ns", full.advance_ns, "ns"},
      {"fidelity.stat.advance_ns", stat.advance_ns, "ns"},
      {"fidelity.device.advance_ns", device.advance_ns, "ns"},
      {"fidelity.boot_ns", in.spec_ns + own.boot_ns, "ns"},
      {"fidelity.finish_ns", own.finish_ns, "ns"},
      {"fidelity.result_bytes_per_premise", own.result_bytes, "B"},
      {"fleet.executor.dispatch_ns_per_task", dispatch, "ns"},
      {"fleet.executor.join_ns", join, "ns"},
      {"fleet.executor.width", static_cast<double>(worker_count()), "count"},
      {"fleet.barriers", f.barriers, "count"},
      {"fleet.speedup", f.one_worker_s / f.plain_s, "ratio"},
      {"metrics.aggregate.commit_ns_per_member", commit, "ns"},
      {"metrics.hotspot.observe_ns", hotspot, "ns"},
      {"grid.bus.publish_ns_per_delivery", bus.publish_ns, "ns"},
      {"grid.bus.log_ns_per_row", bus.log_ns_per_row, "ns"},
      {"grid.log_rows", rows, "count"},
      {"grid.log_share_of_run", bus.log_ns_per_row * rows / (f.plain_s * 1e9),
       "ratio"},
      {"grid.controller.observe_ns", observe, "ns"},
      {"grid.controller.wake_ns", wake, "ns"},
      {"grid.substation.plan_ns", plan, "ns"},
      {"sim.events", f.sim.events, "count"},
      {"sim.ns_per_event", f.sim.ns_per_event, "ns"},
      {"st.cp_coverage", f.sim.cp_coverage, "ratio"},
      {"st.stale_view_rounds", f.sim.stale_view_rounds, "count"},
      {"core.requests", f.requests, "count"},
      {"memory.peak_rss_bytes_per_premise",
       f.rss_bytes / static_cast<double>(in.premises), "B"},
      {"telemetry.overhead", f.overhead, "ratio"},
      {"telemetry.unattributed_frac", f.unattributed, "ratio"},
      {"phase.barrier_commit_ms", f.commit_ms, "ms"},
      {"phase.barrier_join_wait_ms", f.join_wait_ms, "ms"},
      {"phase.boot_ms", f.boot_ms, "ms"},
      {"phase.collect_ms", f.collect_ms, "ms"},
  };
}

double phase_ms(const tel::Collector& c, tel::Phase p) {
  return static_cast<double>(c.phase(p).total_ns) * 1e-6;
}

/// Runs `spec`-shaped premises through core::run_experiment: the sim /
/// st / core facts of the fleet's own premise inputs.
SimCost sim_cost(const std::vector<fleet::PremiseSpec>& specs) {
  SimCost c;
  std::uint64_t ns = 0;
  std::uint64_t events = 0;
  for (const fleet::PremiseSpec& spec : specs) {
    const std::uint64_t t0 = now_ns();
    const han::core::ExperimentResult r =
        han::core::run_experiment(spec.experiment, spec.trace);
    ns += now_ns() - t0;
    events += r.events_executed;
    c.cp_coverage += r.network.cp_mean_coverage;
    c.stale_view_rounds += static_cast<double>(r.network.stale_view_rounds);
  }
  c.events = static_cast<double>(events);
  c.ns_per_event =
      static_cast<double>(ns) /
      static_cast<double>(std::max<std::uint64_t>(events, 1));
  c.cp_coverage /= static_cast<double>(std::max<std::size_t>(specs.size(), 1));
  return c;
}

/// Evenly spaced barrier instants over `horizon` at the workload's mean
/// barrier spacing (at least one).
std::vector<sim::TimePoint> barrier_grid(sim::Duration horizon,
                                         std::uint64_t barriers) {
  const sim::Ticks steps =
      static_cast<sim::Ticks>(std::max<std::uint64_t>(barriers, 2) - 1);
  std::vector<sim::TimePoint> out;
  for (sim::Ticks i = 1; i <= steps; ++i) {
    out.push_back(sim::TimePoint::epoch() + horizon * i / steps);
  }
  return out;
}

/// Sample premise counts per layer measurement.
constexpr std::size_t kTierSamples = 8;
constexpr std::size_t kSimSamples = 4;

Metrics fleet_pass(const Options& o, Outcome& outcome, Tracer& tr) {
  const Workload& w = *o.workload;
  const std::size_t width = worker_count();
  fleet::FleetConfig cfg;
  std::unique_ptr<fleet::FleetEngine> engine;
  std::unique_ptr<fleet::Executor> executor;
  {
    const Tracer::Scope s(tr, "setup");
    cfg = fleet_config(w, o.seed, o.smoke);
    engine = std::make_unique<fleet::FleetEngine>(cfg);
    executor = std::make_unique<fleet::Executor>(width);
  }
  RunFacts f;
  fleet::GridFleetResult result;
  reset_peak_rss();
  {
    const Tracer::Scope s(tr, "fleet.run_grid.width" + std::to_string(width));
    const std::uint64_t t0 = now_ns();
    result = engine->run_grid(*executor);
    f.plain_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  f.rss_bytes = peak_rss_bytes();
  record(outcome, check_fleet(cfg, result), "plain run");
  const std::uint64_t reference = digest(result);
  {
    const Tracer::Scope s(tr, "fleet.run_grid.width1");
    fleet::Executor one(1);
    const std::uint64_t t0 = now_ns();
    const fleet::GridFleetResult r1 = engine->run_grid(one);
    f.one_worker_s = static_cast<double>(now_ns() - t0) * 1e-9;
    std::vector<std::string> failures = check_fleet(cfg, r1);
    if (digest(r1) != reference) {
      failures.push_back("signal log / counters differ between 1 and " +
                         std::to_string(width) + " workers");
    }
    record(outcome, failures, "determinism run");
  }
  {
    const Tracer::Scope s(tr, "fleet.run_grid.telemetry");
    tel::Collector collector;
    const std::uint64_t t0 = now_ns();
    const fleet::GridFleetResult rt = engine->run_grid(*executor, &collector);
    const double attached_s = static_cast<double>(now_ns() - t0) * 1e-9;
    std::vector<std::string> failures = check_fleet(cfg, rt);
    if (digest(rt) != reference) {
      failures.push_back("telemetry changed the signal log / counters");
    }
    record(outcome, failures, "telemetry run");
    f.overhead = attached_s / f.plain_s;
    double exclusive_ns = 0.0;
    for (std::size_t p = 0; p < static_cast<std::size_t>(tel::Phase::kCount);
         ++p) {
      const auto phase = static_cast<tel::Phase>(p);
      if (tel::phase_is_exclusive(phase)) {
        exclusive_ns += static_cast<double>(collector.phase(phase).total_ns);
      }
    }
    const double total_ns =
        static_cast<double>(collector.phase(tel::Phase::kRunTotal).total_ns);
    f.unattributed = total_ns > 0.0 ? 1.0 - exclusive_ns / total_ns : 1.0;
    f.commit_ms = phase_ms(collector, tel::Phase::kBarrierCommit);
    f.join_wait_ms = phase_ms(collector, tel::Phase::kBarrierJoinWait);
    f.boot_ms = phase_ms(collector, tel::Phase::kBoot);
    f.collect_ms = phase_ms(collector, tel::Phase::kCollect);
  }
  f.barriers = static_cast<double>(result.control_barriers);
  f.requests = static_cast<double>(result.fleet.total_requests);

  LayerInputs in;
  in.tier = engine->tier_of(0);
  in.calibration = cfg.fidelity.calibration;
  in.premises = cfg.premise_count;
  in.feeders = cfg.feeder_count;
  in.seed = cfg.seed;
  in.sample_interval = cfg.sample_interval;
  in.feeder = cfg.grid.feeder;
  in.dr = cfg.grid.dr;
  in.bus = cfg.grid.bus;
  in.tie = cfg.grid.tie;
  in.tie.enabled = cfg.grid.tie.enabled && cfg.feeder_count > 1;
  in.event_driven = cfg.grid.control_mode == fleet::ControlMode::kEventDriven;
  in.substation_capacity_kw = result.substation_capacity_kw;
  in.members.resize(in.feeders);
  for (const fleet::PremiseResult& p : result.fleet.premises) {
    in.members[p.feeder].push_back(p.index);
  }
  for (std::size_t k = 0; k < in.feeders; ++k) {
    in.feeder_capacity_kw.push_back(result.feeders[k].capacity_kw);
    in.feeder_loads.push_back(&result.fleet.shards[k].load.values());
    if (in.members[k].size() > in.members[in.largest].size()) in.largest = k;
  }
  for (const std::size_t p : in.members[in.largest]) {
    in.member_loads.push_back(&result.fleet.premises[p].load.values());
  }
  in.signals = result.feeders[in.largest].signals;
  in.log_rows = result.deliveries.size();
  const sim::Duration horizon =
      w.layer_horizon > sim::Duration::zero() && !o.smoke
          ? std::min(w.layer_horizon, cfg.horizon)
          : cfg.horizon;
  in.barriers = barrier_grid(horizon, result.control_barriers);
  {
    const Tracer::Scope s(tr, "fleet.make_spec");
    const std::size_t n = std::min(kTierSamples, cfg.premise_count);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      fleet::PremiseSpec spec = engine->make_spec(i);
      spec.experiment.han.dr_aware = true;
      spec.experiment.han.tariff_defer = cfg.grid.premise_tariff_defer;
      in.specs.push_back(std::move(spec));
    }
    in.spec_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(n);
  }
  {
    const Tracer::Scope s(tr, "sim.run_experiment");
    f.sim = sim_cost(std::vector<fleet::PremiseSpec>(
        in.specs.begin(),
        in.specs.begin() + static_cast<std::ptrdiff_t>(
                               std::min(kSimSamples, in.specs.size()))));
  }
  return ledger(in, f, tr, *executor, &result);
}

Metrics packet_pass(const Options& o, Outcome& outcome, Tracer& tr) {
  const Workload& w = *o.workload;
  const std::size_t width = worker_count();
  han::core::ExperimentConfig cfg;
  std::unique_ptr<fleet::Executor> executor;
  {
    const Tracer::Scope s(tr, "setup");
    cfg = packet_config(w, o.seed, o.smoke);
    executor = std::make_unique<fleet::Executor>(width);
  }
  // Both runs execute as one executor task, so the width-1 run and the
  // width-N run differ only in which pool thread simulates the premise.
  const auto run_on = [&cfg](fleet::Executor& ex, double& seconds) {
    han::core::ExperimentResult r;
    fleet::Executor::TaskGraph graph;
    graph.add([&cfg, &r, &seconds] {
      const std::uint64_t t0 = now_ns();
      r = han::core::run_experiment(cfg);
      seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    });
    fleet::Executor::GraphRun run = ex.submit_graph(std::move(graph));
    run.wait_all();
    return r;
  };
  RunFacts f;
  han::core::ExperimentResult result;
  reset_peak_rss();
  {
    const Tracer::Scope s(tr, "core.run_experiment.width" +
                                  std::to_string(width));
    result = run_on(*executor, f.plain_s);
  }
  f.rss_bytes = peak_rss_bytes();
  record(outcome, check_packet(result), "plain run");
  {
    const Tracer::Scope s(tr, "core.run_experiment.width1");
    fleet::Executor one(1);
    const han::core::ExperimentResult r1 = run_on(one, f.one_worker_s);
    std::vector<std::string> failures = check_packet(r1);
    if (digest(r1) != digest(result)) {
      failures.push_back("load series / counters differ between 1 and " +
                         std::to_string(width) + " workers");
    }
    record(outcome, failures, "determinism run");
  }
  f.barriers = 0.0;  // no control plane on this path
  f.requests = static_cast<double>(result.requests);
  f.sim.events = static_cast<double>(result.events_executed);
  f.sim.ns_per_event = f.plain_s * 1e9 /
                       static_cast<double>(std::max<std::uint64_t>(
                           result.events_executed, 1));
  f.sim.cp_coverage = result.network.cp_mean_coverage;
  f.sim.stale_view_rounds =
      static_cast<double>(result.network.stale_view_rounds);
  // run_experiment has no Collector hook: nothing is attributed and
  // there is nothing to attach (overhead 1, unattributed 1, phases 0).

  // The paper premise as a fleet spec: same config, same request trace
  // run_experiment draws, over the layer horizon.
  LayerInputs in;
  in.tier = fid::FidelityTier::kFull;
  in.seed = cfg.han.seed;
  fleet::PremiseSpec spec;
  spec.experiment = cfg;
  spec.experiment.workload.horizon =
      o.smoke ? cfg.workload.horizon
              : std::min(w.layer_horizon, cfg.workload.horizon);
  spec.experiment.han.dr_aware = true;
  {
    const Tracer::Scope s(tr, "appliance.workload");
    const std::uint64_t t0 = now_ns();
    han::appliance::WorkloadParams wp = spec.experiment.workload;
    if (wp.warmup == sim::Duration::zero()) wp.warmup = cfg.cp_boot;
    spec.trace = han::appliance::WorkloadGenerator::generate(
        wp, sim::Rng(cfg.han.seed).stream("workload"));
    in.spec_ns = static_cast<double>(now_ns() - t0);
  }
  in.specs.push_back(spec);
  in.sample_interval = cfg.sample_interval;
  in.barriers = barrier_grid(
      spec.experiment.workload.horizon,
      static_cast<std::uint64_t>(spec.experiment.workload.horizon /
                                 cfg.sample_interval) +
          1);
  // One feeder holding the one premise, rated for all its devices.
  in.members = {{0}};
  in.feeder_loads = {&result.load.values()};
  in.member_loads = {&result.load.values()};
  in.feeder_capacity_kw = {static_cast<double>(cfg.han.device_count) *
                           cfg.han.rated_kw};
  in.substation_capacity_kw = in.feeder_capacity_kw[0];
  return ledger(in, f, tr, *executor, nullptr);
}

}  // namespace

Metrics traced_pass(const Options& options, Outcome& outcome) {
  Tracer tracer;
  Metrics metrics;
  {
    const Tracer::Scope root(tracer, std::string(options.workload->name));
    metrics = options.workload->kind == WorkloadKind::kFleet
                  ? fleet_pass(options, outcome, tracer)
                  : packet_pass(options, outcome, tracer);
  }
  tracer.print();
  if (!options.spans_path.empty()) tracer.write(options.spans_path);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  return metrics;
}

}  // namespace perfbench
