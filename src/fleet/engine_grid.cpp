// FleetEngine::run_grid — the closed control loop between the feeders
// and the premise schedulers.
//
// run() simulates every premise start-to-finish and only then looks at
// the feeder; here the premises advance between control barriers so
// each feeder's DemandResponseController can watch its shard's
// aggregate *while it forms* and steer it. The fleet is partitioned
// across K feeders under one grid::Substation: every barrier stages
// each shard's contributions into its metrics::StreamAggregate (summed
// in premise-index order), routes the committed total to that shard's
// controller, and fans the emitted signals out through that shard's
// bus only — a premise never hears another feeder's head end. The
// substation bank model observes the summed total for inter-feeder
// accounting.
//
// One barrier loop serves both control modes (GridOptions::
// control_mode). Each barrier, the priming one at the epoch included:
//
//   advance -> account -> apply -> per-shard join -> commit -> wake
//   -> observe_total -> plan
//
// The modes differ only in three policies:
//
//   * where the next barrier lands — polled: one control_interval on;
//     event_driven: the earliest of any controller deadline (armed on
//     a sim::EventQueue via sim::Timer), the monitor's predicted
//     thermal crossing, a tie-switch deadline and the observation cap
//     (kObserveCap, tightened to kObserveCapNear near a trigger),
//     snapped up to the control_interval grid;
//   * whom a barrier wakes — polled: every feeder, through
//     observe_feeder (byte-identical to the fixed-interval engine);
//     event_driven: only a feeder whose threshold band crossed or
//     whose declared deadline came due (every feeder at the epoch and
//     at the horizon), which cuts barrier count from
//     horizon/control_interval to O(number of control decisions);
//   * which model reports feeder thermal metrics — polled: each
//     controller's own; event_driven: the monitor, which committed at
//     every barrier while the controller saw only its wakes.
//
// Between barriers each premise is still a thread-confined
// single-threaded simulation (the executor provides the happens-before
// edges at the per-shard joins), and the whole control plane — barrier
// placement included — runs sequentially on the submitter thread in
// feeder order, which together make the closed loop, including every
// per-feeder signal/compliance log, byte-identical for any executor
// width in both modes. With feeder_count == 1 the sharded path
// degenerates to exactly the single-feeder loop: one shard holding
// every premise, capacity share 1.0, substation == feeder.
//
// Tie switches (GridOptions::tie) hook into the barrier: actuations due
// at a barrier re-home the moved premises across the whole plane
// (shard member lists and buses inside the Substation; monitor
// membership, the premise-side feeder stamp and in-flight signal
// queues here) BEFORE the commit, so the controllers observe the
// post-transfer aggregates; new transfers are planned from the
// committed aggregates AFTER the controllers ran. Every tie step is a
// no-op with transfers disabled, which is what keeps the transfer-free
// outputs byte-identical to the pre-tie engine.
//
// Premises live behind the fidelity::PremiseBackend interface
// (FleetConfig::fidelity picks each premise's tier): the loop below
// only ever queues signals, advances to barriers, reads inst_kw() and
// migrates/finishes through that surface, so full-fidelity HAN sims
// and the cheap device/statistical surrogates are interchangeable
// premise-by-premise. With the default all-full policy every backend
// is the verbatim PremiseRuntime port and the outputs stay
// byte-identical to the pre-fidelity engine.
#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fidelity/backend.hpp"
#include "fleet/engine.hpp"
#include "metrics/stream_aggregate.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/telemetry.hpp"

namespace han::fleet {

namespace {

/// Event mode's observation cap: the longest premises free-run without
/// a control barrier. Rounded up to whole control intervals.
constexpr sim::Duration kObserveCap = sim::minutes(15);
/// The tightened cap while any shed-enabled feeder not already shedding
/// sits within kObserveCapNearFraction of its utilization or thermal
/// trigger: a feeder drifting toward a trigger is sampled finely, so
/// the shed lands close to the polled instant, while an idle fleet
/// keeps the relaxed cap and its barrier savings.
constexpr sim::Duration kObserveCapNear = sim::minutes(3);
constexpr double kObserveCapNearFraction = 0.9;

/// Rounds `t` up to the next multiple of `interval` past the epoch, so
/// adaptive barriers stay on the polled observation grid.
sim::TimePoint snap_up(sim::TimePoint t, sim::Duration interval) {
  const sim::Ticks rem = t.us() % interval.us();
  return rem == 0 ? t : sim::TimePoint{t.us() + (interval.us() - rem)};
}

/// Trace-lane series name "sim/<event>/f<K>" (simulated-time instants).
std::string sim_series(const char* event, std::size_t feeder) {
  std::string name("sim/");
  name += event;
  name += "/f";
  name += std::to_string(feeder);
  return name;
}

/// One barrier's in-flight premise-advance graph: the run handle plus
/// one join node per feeder shard (joins[k] retires when every premise
/// homed on feeder k has reached the barrier).
struct AdvancePlan {
  Executor::GraphRun run;
  std::vector<Executor::TaskId> joins;
};

}  // namespace

GridFleetResult FleetEngine::run_grid(Executor& executor) const {
  return run_grid(executor, nullptr);
}

GridFleetResult FleetEngine::run_grid(Executor& executor,
                                      telemetry::Collector* tel) const {
  telemetry::Span run_total(tel, telemetry::Phase::kRunTotal);
  if (tel != nullptr) {
    tel->set_trace_epoch_ns(telemetry::Collector::now_ns());
  }
  const ExecutorTelemetryScope executor_scope(executor, tel);
  const GridOptions& g = config_.grid;
  const std::size_t feeders = config_.feeder_count;
  const bool event_driven = g.control_mode == ControlMode::kEventDriven;

  const double fleet_capacity_kw =
      g.feeder.capacity_kw > 0.0 ? g.feeder.capacity_kw
                                 : resolved_capacity_kw();
  /// Feeder k's effective controller tuning: the per-feeder override
  /// when engaged, the shared config otherwise — and muted entirely in
  /// open-loop runs, where every feeder model is a passive observer.
  const auto dr_for = [&g](std::size_t k) {
    grid::DrConfig dr = k < g.feeder_dr.size() && g.feeder_dr[k]
                            ? *g.feeder_dr[k]
                            : g.dr;
    if (!g.enabled) {
      dr.shed_enabled = false;
      dr.tariff_windows.clear();
    }
    return dr;
  };

  // --- Boot every premise (parallel; construction is the pricey part).
  // Each index gets the backend its fidelity tier dictates; the spec is
  // finalized BEFORE construction so every tier sees identical inputs.
  std::vector<std::unique_ptr<fidelity::PremiseBackend>> backends(
      config_.premise_count);
  {
    telemetry::Span boot(tel, telemetry::Phase::kBoot,
                         telemetry::Span::Emit::kTrace);
    // Instrumented runs split boot into the spec/trace draw and the
    // backend construction per premise.
    executor.parallel_for(
        config_.premise_count, [this, &g, &backends, tel](std::size_t i) {
          const std::uint64_t t0 =
              tel != nullptr ? telemetry::Collector::now_ns() : 0;
          PremiseSpec spec = make_spec(i);
          // DR enrollment is a no-op until a signal is actually applied,
          // so flipping it here cannot perturb the signal-free baseline.
          spec.experiment.han.dr_aware = true;
          spec.experiment.han.tariff_defer = g.premise_tariff_defer;
          const std::uint64_t t1 =
              tel != nullptr ? telemetry::Collector::now_ns() : 0;
          backends[i] = fidelity::make_backend(
              tier_of(i), std::move(spec), config_.fidelity.calibration);
          if (tel != nullptr) {
            tel->record_span(telemetry::Phase::kBootSpec, t1 - t0);
            tel->record_span(telemetry::Phase::kBootBackend,
                             telemetry::Collector::now_ns() - t1);
          }
        });
  }

  // --- Shard the fleet and raise the substation control plane.
  // Membership is rebuilt in index order from the (deterministic) spec
  // assignment, so shard aggregates sum in the same order everywhere.
  std::vector<grid::FeederPlan> plans(feeders);
  for (std::size_t k = 0; k < feeders; ++k) {
    plans[k].feeder = g.feeder;
    plans[k].feeder.capacity_kw =
        fleet_capacity_kw * feeder_capacity_share(k);
    plans[k].dr = dr_for(k);
    plans[k].bus = g.bus;
  }
  for (std::size_t i = 0; i < backends.size(); ++i) {
    plans[backends[i]->spec().feeder].premises.push_back(i);
  }

  grid::SubstationConfig bank = g.substation;
  if (bank.capacity_kw <= 0.0) bank.capacity_kw = fleet_capacity_kw;
  // Ties engage only when the grid layer is closed-loop and there is a
  // neighbor to transfer to; the config is muted otherwise so the
  // open-loop baseline and single-feeder runs stay transfer-free.
  grid::TieConfig tie = g.tie;
  tie.enabled = tie.enabled && g.enabled && feeders > 1;
  const bool tie_enabled = tie.enabled;
  grid::Substation substation(bank, std::move(plans),
                              sim::Rng(config_.seed).stream("grid-bus"),
                              std::move(tie));
  substation.set_telemetry(tel);

  // Only coordinated premises can act on a shed; the uncoordinated
  // baseline ignores signals by design.
  for (std::size_t k = 0; k < feeders; ++k) {
    const std::vector<std::size_t>& members = substation.premises(k);
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      substation.bus(k).set_can_comply(
          pos, backends[members[pos]]->spec().experiment.han.scheduler ==
                   core::SchedulerKind::kCoordinated);
    }
  }

  // Per-feeder streaming aggregates: the observation side of the
  // control plane. Both modes commit through them (the committed total
  // is the same index-ordered sum the controllers always saw); the
  // event mode additionally arms their threshold bands and thermal
  // tracking, which is what turns samples into crossings.
  std::vector<metrics::StreamAggregate> monitors;
  monitors.reserve(feeders);
  for (std::size_t k = 0; k < feeders; ++k) {
    monitors.emplace_back(substation.premises(k).size());
    if (event_driven) {
      const grid::FeederConfig& fc = substation.controller(k).feeder().config();
      monitors[k].enable_thermal(
          {fc.capacity_kw, fc.thermal_tau, fc.overload_temp_pu});
      substation.controller(k).register_bands(monitors[k]);
    }
  }

  // Fans a batch of emitted signals out to the shard's premises that
  // will apply them: sheds land only at premises that opted in and can
  // act; a tariff tier applies to every customer on the feeder
  // regardless of DR enrollment (it is informational at the premise).
  const auto fan_out = [&](std::size_t k,
                           const std::vector<grid::GridSignal>& signals) {
    for (const grid::GridSignal& s : signals) {
      for (const grid::Delivery& d : substation.bus(k).publish(s)) {
        const bool applies =
            s.kind == grid::SignalKind::kTariffChange || d.complied;
        if (applies) {
          backends[d.premise]->queue_signal(d.deliver_at, s);
        }
      }
    }
  };

  // Builds and submits the per-shard advance graph for the barrier at
  // `t`: feeder k's member list is cut into `grain`-sized chunk tasks
  // carrying affinity k, all gated by one bodiless join node per
  // feeder, so the control plane can start feeder k's commit the
  // moment k's own premises reach the barrier instead of stalling on
  // the whole fleet. Each backend lands its queued signals at their
  // exact delivery times inside the interval (deliver_at >= the
  // backend's clock because signals are emitted at barrier times and
  // latency is non-negative). Chunked dispatch: at cheap-tier fleet
  // scale the per-index task overhead would dominate the (tiny)
  // per-premise step. Member lists are stable for the whole graph (tie
  // re-homing runs on the control plane after the joins), so tasks
  // hold plain pointers into the substation's shard vectors.
  const std::size_t grain = executor.suggested_grain(config_.premise_count);
  const auto submit_advance = [&](sim::TimePoint t) {
    Executor::TaskGraph graph;
    AdvancePlan plan;
    plan.joins.reserve(feeders);
    std::vector<Executor::TaskId> chunks;
    for (std::size_t k = 0; k < feeders; ++k) {
      const std::vector<std::size_t>* members = &substation.premises(k);
      chunks.clear();
      for (std::size_t begin = 0; begin < members->size(); begin += grain) {
        const std::size_t end_i = std::min(members->size(), begin + grain);
        // Instrumented runs charge each premise's step to its tier's
        // nested phase (who is eating the barrier — the full sims or
        // the surrogates?).
        chunks.push_back(graph.add(
            [&backends, members, begin, end_i, t, tel]() {
              for (std::size_t pos = begin; pos < end_i; ++pos) {
                fidelity::PremiseBackend& premise = *backends[(*members)[pos]];
                const std::uint64_t t0 =
                    tel != nullptr ? telemetry::Collector::now_ns() : 0;
                premise.advance_to(t);
                if (tel != nullptr) {
                  tel->record_span(tier_phase(premise.tier()),
                                   telemetry::Collector::now_ns() - t0);
                }
              }
            },
            k));
      }
      plan.joins.push_back(graph.add_join(chunks));
    }
    if (tel != nullptr) tel->count("graph_submissions");
    plan.run = executor.submit_graph(std::move(graph));
    return plan;
  };

  // --- Tie-switch plumbing. Each helper is a no-op with ties disabled.
  std::vector<double> energy_lent_kwh(feeders, 0.0);
  std::vector<double> energy_borrowed_kwh(feeders, 0.0);

  // Integrates the borrowed premises' contributions over the barrier
  // interval that just elapsed (right-edge load over (t - dt, t]),
  // BEFORE actuations at t move anyone — membership during the
  // interval is the membership the interval started with.
  const auto account_transfers = [&](sim::Duration dt) {
    if (!tie_enabled || dt <= sim::Duration::zero()) return;
    for (const grid::ActiveTransfer& a : substation.active_transfers()) {
      double kw = 0.0;
      for (const std::size_t p : a.premises) kw += backends[p]->inst_kw();
      const double kwh = kw * dt.hours_f();
      energy_lent_kwh[a.from] += kwh;
      energy_borrowed_kwh[a.to] += kwh;
    }
  };

  // Actuates every switch operation due at `t` and re-homes the moved
  // premises across the engine's side of the plane: the monitor
  // membership, the premise-side feeder stamp, and the premise's
  // in-flight signal queue — undelivered signals from the old head end
  // are dropped (the switch re-registers the premise with the new
  // one; a signal applied after the move would count as misrouted).
  // Controllers on both ends forget partial holds: the step they are
  // about to observe is the switch, not organic load movement.
  const auto apply_tie_ops = [&](sim::TimePoint t) -> std::vector<grid::TieEvent> {
    if (!tie_enabled) return {};
    std::vector<grid::TieEvent> events = substation.apply_due_transfers(t);
    if (tel != nullptr && tel->tracing()) {
      for (const grid::TieEvent& ev : events) {
        tel->trace_instant(
            sim_series(ev.give_back ? "give_back" : "transfer", ev.to), t,
            static_cast<double>(ev.premises.size()));
      }
    }
    for (const grid::TieEvent& ev : events) {
      for (const std::size_t p : ev.premises) {
        // Tariff tiers travel with the feeder, not the premise: the
        // new head end only broadcasts at window boundaries, so the
        // migrated premise adopts its current tier on the way in.
        backends[p]->migrate_to_feeder(
            ev.to, substation.controller(ev.to).tier_at(t));
      }
      substation.controller(ev.from).on_membership_change(t);
      substation.controller(ev.to).on_membership_change(t);
    }
    if (!events.empty()) {
      // Contributions are restaged in full before every commit, so
      // resizing to the new member counts is the whole re-home.
      for (std::size_t k = 0; k < feeders; ++k) {
        monitors[k].resize_members(substation.premises(k).size());
      }
    }
    return events;
  };

  // Plans new transfers / give-backs from this barrier's committed
  // aggregates; call after the controllers observed.
  const auto plan_tie = [&](sim::TimePoint t, const auto& load_of) {
    if (!tie_enabled) return;
    std::vector<double> loads(feeders);
    for (std::size_t k = 0; k < feeders; ++k) loads[k] = monitors[k].total_kw();
    substation.plan_transfers(
        t, loads, [&load_of](std::size_t p) { return load_of(p); });
  };

  // --- Barrier policies. Event mode arms each feeder's declared
  // deadline and predicted thermal crossing as re-armable timers on one
  // event queue; polled mode arms nothing, so its queue stays empty.
  const sim::TimePoint end = sim::TimePoint::epoch() + config_.horizon;
  const sim::Duration interval = g.control_interval;
  sim::EventQueue timers;
  std::vector<sim::Timer> deadline;
  std::vector<sim::Timer> thermal;
  deadline.reserve(feeders);
  thermal.reserve(feeders);
  for (std::size_t k = 0; k < feeders; ++k) {
    deadline.emplace_back(timers);
    thermal.emplace_back(timers);
  }
  // Every feeder's deadline is "due" at the epoch: the priming barrier
  // wakes each controller once (initial tariff tier, full-span
  // accounting anchor) and arms its first deadlines.
  std::vector<char> deadline_due(feeders, 1);

  // Re-arms feeder k's declared deadline after a wake changed its
  // controller state.
  const auto rearm_deadline = [&](std::size_t k) {
    const sim::TimePoint at = substation.controller(k).next_deadline();
    if (at < sim::TimePoint::max()) {
      deadline[k].arm(at, [&deadline_due, k]() { deadline_due[k] = 1; });
    } else {
      deadline[k].cancel();
    }
  };
  // Re-arms feeder k's predicted thermal-trigger crossing from the
  // monitor's committed state. The timer only forces a barrier; the
  // crossing itself (if the prediction still holds) is detected by
  // the temperature band at that barrier's commit.
  const auto rearm_thermal = [&](std::size_t k) {
    const grid::DrConfig& dr = substation.controller(k).config();
    if (!dr.shed_enabled) return;
    const sim::TimePoint at =
        monitors[k].predict_thermal_crossing(dr.trigger_temp_pu);
    if (at < sim::TimePoint::max()) {
      thermal[k].arm(at, []() {});
    } else {
      thermal[k].cancel();
    }
  };

  // Observation caps in whole intervals (at least one): polled mode is
  // the one-interval case of both.
  const auto cap_intervals = [&interval](sim::Duration d) {
    return interval *
           std::max<sim::Ticks>(1,
                                (d.us() + interval.us() - 1) / interval.us());
  };
  const sim::Duration cap_far =
      event_driven ? cap_intervals(kObserveCap) : interval;
  const sim::Duration cap_near =
      event_driven ? cap_intervals(kObserveCapNear) : interval;

  // True when any shed-enabled feeder's last committed state is within
  // kObserveCapNearFraction of its trigger (utilization or thermal). A
  // feeder whose shed is already active is skipped: its expiry/all-
  // clear deadlines are armed, so the onset crossing the near cap
  // exists to catch has already been caught, and a heat-wave plateau
  // would otherwise hold "near" true for the whole shed. Reads only
  // control-plane state from the previous barrier's commit, so the
  // chosen cap — and with it the barrier schedule — is deterministic
  // across executor widths.
  const auto near_trigger = [&]() {
    if (!event_driven || !g.enabled) return false;
    for (std::size_t k = 0; k < feeders; ++k) {
      const grid::DrConfig& dr = substation.controller(k).config();
      if (!dr.shed_enabled) continue;
      if (substation.controller(k).shed_active()) continue;
      const double capacity_kw =
          substation.controller(k).feeder().config().capacity_kw;
      if (capacity_kw > 0.0 &&
          monitors[k].total_kw() / capacity_kw >=
              kObserveCapNearFraction * dr.trigger_utilization) {
        return true;
      }
      if (monitors[k].temperature_pu() >=
          kObserveCapNearFraction * dr.trigger_temp_pu) {
        return true;
      }
    }
    return false;
  };

  // Wakes feeder k's controller with the observation committed at
  // `obs.t`. Polled: every feeder, every barrier. Event-driven: a
  // crossing first, else a due deadline, else only the horizon-end
  // barrier — a controller mid-shed with its next deadline past the
  // horizon would otherwise never account the tail of its last wake
  // into the DR time integrals. Woken or crossed feeders re-arm their
  // declared deadline; every feeder re-arms its thermal prediction.
  const auto wake = [&](std::size_t k, const grid::Observation& obs,
                        bool crossed) {
    if (!event_driven) {
      fan_out(k, substation.observe_feeder(k, obs.t, obs.load_kw));
      return;
    }
    // Counts an event-mode wake and marks it on feeder k's sim lane.
    const auto note = [&](const char* counter, const char* lane) {
      if (tel == nullptr) return;
      tel->count(counter);
      if (tel->tracing()) {
        tel->trace_instant(sim_series(lane, k), obs.t, obs.load_kw);
      }
    };
    if (crossed) {
      note("wakes_crossing", "crossing");
      fan_out(k, substation.on_crossing(k, obs));
    } else if (deadline_due[k] || obs.t == end) {
      note("wakes_timer", "wake");
      fan_out(k, substation.on_timer(k, obs));
    }
    if (crossed || deadline_due[k]) rearm_deadline(k);
    deadline_due[k] = 0;
    rearm_thermal(k);
  };

  std::uint64_t barriers = 0;
  // The control half of one barrier at `at`, in feeder order: wait for
  // feeder k's own shard (untied runs with a plan in flight — feeders
  // whose premises already arrived commit while slower shards are
  // still advancing), commit its aggregate, wake its controller; then
  // refresh the deadlines a migration may have emptied without a wake,
  // observe the substation total and plan new transfers.
  const auto control_step = [&](sim::TimePoint at, const auto& load_of,
                                AdvancePlan* plan,
                                const std::vector<grid::TieEvent>& moved) {
    double total_kw = 0.0;
    for (std::size_t k = 0; k < feeders; ++k) {
      if (plan != nullptr && !tie_enabled) {
        telemetry::Span join_span(tel, telemetry::Phase::kBarrierJoinWait);
        plan->run.wait(plan->joins[k]);
        join_span.finish();
        if (tel != nullptr) tel->count("join_waits");
      }
      // Stage the members' contributions and commit; crossings are
      // always empty in polled mode (no bands).
      telemetry::Span commit_span(tel, telemetry::Phase::kBarrierCommit);
      const std::vector<std::size_t>& members = substation.premises(k);
      for (std::size_t pos = 0; pos < members.size(); ++pos) {
        monitors[k].update(pos, load_of(members[pos]));
      }
      const bool crossed = !monitors[k].commit(at).empty();
      const grid::Observation obs{at, monitors[k].total_kw(),
                                  monitors[k].temperature_pu()};
      total_kw += obs.load_kw;
      commit_span.finish();
      const telemetry::Span observe_span(tel,
                                         telemetry::Phase::kBarrierObserve);
      wake(k, obs, crossed);
    }
    if (event_driven) {
      for (const grid::TieEvent& ev : moved) {
        rearm_deadline(ev.from);
        rearm_deadline(ev.to);
      }
    }
    {
      const telemetry::Span observe_span(tel,
                                         telemetry::Phase::kBarrierObserve);
      substation.observe_total(at, total_kw);
    }
    {
      const telemetry::Span plan_span(tel, telemetry::Phase::kBarrierPlan);
      plan_tie(at, load_of);
    }
    ++barriers;
  };

  // Prime every feeder model AND the substation bank at the epoch
  // (Type-2 load is zero before the CP boots, so each aggregate is the
  // shard's diurnal base): a FeederModel's priming sample carries no
  // interval, and anchoring all of them here makes every feeder's
  // overload/thermal accounting cover the whole (0, horizon] span. It
  // also emits the initial tariff tier at t=0 when a window covers
  // midnight, and gives every monitor band its initial state.
  sim::TimePoint t = sim::TimePoint::epoch();
  control_step(t,
               [&backends, t](std::size_t i) {
                 return diurnal_base_kw(backends[i]->spec(), t);
               },
               nullptr, {});

  const auto inst_load = [&backends](std::size_t i) {
    return backends[i]->inst_kw();
  };
  while (t < end) {
    // Barrier placement: the cap, pulled in by any armed timer or tie
    // deadline, snapped up to the control_interval grid so every
    // observation instant is one the polled mode would also take.
    sim::TimePoint next = t + (near_trigger() ? cap_near : cap_far);
    if (!timers.empty()) next = std::min(next, timers.next_time());
    if (tie_enabled) {
      // A planned actuation or a hold expiry forces a barrier just
      // like a controller deadline.
      next = std::min(next, substation.next_tie_deadline(t));
    }
    next = snap_up(next, interval);
    next = std::max(next, t + interval);  // timers never stall a barrier
    const sim::TimePoint prev = t;
    t = std::min(next, end);
    AdvancePlan plan;
    {
      telemetry::Span advance_span(tel, telemetry::Phase::kBarrierAdvance,
                                   telemetry::Span::Emit::kTrace);
      plan = submit_advance(t);
    }
    // Fire everything due: callbacks mark which feeders' deadlines
    // came due at (or before) this barrier. Pure control-plane state,
    // so it overlaps the premises still in flight.
    while (!timers.empty() && timers.next_time() <= t) timers.pop().fn();

    if (tie_enabled) {
      // Transfer accounting and re-homing read premises across shard
      // boundaries, so the tied loop needs the whole fleet at the
      // barrier before the control plane runs.
      telemetry::Span join_span(tel, telemetry::Phase::kBarrierJoinWait);
      plan.run.wait_all();
      join_span.finish();
      if (tel != nullptr) tel->count("join_waits");
    }
    // Sequential from here: the whole control plane in feeder order.
    {
      const telemetry::Span account_span(tel,
                                         telemetry::Phase::kBarrierAccount);
      account_transfers(t - prev);
    }
    telemetry::Span apply_span(tel, telemetry::Phase::kBarrierApply);
    const std::vector<grid::TieEvent> moved = apply_tie_ops(t);
    apply_span.finish();
    control_step(t, inst_load, &plan, moved);
    // Returns immediately (every join was waited on); surfaces the
    // first premise exception.
    plan.run.wait_all();
  }

  // --- Collect premise results (parallel) and aggregate (sequential).
  GridFleetResult out;
  out.fleet.premises.resize(config_.premise_count);
  {
    telemetry::Span collect_span(tel, telemetry::Phase::kCollect,
                                 telemetry::Span::Emit::kTrace);
    executor.parallel_for(
        config_.premise_count, [&backends, &out](std::size_t i) {
          out.fleet.premises[i] = backends[i]->finish();
        });
  }
  telemetry::Span aggregate_span(tel, telemetry::Phase::kAggregate,
                                 telemetry::Span::Emit::kTrace);
  finish_aggregate(out.fleet);
  aggregate_span.finish();

  telemetry::Span report_span(tel, telemetry::Phase::kReport,
                              telemetry::Span::Emit::kTrace);
  out.control_barriers = barriers;
  out.feeders.resize(feeders);
  for (std::size_t k = 0; k < feeders; ++k) {
    FeederOutcome& fo = out.feeders[k];
    const grid::DemandResponseController& c = substation.controller(k);
    const grid::SignalBus& bus = substation.bus(k);
    fo.feeder = k;
    fo.premises = substation.premises(k).size();
    fo.capacity_kw = c.feeder().config().capacity_kw;
    fo.dr = c.stats();
    fo.controller_wakes = c.feeder().observations();
    // Event mode's monitor committed at every barrier while the
    // controller's own model only saw its wakes: report the finer one.
    const auto report_thermal = [&fo](const auto& model) {
      fo.overload_minutes = model.overload_minutes();
      fo.hot_minutes = model.hot_minutes();
      fo.peak_temperature_pu = model.peak_temperature_pu();
      fo.peak_load_kw = model.peak_load_kw();
    };
    if (event_driven) {
      report_thermal(monitors[k]);
    } else {
      report_thermal(c.feeder());
    }
    fo.energy_lent_kwh = energy_lent_kwh[k];
    fo.energy_borrowed_kwh = energy_borrowed_kwh[k];
    fo.opted_in_premises = bus.opted_in_count();
    for (std::size_t pos = 0; pos < bus.premise_count(); ++pos) {
      if (bus.subscriber(pos).opted_in && bus.subscriber(pos).can_comply) {
        ++fo.complying_premises;
      }
    }
    fo.signals = bus.signals();
    fo.deliveries = bus.log();
    fo.signal_log_csv = bus.log_csv();

    // Fleet-wide roll-ups.
    out.dr.shed_signals += fo.dr.shed_signals;
    out.dr.all_clear_signals += fo.dr.all_clear_signals;
    out.dr.tariff_signals += fo.dr.tariff_signals;
    out.dr.shed_active_minutes += fo.dr.shed_active_minutes;
    out.dr.unserved_shed_kw_minutes += fo.dr.unserved_shed_kw_minutes;
    out.dr.total_shed_latency_minutes += fo.dr.total_shed_latency_minutes;
    out.dr.sheds_reaching_target += fo.dr.sheds_reaching_target;
    out.controller_wakes += fo.controller_wakes;
    out.opted_in_premises += fo.opted_in_premises;
    out.complying_premises += fo.complying_premises;
    out.signals.insert(out.signals.end(), fo.signals.begin(),
                       fo.signals.end());
    out.deliveries.insert(out.deliveries.end(), fo.deliveries.begin(),
                          fo.deliveries.end());
  }

  // Tie-switch roll-ups: the actuation log, per-feeder lending
  // counters, and the substation totals.
  out.transfers = substation.tie_log();
  for (const grid::TieEvent& ev : out.transfers) {
    if (ev.give_back) continue;
    ++out.feeders[ev.from].transfers_out;
    ++out.feeders[ev.to].transfers_in;
    out.feeders[ev.from].premises_lent += ev.premises.size();
    out.feeders[ev.to].premises_borrowed += ev.premises.size();
  }
  const grid::TieStats& ties = substation.tie_stats();
  out.fleet.substation.tie_switch_operations = ties.switch_operations;
  out.fleet.substation.tie_transfers = ties.transfers;
  out.fleet.substation.tie_give_backs = ties.give_backs;
  out.fleet.substation.premises_transferred = ties.premise_moves;
  for (const double kwh : energy_lent_kwh) {
    out.fleet.substation.transferred_energy_kwh += kwh;
  }

  out.overload_minutes = substation.transformer().overload_minutes();
  out.hot_minutes = substation.transformer().hot_minutes();
  out.peak_temperature_pu = substation.transformer().peak_temperature_pu();
  out.substation_capacity_kw = substation.transformer().config().capacity_kw;
  // Each row was rendered once, into its feeder's log; the substation
  // log splices those rows rather than formatting them again.
  std::vector<std::string_view> feeder_logs;
  feeder_logs.reserve(feeders);
  for (const FeederOutcome& fo : out.feeders) {
    feeder_logs.push_back(fo.signal_log_csv);
  }
  out.signal_log_csv = grid::join_feeder_logs(feeder_logs);
  out.comfort_gap_violations = out.fleet.service_gap_violations;
  report_span.finish();

  if (tel != nullptr) {
    // Mirror the result into the deterministic counter registry: every
    // value below is a simulation fact (byte-identical across executor
    // widths), so the manifest's "counters" section doubles as a
    // machine-checkable behavior snapshot.
    std::uint64_t misrouted = 0;
    std::uint64_t deferrals = 0;
    for (const PremiseResult& p : out.fleet.premises) {
      misrouted += p.network.grid_signals_misrouted;
      deferrals += p.network.tariff_deferrals;
    }
    count_fleet_shape(*tel);
    tel->set_counter("control_barriers", out.control_barriers);
    tel->set_counter("controller_wakes", out.controller_wakes);
    tel->set_counter("signals_emitted", out.signals.size());
    tel->set_counter("shed_signals", out.dr.shed_signals);
    tel->set_counter("all_clear_signals", out.dr.all_clear_signals);
    tel->set_counter("tariff_signals", out.dr.tariff_signals);
    tel->set_counter("signals_delivered", out.deliveries.size());
    tel->set_counter("signals_misrouted", misrouted);
    tel->set_counter("tariff_deferrals", deferrals);
    tel->set_counter("opted_in_premises", out.opted_in_premises);
    tel->set_counter("complying_premises", out.complying_premises);
    tel->set_counter("tie_switch_operations", ties.switch_operations);
    tel->set_counter("tie_transfers", ties.transfers);
    tel->set_counter("tie_give_backs", ties.give_backs);
    tel->set_counter("premises_transferred", ties.premise_moves);
    tel->set_counter("total_requests", out.fleet.total_requests);
    tel->set_counter("comfort_gap_violations", out.comfort_gap_violations);
  }
  return out;
}

GridFleetResult FleetEngine::run_grid(std::size_t threads) const {
  Executor executor(threads);
  return run_grid(executor);
}

}  // namespace han::fleet
