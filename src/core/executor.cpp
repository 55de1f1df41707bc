#include "airshed/core/executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "airshed/par/pool.hpp"
#include "airshed/util/error.hpp"

namespace airshed {

namespace {

// ---------------------------------------------------------------------------
// Configuration validation (ConfigError names the offending field).
// ---------------------------------------------------------------------------

void validate_machine(const MachineModel& m) {
  auto require_positive = [&](double v, const char* field) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw ConfigError("MachineModel." + std::string(field) +
                        " must be positive and finite (machine '" + m.name +
                        "', got " + std::to_string(v) + ")");
    }
  };
  require_positive(m.node_rate_flops, "node_rate_flops");
  require_positive(m.latency_per_message_s, "latency_per_message_s");
  require_positive(m.cost_per_byte_s, "cost_per_byte_s");
  require_positive(m.copy_per_byte_s, "copy_per_byte_s");
  if (m.word_size == 0) {
    throw ConfigError("MachineModel.word_size must be >= 1 (machine '" +
                      m.name + "')");
  }
  if (m.max_nodes < 1) {
    throw ConfigError("MachineModel.max_nodes must be >= 1 (machine '" +
                      m.name + "')");
  }
}

void validate_trace(const WorkTrace& trace) {
  if (trace.species == 0) {
    throw ConfigError("WorkTrace.species must be non-empty (dataset '" +
                      trace.dataset + "')");
  }
  if (trace.layers == 0) {
    throw ConfigError("WorkTrace.layers must be non-empty (dataset '" +
                      trace.dataset + "')");
  }
  if (trace.points == 0) {
    throw ConfigError("WorkTrace.points must be non-empty (dataset '" +
                      trace.dataset + "')");
  }
}

void validate_config(const WorkTrace& trace, const ExecutionConfig& config) {
  if (config.nodes < 1) {
    throw ConfigError("ExecutionConfig.nodes must be >= 1 (got " +
                      std::to_string(config.nodes) + ")");
  }
  validate_machine(config.machine);
  if (config.nodes > config.machine.max_nodes) {
    throw ConfigError("ExecutionConfig.nodes (" +
                      std::to_string(config.nodes) +
                      ") exceeds MachineModel.max_nodes (" +
                      std::to_string(config.machine.max_nodes) + ")");
  }
  validate_trace(trace);
  if (!config.faults.empty()) {
    if (config.faults.nodes() < config.nodes) {
      throw ConfigError("FaultPlan covers " +
                        std::to_string(config.faults.nodes()) +
                        " nodes but ExecutionConfig.nodes is " +
                        std::to_string(config.nodes));
    }
    if (config.faults.has_failures() &&
        config.strategy != Strategy::DataParallel) {
      throw ConfigError(
          "FaultPlan.node_mtbf_hours: node-failure injection requires "
          "Strategy::DataParallel (stragglers and message drops work under "
          "both strategies)");
    }
    if (config.checkpoint.interval_hours < 0) {
      throw ConfigError("CheckpointPolicy.interval_hours must be >= 0 (got " +
                        std::to_string(config.checkpoint.interval_hours) +
                        ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Fault context threaded through the per-hour cost evaluation.
// ---------------------------------------------------------------------------

/// Identity and schedule needed to perturb one hour: `physical` maps the
/// logical node index of the current decomposition to the physical node id
/// whose straggler factor applies (null = identity mapping). An empty plan
/// perturbs nothing: every slowdown is 1.0 and no phase drops a message.
struct FaultCtx {
  const FaultPlan& plan;
  const std::vector<int>* physical;
  int hour;
  const RetryPolicy& retry;
  RecoveryReport& recovery;  ///< straggler/retransmit accumulators
};

double node_slowdown(const FaultCtx& f, int logical) {
  if (!f.plan.has_slowdowns()) return 1.0;
  const int phys = f.physical
                       ? (*f.physical)[static_cast<std::size_t>(logical)]
                       : logical;
  return f.plan.slowdown(f.hour, phys);
}

/// Slowest straggler among the first `count` logical nodes (for phases that
/// run replicated or over uniform units).
double max_slowdown(const FaultCtx& f, int count) {
  double worst = 1.0;
  if (!f.plan.has_slowdowns()) return worst;
  for (int i = 0; i < count; ++i) worst = std::max(worst, node_slowdown(f, i));
  return worst;
}

/// Nominal and straggler-inflated phase maxima of a distributed work vector.
/// When per-node detail is requested (virtual-timeline export), `per_node`
/// holds each node's own straggler-inflated busy work — what that node
/// actually spends inside the barrier, the barrier itself waiting for the
/// maximum.
struct PhaseMaxima {
  double nominal = 0.0;
  double inflated = 0.0;
  std::vector<double> per_node;
};

PhaseMaxima max_block_work(std::span<const double> work, int nodes,
                           const FaultCtx& fault, bool want_per_node = false) {
  const std::size_t n = work.size();
  const std::size_t bs = (n + nodes - 1) / static_cast<std::size_t>(nodes);
  PhaseMaxima m;
  if (want_per_node) m.per_node.assign(static_cast<std::size_t>(nodes), 0.0);
  int node = 0;
  for (std::size_t lo = 0; lo < n; lo += bs, ++node) {
    const std::size_t hi = std::min(lo + bs, n);
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += work[i];
    const double inflated = acc * node_slowdown(fault, node);
    m.nominal = std::max(m.nominal, acc);
    m.inflated = std::max(m.inflated, inflated);
    if (want_per_node) m.per_node[static_cast<std::size_t>(node)] = inflated;
  }
  return m;
}

PhaseMaxima max_cyclic_work(std::span<const double> work, int nodes,
                            const FaultCtx& fault, bool want_per_node = false) {
  std::vector<double> acc(static_cast<std::size_t>(nodes), 0.0);
  for (std::size_t i = 0; i < work.size(); ++i) {
    acc[i % static_cast<std::size_t>(nodes)] += work[i];
  }
  PhaseMaxima m;
  if (want_per_node) m.per_node.assign(static_cast<std::size_t>(nodes), 0.0);
  for (int node = 0; node < nodes; ++node) {
    const double inflated =
        acc[static_cast<std::size_t>(node)] * node_slowdown(fault, node);
    m.nominal = std::max(m.nominal, acc[static_cast<std::size_t>(node)]);
    m.inflated = std::max(m.inflated, inflated);
    if (want_per_node) m.per_node[static_cast<std::size_t>(node)] = inflated;
  }
  return m;
}

PhaseMaxima max_distributed_work(std::span<const double> work, int nodes,
                                 DimDist dist, const FaultCtx& fault,
                                 bool want_per_node = false) {
  return dist == DimDist::Cyclic
             ? max_cyclic_work(work, nodes, fault, want_per_node)
             : max_block_work(work, nodes, fault, want_per_node);
}

/// One communication phase of the main loop: its cost-model time plus the
/// mean message size (what one retransmission re-sends) and the total
/// bytes received (what a payload-integrity pass checksums).
struct CommPhase {
  double seconds = 0.0;
  double retry_bytes = 0.0;
  double verify_bytes = 0.0;
};

struct CommTimes {
  CommPhase repl_to_trans;
  CommPhase trans_to_chem;
  CommPhase chem_to_repl;
  CommPhase trans_to_repl;
};

CommPhase comm_phase_of(const RedistributionStats& stats,
                        const MachineModel& machine) {
  CommPhase p;
  p.seconds = stats.phase_seconds(machine);
  p.retry_bytes = stats.total_messages > 0.0
                      ? stats.total_network_bytes / stats.total_messages
                      : 0.0;
  p.verify_bytes = stats.total_network_bytes;
  return p;
}

CommTimes plan_comm_times(const WorkTrace& trace, const MachineModel& machine,
                          int nodes, DimDist chemistry_dist) {
  AirshedLayouts layouts =
      AirshedLayouts::make(trace.species, trace.layers, trace.points, nodes);
  if (chemistry_dist == DimDist::Cyclic) {
    layouts.chem = Layout3::cyclic(
        {trace.species, trace.layers, trace.points}, kNodesDim, nodes);
  }
  CommTimes ct;
  ct.repl_to_trans = comm_phase_of(
      plan_redistribution(layouts.repl, layouts.trans, machine.word_size),
      machine);
  ct.trans_to_chem = comm_phase_of(
      plan_redistribution(layouts.trans, layouts.chem, machine.word_size),
      machine);
  ct.chem_to_repl = comm_phase_of(
      plan_redistribution(layouts.chem, layouts.repl, machine.word_size),
      machine);
  ct.trans_to_repl = comm_phase_of(
      plan_redistribution(layouts.trans, layouts.repl, machine.word_size),
      machine);
  return ct;
}

/// Transport phase time. With row parallelism R > 1 (the 1-D baseline),
/// a layer's work divides over R independent rows: the phase behaves like
/// layers * R uniform units.
PhaseMaxima transport_phase_work(std::span<const double> layer_work,
                                 int nodes, std::size_t row_parallelism,
                                 const FaultCtx& fault,
                                 bool want_per_node = false) {
  if (row_parallelism <= 1) {
    return max_block_work(layer_work, nodes, fault, want_per_node);
  }
  double total = 0.0;
  for (double w : layer_work) total += w;
  const std::size_t units = layer_work.size() * row_parallelism;
  const std::size_t used = std::min<std::size_t>(units, nodes);
  const double max_units = static_cast<double>((units + used - 1) / used);
  PhaseMaxima m;
  m.nominal = total / static_cast<double>(units) * max_units;
  m.inflated = m.nominal * max_slowdown(fault, static_cast<int>(used));
  if (want_per_node) {
    // Uniform units: every used node carries the nominal load, scaled by
    // its own straggler factor.
    m.per_node.assign(static_cast<std::size_t>(nodes), 0.0);
    for (std::size_t i = 0; i < used; ++i) {
      m.per_node[i] = m.nominal * node_slowdown(fault, static_cast<int>(i));
    }
  }
  return m;
}

double hour_main_seconds_impl(const HourTrace& hour,
                              const MachineModel& machine, int nodes,
                              const CommTimes& ct, DimDist chemistry_dist,
                              std::size_t row_parallelism,
                              RunLedger* ledger, CommBreakdown* comm,
                              const FaultCtx& fault,
                              obs::VirtualTimeline* tl = nullptr,
                              double tl_offset = 0.0) {
  double total = 0.0;
  const bool per_node = tl && tl->per_node;
  auto charge = [&](PhaseCategory cat, const char* name, double seconds) {
    if (tl) tl->emit(name, cat, -1, fault.hour, tl_offset + total, seconds);
    total += seconds;
    if (ledger) ledger->charge(cat, name, seconds);
  };
  // A compute phase contributes its straggler-inflated maximum; the nominal
  // part goes to the phase's own category, the inflation to Recovery.
  auto charge_compute = [&](PhaseCategory cat, const char* name,
                            const PhaseMaxima& work) {
    const double start = tl_offset + total;
    charge(cat, name, machine.compute_time(work.nominal));
    const double inflation = machine.compute_time(work.inflated - work.nominal);
    if (inflation > 0.0) {
      charge(PhaseCategory::Recovery, "straggler inflation", inflation);
      fault.recovery.straggler_s += inflation;
    }
    if (per_node) {
      // Each node's own busy time inside the barrier (the shared-track
      // span above is the barrier itself, waiting for the maximum).
      for (std::size_t n = 0; n < work.per_node.size(); ++n) {
        tl->emit(name, cat, static_cast<int>(n), fault.hour, start,
                 machine.compute_time(work.per_node[n]));
      }
    }
  };
  long long comm_seq = 0;  // comm phase index within this hour (drop key)
  auto charge_comm = [&](const char* name, const CommPhase& phase,
                         double CommBreakdown::* member) {
    charge(PhaseCategory::Communication, name, phase.seconds);
    if (comm) {
      comm->*member += phase.seconds;
      ++comm->phases;
    }
    const int drops = fault.plan.drops(fault.hour, comm_seq);
    for (int k = 0; k < drops; ++k) {
      // Each dropped message re-sends once (L + G*b) after a bounded
      // exponential backoff.
      const double backoff =
          std::min(fault.retry.backoff_base_s * std::ldexp(1.0, k),
                   fault.retry.backoff_max_s);
      const double retry_s =
          backoff + machine.comm_time(1.0, phase.retry_bytes, 0.0);
      charge(PhaseCategory::Recovery, "retransmission", retry_s);
      fault.recovery.retransmit_s += retry_s;
      ++fault.recovery.retransmissions;
    }
    if (fault.plan.has_payload_corruption()) {
      // With payload corruption possible, every delivery is checksummed
      // (an FNV-1a pass over the received bytes, modeled at the local
      // copy rate) — the detection cost is paid whenever the class is
      // enabled, corrupt or not.
      const double check_s = machine.copy_per_byte_s * phase.verify_bytes;
      charge(PhaseCategory::Recovery, "payload verify", check_s);
      fault.recovery.verify_s += check_s;
      const int bad = fault.plan.payload_corruptions(fault.hour, comm_seq);
      for (int k = 0; k < bad; ++k) {
        // A corrupt payload retransmits like a drop, plus the re-checksum
        // of the retransmitted bytes.
        const double backoff =
            std::min(fault.retry.backoff_base_s * std::ldexp(1.0, k),
                     fault.retry.backoff_max_s);
        const double retry_s =
            backoff + machine.comm_time(1.0, phase.retry_bytes, 0.0) +
            machine.copy_per_byte_s * phase.retry_bytes;
        charge(PhaseCategory::Recovery, "payload retransmission", retry_s);
        fault.recovery.retransmit_s += retry_s;
        ++fault.recovery.retransmissions;
      }
    }
    ++comm_seq;
  };

  const std::size_t nsteps = hour.steps.size();
  for (std::size_t j = 0; j < nsteps; ++j) {
    const StepTrace& step = hour.steps[j];
    if (j == 0) {
      // Array replicated after inputhour; distribute for transport.
      charge_comm("D_Repl->D_Trans", ct.repl_to_trans,
                  &CommBreakdown::repl_to_trans_s);
    }
    charge_compute(PhaseCategory::Transport, "transport (first half)",
                   transport_phase_work(step.transport1_layer_work, nodes,
                                        row_parallelism, fault, per_node));
    charge_comm("D_Trans->D_Chem", ct.trans_to_chem,
                &CommBreakdown::trans_to_chem_s);
    charge_compute(PhaseCategory::Chemistry, "chemistry + vertical",
                   max_distributed_work(step.chem_column_work, nodes,
                                        chemistry_dist, fault, per_node));
    // Aerosol requires replication (paper §2.2): D_Chem -> D_Repl, then the
    // replicated aerosol step on every node (the barrier waits for the
    // slowest straggler).
    charge_comm("D_Chem->D_Repl", ct.chem_to_repl,
                &CommBreakdown::chem_to_repl_s);
    PhaseMaxima aerosol{step.aerosol_work,
                        step.aerosol_work * max_slowdown(fault, nodes),
                        {}};
    if (per_node) {
      aerosol.per_node.assign(static_cast<std::size_t>(nodes), 0.0);
      for (int n = 0; n < nodes; ++n) {
        aerosol.per_node[static_cast<std::size_t>(n)] =
            step.aerosol_work * node_slowdown(fault, n);
      }
    }
    charge_compute(PhaseCategory::Aerosol, "aerosol (replicated)", aerosol);
    charge_comm("D_Repl->D_Trans", ct.repl_to_trans,
                &CommBreakdown::repl_to_trans_s);
    charge_compute(PhaseCategory::Transport, "transport (second half)",
                   transport_phase_work(step.transport2_layer_work, nodes,
                                        row_parallelism, fault, per_node));
    // Consecutive steps chain transport->transport with no redistribution.
  }
  // Hour boundary: gather to replicated for outputhour / next inputhour.
  charge_comm("D_Trans->D_Repl", ct.trans_to_repl,
              &CommBreakdown::trans_to_repl_s);
  return total;
}

void merge_comm(CommBreakdown& into, const CommBreakdown& from) {
  into.repl_to_trans_s += from.repl_to_trans_s;
  into.trans_to_chem_s += from.trans_to_chem_s;
  into.chem_to_repl_s += from.chem_to_repl_s;
  into.trans_to_repl_s += from.trans_to_repl_s;
  into.phases += from.phases;
}

/// A sequential I/O stage runs on logical node 0; a straggling host
/// inflates it. Returns the actual (inflated) duration and charges nominal +
/// inflation. Timeline: one span on node 0's track (the node that computes
/// while the others wait).
double charge_io_stage(RunLedger& ledger, const FaultCtx& fault,
                       const char* name, double nominal_s,
                       obs::VirtualTimeline* tl, double tl_offset) {
  ledger.charge(PhaseCategory::IoProcessing, name, nominal_s);
  const double inflation = nominal_s * (node_slowdown(fault, 0) - 1.0);
  if (inflation > 0.0) {
    ledger.charge(PhaseCategory::Recovery, "straggler inflation", inflation);
    fault.recovery.straggler_s += inflation;
  }
  if (tl) {
    tl->emit(name, PhaseCategory::IoProcessing, 0, fault.hour, tl_offset,
             nominal_s + inflation);
  }
  return nominal_s + inflation;
}

/// Cost of re-laying the chemistry decomposition out over fewer nodes
/// (restart after a failure), via the redistribution engine.
double shrink_relayout_seconds(const WorkTrace& trace,
                               const MachineModel& machine, int old_nodes,
                               int new_nodes, DimDist chemistry_dist) {
  const std::array<std::size_t, 3> shape{trace.species, trace.layers,
                                         trace.points};
  auto chem_layout = [&](int p) {
    return chemistry_dist == DimDist::Cyclic
               ? Layout3::cyclic(shape, kNodesDim, p)
               : Layout3::block(shape, kNodesDim, p);
  };
  return plan_redistribution(chem_layout(old_nodes), chem_layout(new_nodes),
                             machine.word_size)
      .phase_seconds(machine);
}

/// Data-parallel execution (paper §2.2) under a fault plan: barrier phases
/// with straggler-inflated maxima, retransmitted drops, hourly checkpoints
/// at the D_Chem -> D_Repl boundary, and restart-from-checkpoint on node
/// failure. Charges since the last checkpoint are withheld in an "epoch"
/// ledger: a failure discards the epoch wholesale and re-charges its time
/// as Recovery lost work, so report.ledger always decomposes exactly
/// report.total_seconds. An empty plan runs the same path and charges
/// nothing to Recovery: no slowdown, drop, failure or checkpoint.
RunReport simulate_data_parallel(const WorkTrace& trace,
                                 const ExecutionConfig& config) {
  const FaultPlan& plan = config.faults;
  const MachineModel& machine = config.machine;

  RunReport report;
  report.machine = machine.name;
  report.nodes = config.nodes;
  report.strategy = Strategy::DataParallel;
  RecoveryReport& rec = report.recovery;

  const bool ckpt_on = plan.options().node_mtbf_hours > 0.0 &&
                       config.checkpoint.interval_hours > 0;
  const double write_rate = config.checkpoint.write_byte_s >= 0.0
                                ? config.checkpoint.write_byte_s
                                : machine.copy_per_byte_s;
  const double state_bytes =
      static_cast<double>(trace.species * trace.layers * trace.points *
                          machine.word_size);
  const double archive_write_s =
      write_rate * state_bytes + config.checkpoint.fixed_latency_s;

  std::vector<int> alive(static_cast<std::size_t>(config.nodes));
  std::iota(alive.begin(), alive.end(), 0);
  int nodes = config.nodes;

  CommTimes ct = plan_comm_times(trace, machine, nodes, config.chemistry_dist);
  // Checkpoint: the hour-boundary gather traffic plus the archive write.
  double ckpt_cost = ct.trans_to_repl.seconds + archive_write_s;

  double total = 0.0;
  double since_ckpt = 0.0;     // virtual time a failure would discard
  std::size_t ckpt_hour = 0;   // restartable from the start of this hour
  RunLedger epoch;             // withheld charges since the last checkpoint
  CommBreakdown epoch_comm;
  RecoveryReport epoch_rec;    // straggler/retransmit/checkpoint counters

  // Checkpoint generation chain, as a CheckpointVault would hold it. The
  // artifact index is monotonic across the whole run — a checkpoint
  // rewritten during a replay is a *new* artifact with an independent
  // storage-fault draw (otherwise a corrupt generation would deterministically
  // re-corrupt forever).
  struct Gen {
    std::size_t hour = 0;
    long long artifact = 0;
  };
  std::vector<Gen> gens;
  long long artifact_counter = 0;
  // Hours below this bound are replays forced by a corrupt newest
  // checkpoint; their whole duration is resilience overhead.
  std::size_t fallback_until = 0;
  const bool storage_on = plan.has_storage_faults();
  // Restore-time integrity verification: one read+checksum pass per
  // candidate generation, at the local copy rate.
  const double verify_cost = machine.copy_per_byte_s * state_bytes;

  auto commit_epoch = [&] {
    report.ledger.merge(epoch);
    merge_comm(report.comm, epoch_comm);
    rec.checkpoints += epoch_rec.checkpoints;
    rec.retransmissions += epoch_rec.retransmissions;
    rec.checkpoint_s += epoch_rec.checkpoint_s;
    rec.retransmit_s += epoch_rec.retransmit_s;
    rec.straggler_s += epoch_rec.straggler_s;
    rec.fallback_s += epoch_rec.fallback_s;
    rec.verify_s += epoch_rec.verify_s;
    epoch = RunLedger{};
    epoch_comm = CommBreakdown{};
    epoch_rec = RecoveryReport{};
  };

  // Hour evaluations are pure functions of (hour, nodes, alive, ct), so
  // the hours of a failure-free segment — everything up to the next death
  // among the currently alive nodes — evaluate concurrently on the worker
  // pool. The recovery replay below consumes them strictly in hour order,
  // exactly as the serial loop would, so ledgers, communication totals and
  // Recovery accounting are bit-identical at every thread count. A failure
  // changes the node set and invalidates the cache; the replayed hours are
  // then re-evaluated (pooled again) against the shrunken machine.
  par::WorkerPool pool(config.host_threads);
  obs::VirtualTimeline* run_tl = config.timeline;
  struct HourEval {
    double t_hour = 0.0;
    RunLedger ledger;
    CommBreakdown comm;
    RecoveryReport rec;
    obs::VirtualTimeline tl;  ///< hour-local spans, offsets from hour start
    bool valid = false;
  };
  std::vector<HourEval> cache(trace.hours.size());

  auto evaluate_hour = [&](std::size_t hh) {
    HourEval& e = cache[hh];
    e = HourEval{};
    obs::VirtualTimeline* tl = nullptr;
    if (run_tl) {
      e.tl.per_node = run_tl->per_node;
      tl = &e.tl;
    }
    const HourTrace& hour = trace.hours[hh];
    const FaultCtx ctx{plan, &alive, static_cast<int>(hh), config.retry,
                       e.rec};
    e.t_hour = charge_io_stage(
        e.ledger, ctx, "inputhour + pretrans",
        machine.compute_time(hour.input_work + hour.pretrans_work), tl, 0.0);
    e.t_hour += hour_main_seconds_impl(hour, machine, nodes, ct,
                                       config.chemistry_dist,
                                       trace.transport_row_parallelism,
                                       &e.ledger, &e.comm, ctx, tl, e.t_hour);
    e.t_hour += charge_io_stage(e.ledger, ctx, "outputhour",
                                machine.compute_time(hour.output_work), tl,
                                e.t_hour);
    e.valid = true;
  };

  // Evaluates [from, end of the current failure-free segment] in parallel
  // (the segment's last hour is the one a death interrupts; it is still
  // evaluated tentatively, exactly like the serial replay).
  auto evaluate_segment = [&](std::size_t from) {
    double death = std::numeric_limits<double>::infinity();
    for (int node : alive) death = std::min(death, plan.failure_hour(node));
    std::size_t end = trace.hours.size();
    if (death < static_cast<double>(end)) {
      end = std::min(end, static_cast<std::size_t>(std::max(death, 0.0)) + 1);
    }
    end = std::max(end, from + 1);
    pool.for_each(end - from,
                  [&](int, std::size_t i) { evaluate_hour(from + i); });
  };

  std::size_t h = 0;
  while (h < trace.hours.size()) {
    const int hour_i = static_cast<int>(h);
    if (!cache[h].valid) evaluate_segment(h);
    const double t_hour = cache[h].t_hour;
    const RunLedger& hour_ledger = cache[h].ledger;
    const CommBreakdown& hour_comm = cache[h].comm;
    const RecoveryReport& hour_rec = cache[h].rec;

    // Earliest failure among the surviving nodes during this hour.
    int dying_idx = -1;
    double death_hour = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const double t = plan.failure_hour(alive[i]);
      if (t < static_cast<double>(h) + 1.0 && t < death_hour) {
        death_hour = t;
        dying_idx = static_cast<int>(i);
      }
    }

    if (dying_idx >= 0) {
      const int dead = alive[static_cast<std::size_t>(dying_idx)];
      const double fraction =
          std::clamp(death_hour - static_cast<double>(h), 0.0, 1.0);
      const double spent = fraction * t_hour;
      const double lost = since_ckpt + spent;
      alive.erase(alive.begin() + dying_idx);
      --nodes;
      if (nodes < 1) {
        throw Error("fault injection killed every node before hour " +
                    std::to_string(h + 1) + " completed");
      }
      const double relayout = shrink_relayout_seconds(
          trace, machine, nodes + 1, nodes, config.chemistry_dist);

      // Pick the restart point. Without storage faults the newest
      // checkpoint is valid by construction; with them, scan the chain
      // newest -> oldest, charging one verification pass per candidate and
      // quarantining corrupt generations, exactly as
      // CheckpointVault::restore_newest_valid does on real files.
      std::size_t restore_hour = ckpt_hour;
      double verify_total = 0.0;
      double restore = archive_write_s;  // read back = write cost model
      if (storage_on) {
        bool restored = false;
        while (!gens.empty()) {
          const Gen g = gens.back();
          verify_total += verify_cost;
          if (plan.storage_fault(static_cast<int>(g.hour), g.artifact) !=
              durable::StorageFaultKind::None) {
            gens.pop_back();  // quarantined
            ++rec.corrupt_checkpoints;
            continue;
          }
          restore_hour = g.hour;
          restored = true;
          break;
        }
        if (!restored) {
          // Every generation was corrupt (or none was ever written): fall
          // back to the initial conditions — nothing to read back.
          restore_hour = 0;
          restore = 0.0;
        }
        if (restore_hour < ckpt_hour) {
          rec.fallback_hours +=
              static_cast<double>(ckpt_hour - restore_hour);
          fallback_until = ckpt_hour;
        }
      }

      if (run_tl) {
        // Recovery sequence on the shared track: the interrupted partial
        // hour (on the dead node's own track), the shrink re-layout, then
        // verify + restore of the checkpoint chain.
        double at = total;
        run_tl->emit("interrupted hour (node failure)",
                     PhaseCategory::Recovery, dead, hour_i, at, spent);
        at += spent;
        run_tl->emit("re-layout onto survivors", PhaseCategory::Recovery, -1,
                     hour_i, at, relayout);
        at += relayout;
        if (verify_total > 0.0) {
          run_tl->emit("checkpoint verify", PhaseCategory::Recovery, -1,
                       hour_i, at, verify_total);
          at += verify_total;
        }
        if (restore > 0.0) {
          run_tl->emit("checkpoint restore", PhaseCategory::Recovery, -1,
                       hour_i, at, restore);
        }
      }
      total += spent + relayout + restore + verify_total;
      report.ledger.charge(PhaseCategory::Recovery, "lost work (rollback)",
                           lost);
      report.ledger.charge(PhaseCategory::Recovery, "re-layout onto survivors",
                           relayout);
      if (restore > 0.0) {
        report.ledger.charge(PhaseCategory::Recovery, "checkpoint restore",
                             restore);
      }
      if (verify_total > 0.0) {
        report.ledger.charge(PhaseCategory::Recovery, "checkpoint verify",
                             verify_total);
      }
      rec.lost_work_s += lost;
      rec.relayout_s += relayout;
      rec.restore_s += restore;
      rec.verify_s += verify_total;
      rec.failures.push_back(
          FailureEvent{dead, hour_i, fraction, lost, relayout, nodes});
      // Discard the epoch (its time is now accounted as lost work) and
      // replay from the restart point on the shrunken machine.
      epoch = RunLedger{};
      epoch_comm = CommBreakdown{};
      epoch_rec = RecoveryReport{};
      since_ckpt = 0.0;
      ckpt_hour = restore_hour;
      // The node set changed: every cached hour cost is stale.
      for (HourEval& e : cache) e.valid = false;
      ct = plan_comm_times(trace, machine, nodes, config.chemistry_dist);
      ckpt_cost = ct.trans_to_repl.seconds + archive_write_s;
      h = restore_hour;
      continue;
    }

    // Hour survived: fold it into the current epoch.
    if (h < fallback_until) {
      // Replay of an hour older than the newest checkpoint, forced by a
      // corrupt generation: its first execution is already committed under
      // the normal categories, so the whole replay is resilience overhead.
      epoch.charge(PhaseCategory::Recovery, "corrupt-checkpoint fallback",
                   t_hour);
      epoch_rec.fallback_s += t_hour;
      if (run_tl) {
        run_tl->emit("corrupt-checkpoint fallback (replay)",
                     PhaseCategory::Recovery, -1, hour_i, total, t_hour);
      }
    } else {
      epoch.merge(hour_ledger);
      merge_comm(epoch_comm, hour_comm);
      epoch_rec.retransmissions += hour_rec.retransmissions;
      epoch_rec.retransmit_s += hour_rec.retransmit_s;
      epoch_rec.straggler_s += hour_rec.straggler_s;
      epoch_rec.verify_s += hour_rec.verify_s;
      if (run_tl) run_tl->append(std::move(cache[h].tl), total);
    }
    total += t_hour;
    since_ckpt += t_hour;
    ++h;

    if (ckpt_on && h < trace.hours.size() &&
        h - ckpt_hour >=
            static_cast<std::size_t>(config.checkpoint.interval_hours)) {
      epoch.charge(PhaseCategory::Recovery, "checkpoint", ckpt_cost);
      epoch_rec.checkpoint_s += ckpt_cost;
      ++epoch_rec.checkpoints;
      if (run_tl) {
        run_tl->emit("checkpoint (gather + write)", PhaseCategory::Recovery,
                     -1, static_cast<int>(h) - 1, total, ckpt_cost);
      }
      total += ckpt_cost;
      commit_epoch();
      since_ckpt = 0.0;
      ckpt_hour = h;
      gens.push_back(Gen{h, artifact_counter++});
    }
  }
  commit_epoch();
  rec.final_nodes = nodes;
  report.total_seconds = total;
  return report;
}

/// Per-hour stage durations of the Fig 8 pipeline under a fault plan, with
/// deterministic subgroup placement: input on node 0, the main group on
/// nodes 1..main_nodes, output on node main_nodes + 1. Stragglers inflate
/// each stage's hour durations; drops charge retransmissions into the main
/// stage. Hours are independent and evaluate concurrently, each into its
/// own slots; their Recovery counters are summed into `recovery` in hour
/// order, so the result is bit-identical for every thread count.
HourStageTimes stage_times(const WorkTrace& trace, const MachineModel& machine,
                           int main_nodes, DimDist chemistry_dist,
                           int host_threads, const FaultPlan& plan,
                           const RetryPolicy& retry,
                           RecoveryReport& recovery) {
  if (main_nodes < 1) {
    throw ConfigError(
        "pipeline_stage_times: main subgroup needs at least one node (got " +
        std::to_string(main_nodes) + ")");
  }
  std::vector<int> main_phys(static_cast<std::size_t>(main_nodes));
  std::iota(main_phys.begin(), main_phys.end(), 1);
  const CommTimes ct =
      plan_comm_times(trace, machine, main_nodes, chemistry_dist);
  HourStageTimes st;
  const std::size_t hours = trace.hours.size();
  st.input_s.resize(hours);
  st.main_s.resize(hours);
  st.output_s.resize(hours);
  std::vector<RecoveryReport> hour_rec(hours);
  par::WorkerPool pool(host_threads);
  pool.for_each(hours, [&](int, std::size_t h) {
    const HourTrace& hour = trace.hours[h];
    const int hour_no = static_cast<int>(h);
    const FaultCtx ctx{plan, &main_phys, hour_no, retry, hour_rec[h]};
    st.input_s[h] =
        machine.compute_time(hour.input_work + hour.pretrans_work) *
        plan.slowdown(hour_no, 0);
    st.main_s[h] = hour_main_seconds_impl(
        hour, machine, main_nodes, ct, chemistry_dist,
        trace.transport_row_parallelism, nullptr, nullptr, ctx);
    st.output_s[h] = machine.compute_time(hour.output_work) *
                     plan.slowdown(hour_no, main_nodes + 1);
  });
  for (const RecoveryReport& r : hour_rec) {
    recovery.straggler_s += r.straggler_s;
    recovery.retransmit_s += r.retransmit_s;
    recovery.retransmissions += r.retransmissions;
    recovery.verify_s += r.verify_s;
  }
  return st;
}

}  // namespace

std::string to_string(Strategy s) {
  switch (s) {
    case Strategy::DataParallel:        return "data-parallel";
    case Strategy::TaskAndDataParallel: return "task+data-parallel";
  }
  return "unknown";
}

double hour_main_seconds(const WorkTrace& trace, std::size_t hour_index,
                         const MachineModel& machine, int nodes,
                         RunLedger* ledger, CommBreakdown* comm) {
  AIRSHED_REQUIRE(hour_index < trace.hours.size(), "hour index out of range");
  if (nodes < 1) {
    throw ConfigError("hour_main_seconds: nodes must be >= 1 (got " +
                      std::to_string(nodes) + ")");
  }
  const CommTimes ct = plan_comm_times(trace, machine, nodes, DimDist::Block);
  const FaultPlan none;
  const RetryPolicy retry;
  RecoveryReport unused;
  return hour_main_seconds_impl(
      trace.hours[hour_index], machine, nodes, ct, DimDist::Block,
      trace.transport_row_parallelism, ledger, comm,
      FaultCtx{none, nullptr, static_cast<int>(hour_index), retry, unused});
}

HourStageTimes pipeline_stage_times(const WorkTrace& trace,
                                    const MachineModel& machine,
                                    int main_nodes, DimDist chemistry_dist,
                                    int host_threads) {
  RecoveryReport unused;
  return stage_times(trace, machine, main_nodes, chemistry_dist, host_threads,
                     FaultPlan{}, RetryPolicy{}, unused);
}

RunReport simulate_execution(const WorkTrace& trace,
                             const ExecutionConfig& config) {
  validate_config(trace, config);
  if (config.strategy == Strategy::DataParallel) {
    return simulate_data_parallel(trace, config);
  }

  // Task + data parallel: 3-stage pipeline on disjoint subgroups (Fig 8).
  // validate_config already rejected failure plans here.
  RunReport report;
  report.machine = config.machine.name;
  report.nodes = config.nodes;
  report.strategy = config.strategy;
  const PipelineAllocation alloc = allocate_pipeline_nodes(config.nodes);
  const HourStageTimes st =
      stage_times(trace, config.machine, alloc.main_nodes,
                  config.chemistry_dist, config.host_threads, config.faults,
                  config.retry, report.recovery);
  report.recovery.final_nodes = config.nodes;
  report.total_seconds =
      pipeline_makespan({st.input_s, st.main_s, st.output_s});
  // On small machines, giving up two main-loop nodes costs more than the
  // overlap gains; the task mapper then folds the I/O tasks back onto the
  // full machine (equivalent to the data-parallel schedule). This is why
  // the paper's Fig 9 curves coincide at small node counts.
  ExecutionConfig dp_config = config;
  dp_config.strategy = Strategy::DataParallel;
  // No timeline under the pipelined strategy (stages overlap — a single
  // virtual clock has no meaning), including the folded-back DP candidate.
  dp_config.timeline = nullptr;
  const RunReport data_parallel = simulate_execution(trace, dp_config);
  if (data_parallel.total_seconds < report.total_seconds) {
    report.total_seconds = data_parallel.total_seconds;
    report.ledger = data_parallel.ledger;
    report.comm = data_parallel.comm;
    report.recovery = data_parallel.recovery;
    return report;
  }
  // The ledger records per-stage busy time (stages overlap, so the ledger
  // total exceeds the pipeline makespan).
  for (std::size_t h = 0; h < trace.hours.size(); ++h) {
    report.ledger.charge(PhaseCategory::IoProcessing, "input stage",
                         st.input_s[h]);
    report.ledger.charge(PhaseCategory::Chemistry, "main stage", st.main_s[h]);
    report.ledger.charge(PhaseCategory::IoProcessing, "output stage",
                         st.output_s[h]);
  }
  return report;
}

}  // namespace airshed
