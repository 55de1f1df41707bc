#include "airshed/core/report.hpp"

#include <sstream>

namespace airshed {

std::string summarize_report(const RunReport& report) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed;
  os << report.machine << " P=" << report.nodes << " ("
     << to_string(report.strategy) << "): total " << report.total_seconds
     << " s = chemistry "
     << report.ledger.category_seconds(PhaseCategory::Chemistry)
     << " + transport "
     << report.ledger.category_seconds(PhaseCategory::Transport) << " + I/O "
     << report.ledger.category_seconds(PhaseCategory::IoProcessing)
     << " + aerosol "
     << report.ledger.category_seconds(PhaseCategory::Aerosol)
     << " + communication "
     << report.ledger.category_seconds(PhaseCategory::Communication);
  const double exposure =
      report.ledger.category_seconds(PhaseCategory::Exposure) +
      report.ledger.category_seconds(PhaseCategory::Coupling);
  if (exposure > 0.0) os << " + exposure/coupling " << exposure;
  return os.str();
}

Table phase_table(const RunReport& report) {
  Table t({"phase", "category", "seconds", "count"});
  for (const PhaseRecord& rec : report.ledger.phases()) {
    t.row()
        .add(rec.name)
        .add(to_string(rec.category))
        .add(rec.seconds, 3)
        .add(rec.count);
  }
  return t;
}

void record_metrics(obs::MetricsRegistry& registry, const RunReport& report) {
  registry.gauge("sim/total_seconds", "virtual run time").set(
      report.total_seconds);
  registry.gauge("sim/nodes", "virtual machine nodes").set(report.nodes);

  static constexpr PhaseCategory kCategories[] = {
      PhaseCategory::IoProcessing, PhaseCategory::Transport,
      PhaseCategory::Chemistry,    PhaseCategory::Aerosol,
      PhaseCategory::Communication, PhaseCategory::Exposure,
      PhaseCategory::Coupling,     PhaseCategory::Recovery};
  for (PhaseCategory cat : kCategories) {
    const std::string base = std::string("phase/") + obs::category_label(cat);
    registry.gauge(base + "/seconds", "virtual seconds charged")
        .set(report.ledger.category_seconds(cat));
    registry.gauge(base + "/count", "phase executions")
        .set(static_cast<double>(report.ledger.category_count(cat)));
  }

  registry.gauge("comm/repl_to_trans_s", "D_Repl->D_Trans redistribution")
      .set(report.comm.repl_to_trans_s);
  registry.gauge("comm/trans_to_chem_s", "D_Trans->D_Chem redistribution")
      .set(report.comm.trans_to_chem_s);
  registry.gauge("comm/chem_to_repl_s", "D_Chem->D_Repl redistribution")
      .set(report.comm.chem_to_repl_s);
  registry.gauge("comm/trans_to_repl_s", "hour-boundary gather")
      .set(report.comm.trans_to_repl_s);
  registry.counter("comm/phases", "communication phases executed")
      .inc(report.comm.phases);

  const RecoveryReport& rec = report.recovery;
  if (rec.total_overhead_s() > 0.0 || rec.checkpoints > 0 ||
      !rec.failures.empty()) {
    registry.counter("recovery/checkpoints", "checkpoints written")
        .inc(rec.checkpoints);
    registry.counter("recovery/retransmissions", "messages re-sent")
        .inc(rec.retransmissions);
    registry.counter("recovery/failures", "node failures survived")
        .inc(static_cast<long long>(rec.failures.size()));
    registry.counter("recovery/corrupt_checkpoints",
                     "generations rejected at restore")
        .inc(rec.corrupt_checkpoints);
    registry.gauge("recovery/checkpoint_s", "gather + archive writes")
        .set(rec.checkpoint_s);
    registry.gauge("recovery/lost_work_s", "discarded virtual time")
        .set(rec.lost_work_s);
    registry.gauge("recovery/relayout_s", "re-layout onto survivors")
        .set(rec.relayout_s);
    registry.gauge("recovery/restore_s", "checkpoint read-back")
        .set(rec.restore_s);
    registry.gauge("recovery/retransmit_s", "retries incl. backoff")
        .set(rec.retransmit_s);
    registry.gauge("recovery/straggler_s", "phase-maxima inflation")
        .set(rec.straggler_s);
    registry.gauge("recovery/fallback_s", "corrupt-checkpoint replays")
        .set(rec.fallback_s);
    registry.gauge("recovery/verify_s", "integrity verification passes")
        .set(rec.verify_s);
    registry.gauge("recovery/final_nodes", "survivors at end of run")
        .set(rec.final_nodes);
  }
}

void record_metrics(obs::MetricsRegistry& registry,
                    const HostProfile& profile) {
  registry.gauge("host/threads", "resolved worker-pool size")
      .set(profile.threads);
  registry.gauge("host/setup_s", "wall seconds in pool + solver setup")
      .set(profile.setup_s);
  registry.gauge("host/transport_s", "wall seconds in pooled transport")
      .set(profile.transport_s);
  registry.gauge("host/chemistry_s", "wall seconds in pooled chemistry")
      .set(profile.chemistry_s);
  registry.gauge("host/aerosol_s", "wall seconds in serial aerosol")
      .set(profile.aerosol_s);
  registry.gauge("host/io_s", "wall seconds in inputs + outputhour")
      .set(profile.io_s);
  obs::Histogram& busy = registry.histogram(
      "host/thread_busy_s", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0},
      "CPU seconds per pool thread inside parallel blocks");
  for (double b : profile.thread_busy_s) busy.observe(b);

  // Chemistry-solver counters (summed over per-thread solvers): rate-cache
  // effectiveness and the SIMD lane occupancy of the blocked path.
  registry.counter("chem/rate_cache/hits", "rate-constant cache hits")
      .inc(profile.rate_cache_hits);
  registry
      .counter("chem/rate_cache/shared_hits",
               "lookups served by the batch-scoped shared rate table")
      .inc(profile.rate_cache_shared_hits);
  registry.counter("chem/rate_cache/evals", "full rate-constant evaluations")
      .inc(profile.rate_evals);
  registry.counter("chem/rate_cache/evictions", "single-victim evictions")
      .inc(profile.rate_cache_evictions);
  registry.counter("chem/lanes/dense", "lane-columns swept by dense passes")
      .inc(profile.lane_evals_dense);
  registry.counter("chem/lanes/live", "lane-columns carrying live work")
      .inc(profile.lane_evals_live);
  registry.counter("chem/lanes/swaps", "slot swaps of the corrector partition")
      .inc(profile.slot_swaps);
  registry.counter("chem/block_rounds", "lockstep rounds of blocked solver")
      .inc(profile.block_rounds);
  registry.counter("chem/substeps", "accepted chemistry substeps")
      .inc(profile.chem_substeps);
  if (profile.chem_cut_imbalance > 0.0) {
    registry
        .gauge("chem/cut_imbalance",
               "busiest / mean thread chemistry work under the column cuts")
        .set(profile.chem_cut_imbalance);
  }
  if (profile.lane_evals_dense > 0) {
    registry
        .gauge("chem/lanes/occupancy",
               "live / dense lane fraction of the SIMD chemistry passes")
        .set(static_cast<double>(profile.lane_evals_live) /
             static_cast<double>(profile.lane_evals_dense));
  }
}

Table sweep_table(const WorkTrace& trace, const MachineModel& machine,
                  const std::vector<int>& node_counts, Strategy strategy) {
  Table t({"nodes", "total (s)", "chemistry (s)", "transport (s)",
           "I/O (s)", "comm (s)", "speedup"});
  double first = 0.0;
  for (int p : node_counts) {
    const RunReport r =
        simulate_execution(trace, ExecutionConfig{machine, p, strategy});
    if (first == 0.0) first = r.total_seconds * p;
    t.row()
        .add(p)
        .add(r.total_seconds, 1)
        .add(r.ledger.category_seconds(PhaseCategory::Chemistry), 1)
        .add(r.ledger.category_seconds(PhaseCategory::Transport), 1)
        .add(r.ledger.category_seconds(PhaseCategory::IoProcessing), 1)
        .add(r.ledger.category_seconds(PhaseCategory::Communication), 2)
        .add(first / (r.total_seconds * node_counts.front()), 2);
  }
  return t;
}

}  // namespace airshed
