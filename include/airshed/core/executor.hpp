// Parallel execution simulator: replays a WorkTrace on a simulated machine
// under an execution strategy, reproducing the paper's timing structure.
//
// Data-parallel execution (paper §2.2) serializes barrier-synchronized
// phases; each phase contributes the maximum per-node time:
//   * transport:   layers BLOCK-distributed  -> parallelism min(layers, P)
//   * chemistry:   columns BLOCK-distributed -> parallelism min(points, P)
//   * aerosol:     replicated (every node computes it)
//   * I/O stages:  sequential (one node computes, others wait)
//   * comms:       the D_Repl->D_Trans / D_Trans->D_Chem / D_Chem->D_Repl
//                  redistribution sequence of §2.2, plus a D_Trans->D_Repl
//                  before each outputhour, costed from the actual message
//                  sets of the redistribution engine.
//
// Task+data-parallel execution (paper §5, Fig 8) splits each hour into the
// 3-stage pipeline input | main loop | output on disjoint subgroups and
// reports the pipeline makespan.
#pragma once

#include <string>

#include "airshed/core/worktrace.hpp"
#include "airshed/dist/airshed_layouts.hpp"
#include "airshed/fault/fault_plan.hpp"
#include "airshed/fault/recovery.hpp"
#include "airshed/fxsim/ledger.hpp"
#include "airshed/fxsim/pipeline.hpp"
#include "airshed/machine/machine.hpp"
#include "airshed/obs/trace.hpp"

namespace airshed {

enum class Strategy {
  DataParallel,         ///< pure data parallelism (§2.2)
  TaskAndDataParallel,  ///< pipelined I/O task parallelism (§5)
};

std::string to_string(Strategy s);

struct ExecutionConfig {
  MachineModel machine;
  int nodes = 4;
  Strategy strategy = Strategy::DataParallel;
  /// Distribution of the chemistry phase's `nodes` dimension. The paper's
  /// Fx implementation uses BLOCK; CYCLIC balances the strongly
  /// state-dependent per-column chemistry cost (bench/abl_cyclic_chemistry).
  DimDist chemistry_dist = DimDist::Block;

  /// Fault injection schedule; the default (empty) plan runs the same path
  /// and charges nothing to Recovery. Node-failure injection requires
  /// Strategy::DataParallel (straggler and message-drop injection work
  /// under both strategies).
  FaultPlan faults{};
  /// Checkpointing policy; consulted only when `faults` enables failures.
  CheckpointPolicy checkpoint{};
  /// Retransmission backoff for injected message drops.
  RetryPolicy retry{};

  /// Host worker threads evaluating the per-hour virtual-node costs
  /// (simulated hours are independent given a node set, so they evaluate
  /// concurrently; ledgers, communication totals and Recovery accounting
  /// are reduced in hour order). 0 = AIRSHED_THREADS env or hardware
  /// concurrency. Reports are bit-identical for every value.
  int host_threads = 0;

  /// Optional virtual-timeline sink (airshed::obs): every phase the
  /// simulated machine executes becomes a span in simulated seconds —
  /// barrier phases on the shared track, per-node busy time on per-node
  /// tracks (timeline->per_node), and the Recovery events (checkpoints,
  /// rollback, verify, restore, fallback replay). Spans are appended in
  /// hour order, so the timeline is bit-identical at every host_threads
  /// value. Supported under Strategy::DataParallel (with or without
  /// faults); the pipelined strategy records nothing (stages overlap, so
  /// a single virtual clock has no meaning there). Pass an empty timeline;
  /// purely observational — the report itself is unchanged.
  obs::VirtualTimeline* timeline = nullptr;
};

/// Per-redistribution-kind communication totals (for Figs 5 and 6).
struct CommBreakdown {
  double repl_to_trans_s = 0.0;
  double trans_to_chem_s = 0.0;
  double chem_to_repl_s = 0.0;
  double trans_to_repl_s = 0.0;  ///< hour-boundary gather before outputhour
  long long phases = 0;          ///< number of communication phases executed

  double total() const {
    return repl_to_trans_s + trans_to_chem_s + chem_to_repl_s +
           trans_to_repl_s;
  }
};

struct RunReport {
  std::string machine;
  int nodes = 0;
  Strategy strategy = Strategy::DataParallel;
  double total_seconds = 0.0;
  RunLedger ledger;   ///< per-category virtual time (sums of phase maxima)
  CommBreakdown comm;
  RecoveryReport recovery;  ///< resilience accounting (zero when no faults)

  double speedup_vs(const RunReport& base) const {
    return base.total_seconds / total_seconds;
  }
};

/// Simulates the execution of a traced run under the given configuration.
RunReport simulate_execution(const WorkTrace& trace,
                             const ExecutionConfig& config);

/// Per-hour stage durations of the 3-stage pipeline (exposed so couplings
/// like PopExp can extend the pipeline with more stages).
struct HourStageTimes {
  std::vector<double> input_s;   ///< inputhour + pretrans per hour
  std::vector<double> main_s;    ///< transport/chemistry/comm per hour
  std::vector<double> output_s;  ///< outputhour per hour
};

/// Computes the per-hour stage durations for a given main-subgroup size.
/// Hours are evaluated concurrently on `host_threads` workers (0 = env /
/// hardware default); per-hour values are independent, so the result is
/// bit-identical for every thread count.
HourStageTimes pipeline_stage_times(const WorkTrace& trace,
                                    const MachineModel& machine,
                                    int main_nodes,
                                    DimDist chemistry_dist = DimDist::Block,
                                    int host_threads = 0);

/// Time of the main computation (transport + chemistry + aerosol + comm)
/// of one hour on `nodes` nodes; shared by both strategies.
double hour_main_seconds(const WorkTrace& trace, std::size_t hour_index,
                         const MachineModel& machine, int nodes,
                         RunLedger* ledger, CommBreakdown* comm);

}  // namespace airshed
