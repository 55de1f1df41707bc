// Deterministic, seed-driven fault injection for the simulated Fx runtime.
//
// The paper's cost model (§4) predicts Airshed's behaviour on unperturbed
// machines; production runs are dominated by what that model omits — node
// failures, stragglers and lost messages. A FaultPlan makes those events
// first-class and *reproducible*: every fault is drawn once, up front, from
// a splitmix64 seed, and is indexed by simulated time (hour, node, phase),
// never by wall clock or evaluation order. Replaying a run with the same
// plan therefore produces bit-identical timings, and a restarted hour sees
// exactly the faults of its first execution.
//
// Five fault classes (paper-style cost parameters throughout):
//   * permanent node failures — per-node death times, exponential with the
//     configured per-node MTBF (the machine-level MTBF is mtbf/P);
//   * stragglers — per node-hour slowdown factors drawn from a bounded
//     Pareto (heavy-tailed, as production slowdowns are), inflating the
//     barrier-synchronized phase maxima;
//   * message drops — per communication phase, each drop charging one
//     retransmission (L + G*b) plus bounded exponential backoff;
//   * storage faults — persisted artifacts (checkpoint generations) hit by
//     a torn write, single-bit flip or lost rename, indexed by
//     (hour, artifact) so a replay corrupts exactly the same files;
//   * payload corruption — a redistribution phase delivers bytes whose
//     FNV-1a checksum disagrees, forcing a detect-and-retransmit cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "airshed/durable/container.hpp"

namespace airshed {

/// Distribution parameters of a fault plan. All rates are in simulated
/// (virtual) time; zeros disable the corresponding fault class.
struct FaultModelOptions {
  /// Mean time between permanent failures of ONE node, in simulated hours
  /// (exponential death times; 0 disables failures). The whole-machine MTBF
  /// on P nodes is node_mtbf_hours / P.
  double node_mtbf_hours = 0.0;

  /// Probability that a given node straggles during a given hour.
  double slowdown_probability = 0.0;
  /// Pareto tail index of the straggler slowdown factor (smaller = heavier
  /// tail; 1.5 matches the "extreme variability" regime).
  double slowdown_alpha = 1.5;
  /// Ceiling on the slowdown factor (a straggler is slow, not dead).
  double slowdown_cap = 8.0;

  /// Probability that a communication phase drops a message and must
  /// retransmit. Successive retries of the same phase redrop with the same
  /// probability, up to max_drops_per_phase.
  double message_drop_probability = 0.0;
  /// Retransmission bound per phase (the give-up point of the backoff).
  int max_drops_per_phase = 4;

  /// Probability that a persisted artifact (one checkpoint generation) is
  /// hit by a storage fault — torn write, single-bit flip or lost rename,
  /// equiprobable given a hit. 0 disables the class.
  double storage_fault_probability = 0.0;

  /// Probability that a communication phase delivers a corrupt payload
  /// (detected by checksum) and must retransmit. Successive retries of the
  /// same phase redraw with the same probability, up to
  /// max_drops_per_phase. 0 disables the class — and with it the per-phase
  /// checksum-verification charge (pay-for-what-you-use).
  double payload_corruption_probability = 0.0;

  friend bool operator==(const FaultModelOptions&,
                         const FaultModelOptions&) = default;
};

/// A fully materialized fault schedule for one run: every failure time and
/// straggler factor is fixed at construction; message drops are derived
/// statelessly from (seed, hour, phase) so that replayed hours redraw
/// identical faults regardless of evaluation order.
class FaultPlan {
 public:
  /// The default plan is empty: no faults; the executor runs the same path
  /// and charges nothing to Recovery.
  FaultPlan() = default;

  /// Draws a plan for `nodes` nodes over `horizon_hours` simulated hours.
  static FaultPlan make(std::uint64_t seed, int nodes, int horizon_hours,
                        const FaultModelOptions& opts);

  /// True when the plan injects nothing.
  bool empty() const {
    return !has_failures() && !has_slowdowns() &&
           opts_.message_drop_probability <= 0.0 &&
           opts_.node_mtbf_hours <= 0.0 && !has_storage_faults() &&
           !has_payload_corruption();
  }

  int nodes() const { return nodes_; }
  int horizon_hours() const { return horizon_; }
  std::uint64_t seed() const { return seed_; }
  const FaultModelOptions& options() const { return opts_; }

  /// Simulated hour at which `node` dies (fractional), or infinity if it
  /// survives the horizon.
  double failure_hour(int node) const;
  bool has_failures() const { return failure_count_ > 0; }
  int failure_count() const { return failure_count_; }

  /// Slowdown factor (>= 1) of `node` during simulated hour `hour`;
  /// 1.0 outside the horizon or for a plan without stragglers.
  double slowdown(int hour, int node) const;
  bool has_slowdowns() const { return !slowdown_.empty(); }

  /// Number of dropped messages of the `phase_seq`-th communication phase
  /// of simulated hour `hour` (stateless: a replayed hour drops the same
  /// messages). Bounded by max_drops_per_phase.
  int drops(int hour, long long phase_seq) const;

  /// Storage fault hitting the `artifact`-th persisted artifact, written at
  /// simulated hour `hour` (stateless in (seed, hour, artifact): replays
  /// corrupt exactly the same generations). The artifact index must be
  /// monotonic across the run — never reused for a rewritten file — so a
  /// checkpoint rewritten after a rollback gets a fresh, independent draw.
  durable::StorageFaultKind storage_fault(int hour, long long artifact) const;
  /// Seed for the fault's free parameters (truncation byte, flipped bit),
  /// derived from the same (seed, hour, artifact) index.
  std::uint64_t storage_fault_seed(int hour, long long artifact) const;
  bool has_storage_faults() const {
    return opts_.storage_fault_probability > 0.0;
  }

  /// Number of corrupt-payload deliveries of the `phase_seq`-th
  /// communication phase of hour `hour` (stateless, like drops; bounded by
  /// max_drops_per_phase). Each one is detected by checksum and charges a
  /// retransmission.
  int payload_corruptions(int hour, long long phase_seq) const;
  bool has_payload_corruption() const {
    return opts_.payload_corruption_probability > 0.0;
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::uint64_t seed_ = 0;
  int nodes_ = 0;
  int horizon_ = 0;
  int failure_count_ = 0;
  FaultModelOptions opts_;
  std::vector<double> failure_hour_;  ///< per node; +inf = survives
  std::vector<double> slowdown_;      ///< [hour * nodes + node]; empty = none
};

}  // namespace airshed
