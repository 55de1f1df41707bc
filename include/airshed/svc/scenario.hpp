// airshed::svc — parameterized scenario specs and seeded job mixes.
//
// A scenario is one fully-determined model run: a base dataset (TEST / LA /
// NE, or a procedural "city:..." spec — see airshed/city/options.hpp),
// policy control knobs (the paper's motivating emission-control studies),
// an ensemble emission perturbation, and an episode length. A
// batch is a vector of scenarios drawn deterministically from one batch
// seed, with episode lengths following a bounded Pareto — production
// parallel workloads are heavy-tailed (arXiv:1801.03898), so the job mix
// the supervisor is benchmarked against must be too.
//
// Everything here is pure in the seed: the same (batch_seed, JobMixOptions)
// produce byte-identical specs on every platform and thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "airshed/core/uniform_model.hpp"
#include "airshed/io/dataset.hpp"

namespace airshed::svc {

class SharedInputCache;

/// One parameterized run: everything the supervisor needs to (re)build the
/// scenario's inputs from scratch, deterministically.
struct ScenarioSpec {
  int id = 0;                 ///< unique within the batch, >= 0
  std::string name;           ///< human-readable label ("scn-007")
  /// Base geography: TEST | LA | NE, or a "city:..." procedural spec
  /// string (fully self-describing, so it journals and resumes like the
  /// fixed names).
  std::string dataset = "TEST";
  int hours = 4;              ///< episode length (heavy-tailed in a job mix)
  ControlScenario controls;   ///< per-group policy knobs (NOx/VOC/CO/SO2/NH3)
  /// Ensemble multiplier applied on top of `controls` to every emission
  /// group (emission-uncertainty perturbation).
  double emission_perturbation = 1.0;

  /// Memberwise equality (ControlScenario compares memberwise too): a new
  /// spec field is compared automatically instead of silently escaping.
  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Parameters of a seeded batch job mix.
struct JobMixOptions {
  int scenarios = 32;
  std::string dataset = "TEST";
  /// Episode lengths: bounded Pareto on [hours_min, hours_max] with tail
  /// index `hours_alpha` (smaller = heavier tail).
  int hours_min = 2;
  int hours_max = 8;
  double hours_alpha = 1.1;
  /// Policy knobs drawn uniformly in [control_lo, control_hi] per group.
  double control_lo = 0.7;
  double control_hi = 1.3;
  /// Emission-perturbation range (multiplicative, around 1).
  double perturbation_lo = 0.9;
  double perturbation_hi = 1.1;
};

/// Bounded-Pareto sample on [lo, hi] with tail index alpha, from a uniform
/// u in [0, 1). Shared with the fault straggler model's distribution family.
double bounded_pareto(double u, double lo, double hi, double alpha);

/// Draws `opts.scenarios` specs deterministically from `batch_seed`.
/// Scenario ids are 0..n-1; every field is pure in (batch_seed, id).
std::vector<ScenarioSpec> make_job_mix(std::uint64_t batch_seed,
                                       const JobMixOptions& opts = {});

/// The DatasetSpec a scenario resolves to: the named base spec with the
/// scenario's controls (scaled by its emission perturbation) applied.
/// Throws ConfigError for an unknown dataset name or malformed city spec.
DatasetSpec scenario_dataset_spec(const ScenarioSpec& spec);

/// scenario_dataset_spec(spec).target_points without generating a city:
/// the mesh-size half of the supervisor's per-attempt work proxy. Throws
/// like scenario_dataset_spec.
std::size_t scenario_target_points(const ScenarioSpec& spec);

/// Builds the scenario's multiscale dataset. When `poison_stack` is set, a
/// corrupt elevated point source (infinite emission rate) is appended — the
/// supervisor's numerics-fault injection, caught by the SoA block-commit
/// tripwire (kernel::NumericsError) instead of silently propagating.
/// With `cache` non-null the immutable base (mesh + meteorology) comes
/// from the shared input cache and only the emission overlay is built per
/// scenario; the poison stack lives in the overlay, so poisoned scenarios
/// share bases too. Bit-identical with or without a cache.
Dataset build_scenario_dataset(const ScenarioSpec& spec,
                               bool poison_stack = false,
                               SharedInputCache* cache = nullptr);

/// Builds the scenario's coarse uniform-grid counterpart (the graceful-
/// degradation target): same domain / meteorology / controls, `nx` x `ny`
/// cells. Inputs are re-derived from the scenario parameters, so a fine-
/// grid artifact (e.g. a poisoned stack) does not carry over.
UniformDataset build_degraded_dataset(const ScenarioSpec& spec,
                                      std::size_t nx = 8, std::size_t ny = 8);

}  // namespace airshed::svc
