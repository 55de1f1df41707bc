// The Airshed model: the Fig 1 main loop.
//
//   DO i = 1, nhrs
//     CALL inputhour(A); CALL pretrans(A)
//     DO j = 1, nsteps
//       CALL transport(A)   ! Lxy, dt/2
//       CALL chemistry(A)   ! Lcz (chemistry + vertical transport) + aerosol
//       CALL transport(A)   ! Lxy, dt/2
//     ENDDO
//     CALL outputhour(A)
//   ENDDO
//
// This class runs the physics on a host worker pool through the blocked SoA
// kernels (the numerics are identical for every thread count and block
// size) and records the WorkTrace that the parallel executor replays on
// simulated machines. It also produces the scientific outputs (hourly
// statistics, final fields) used by the example applications. The uniform
// grid variant (uniform_model.hpp) runs the same hour loop.
#pragma once

#include <functional>
#include <memory>

#include "airshed/chem/youngboris.hpp"
#include "airshed/core/worktrace.hpp"
#include "airshed/kernel/cellblock.hpp"
#include "airshed/io/archive.hpp"
#include "airshed/io/hourly.hpp"
#include "airshed/io/vault.hpp"
#include "airshed/obs/trace.hpp"

namespace airshed {

namespace detail {
class MultiscaleBinding;
}

/// Wall/CPU profile of one model run's host-parallel execution (filled
/// when ModelOptions::profile points at an instance; purely observational,
/// never feeds back into the numerics).
struct HostProfile {
  int threads = 0;          ///< resolved worker-pool size
  double setup_s = 0.0;     ///< wall seconds building (or re-binding) the
                            ///< worker pool and per-thread solver instances
  double transport_s = 0.0; ///< wall seconds inside pooled transport phases
  double chemistry_s = 0.0; ///< wall seconds inside pooled chemistry phases
  double aerosol_s = 0.0;   ///< wall seconds in the (serial) aerosol phase
  double io_s = 0.0;        ///< wall seconds in input generation + outputhour
  /// CPU seconds each pool thread spent inside parallel blocks.
  std::vector<double> thread_busy_s;

  // Chemistry-solver counters for THIS run (snapshot deltas, so a reused
  // ResidentEngine never double-counts), aggregated over the per-thread
  // solvers when the run finishes. record_metrics(HostProfile) exports
  // them through the obs MetricsRegistry, so `airshed_cli trace` prints
  // them per run.
  long long rate_cache_hits = 0;      ///< rate-constant cache hits
  /// Lookups served by the batch-scoped SharedRateTable (resident mode).
  long long rate_cache_shared_hits = 0;
  long long rate_evals = 0;           ///< full rate-constant evaluations
  long long rate_cache_evictions = 0; ///< single-victim cache evictions
  /// Lane-columns swept by the dense SIMD chemistry passes (includes lanes
  /// carried along inside a live vector group).
  long long lane_evals_dense = 0;
  /// Lane-columns that actually held live work. dense/live is the SIMD
  /// occupancy overhead of the lockstep blocked solver.
  long long lane_evals_live = 0;
  /// Slot swaps of the corrector lane partition (the cost of packing the
  /// still-iterating lanes into the fewest vector groups).
  long long slot_swaps = 0;
  long long block_rounds = 0;   ///< lockstep rounds of the blocked solver
  long long chem_substeps = 0;  ///< accepted chemistry substeps (all cells)
  /// Load balance of the chemistry column cuts: the busiest thread's
  /// chem_column_work summed over steps, over the mean thread's, under the
  /// cuts each step actually used (1 = perfect). Built from flop counts,
  /// so it is identical across repeats; 0 when no chemistry step ran.
  double chem_cut_imbalance = 0.0;
};

/// Warm per-run solver state that survives between model runs (the
/// airshed::svc resident-engine mode). A run handed an engine reuses the
/// per-thread SupgTransport / chemistry / vertical-transport instances and
/// their scratch when the engine was last used with the same immutable
/// dataset base (by shared_ptr identity — see io/dataset.hpp), the same
/// transport/chemistry/kernel options, and the same thread count;
/// otherwise the state is rebuilt in place. Reuse skips mesh-sized
/// allocations and operator assembly, and is observable only through
/// HostProfile::setup_s: solver caches are epoch-cleared per run, so
/// results are bit-identical with or without an engine. NOT thread safe —
/// one engine serves one worker thread's runs at a time.
class ResidentEngine {
 public:
  ResidentEngine();
  ~ResidentEngine();
  ResidentEngine(ResidentEngine&&) noexcept;
  ResidentEngine& operator=(ResidentEngine&&) noexcept;

  /// Runs served by this engine, and the subset that reused warm state.
  long long runs() const;
  long long reuses() const;

 private:
  friend class detail::MultiscaleBinding;
  struct State;
  std::unique_ptr<State> state_;
};

struct ModelOptions {
  int hours = 24;
  double start_hour = 5.0;  ///< local time of simulation start (pre-dawn)
  TransportOptions transport;
  YoungBorisOptions chem;
  InputGenerator::WorkModel io_work;
  /// Host worker threads executing the per-virtual-node kernel work
  /// (transport layers, chemistry columns). 0 = AIRSHED_THREADS env or
  /// hardware concurrency. Results are bit-identical for every value.
  int host_threads = 0;
  /// Allow resolving more worker threads than the host has cores. Default
  /// false: the resolved count is capped at par::hardware_threads(),
  /// because oversubscribing the compute-bound chemistry/transport pools
  /// only adds scheduling contention (measured ~15% slower at 4 threads on
  /// a 1-core host — see EXPERIMENTS.md). Results are bit-identical either
  /// way; set true to force the requested count (e.g. scheduler tests).
  bool oversubscribe = false;
  /// Knobs of the cell-batched SoA kernels (airshed::kernel) that run the
  /// chemistry, vertical diffusion and transport. In LaneMode::strict the
  /// results are bit-identical to the scalar reference kernels at every
  /// block size and thread count (tests/kernel_test.cpp checks each kernel,
  /// tests/integration_test.cpp the whole hour).
  kernel::KernelOptions kernel;
  /// Optional warm-state engine (see ResidentEngine). Results are
  /// bit-identical with or without one. Only AirshedModel uses it: the
  /// engine is keyed on the multiscale DatasetBase, so UniformAirshedModel
  /// ignores this field and builds run-local per-thread state.
  ResidentEngine* engine = nullptr;
  /// Optional frozen batch-scoped rate table consulted before the private
  /// per-solver cache (see chem SharedRateTable; bit-identical either way).
  const SharedRateTable* shared_rates = nullptr;
  /// Optional capture sink: every full rate evaluation this run performs
  /// is recorded (the warm phase that fills `shared_rates` for the batch).
  SharedRateTable* capture_rates = nullptr;
  /// Optional host-execution profile sink (see HostProfile).
  HostProfile* profile = nullptr;
  /// Optional host-span trace recorder (airshed::obs): model phases,
  /// per-layer transport and per-cell-block chemistry become wall-clock
  /// spans, one lane per pool thread. Must have at least as many lanes as
  /// the resolved host thread count. Purely observational — results are
  /// bit-identical with or without it (tests/obs_test.cpp asserts this).
  obs::TraceRecorder* trace = nullptr;
};

struct RunOutputs {
  ConcentrationField conc;        ///< final gas concentrations
  Array3<double> pm;              ///< final particulate field (3 components)
  std::vector<HourlyStats> hourly;
};

struct ModelRunResult {
  WorkTrace trace;
  RunOutputs outputs;
};

/// Called after each simulated hour with the hour's statistics and the
/// live concentration field — the coupling point consumers like PopExp
/// attach to (paper §6).
using HourCallback =
    std::function<void(const HourlyStats&, const ConcentrationField&)>;

/// Called at every hour boundary with the complete restartable model state
/// (the natural D_Chem -> D_Repl barrier, where the field is gathered
/// anyway). Consumers persist the record; AirshedModel::resume replays
/// from it bit for bit.
using CheckpointCallback = std::function<void(const CheckpointRecord&)>;

/// The multiscale Airshed model bound to one dataset.
class AirshedModel {
 public:
  explicit AirshedModel(const Dataset& dataset, ModelOptions opts = {});

  const Dataset& dataset() const { return *dataset_; }
  const ModelOptions& options() const { return opts_; }

  /// Uniform background initial conditions.
  static ConcentrationField initial_conditions(const Dataset& dataset);

  /// Runs the full simulation, invoking `on_hour` after every simulated
  /// hour (outputhour publication, the PopExp attachment point).
  ModelRunResult run(const HourCallback& on_hour = {});

  /// Like run(), but additionally emits a CheckpointRecord after every
  /// completed hour (restart state as of that boundary).
  ModelRunResult run_with_checkpoints(const CheckpointCallback& on_checkpoint,
                                      const HourCallback& on_hour = {});

  /// Resumes an interrupted run from a checkpoint: simulates hours
  /// [from.next_hour, options().hours). The returned trace and outputs
  /// cover only the replayed hours; because hourly inputs are generated
  /// statelessly, the replayed hours are bit-identical to the same hours
  /// of an uninterrupted run. Throws ConfigError on dataset or shape
  /// mismatch.
  ModelRunResult resume(const CheckpointRecord& from,
                        const HourCallback& on_hour = {});

  /// Resumes from the newest *valid* generation in a checkpoint vault,
  /// quarantining corrupt generations along the way (see
  /// CheckpointVault::restore_newest_valid). When `info` is non-null it
  /// receives the restore details (chosen generation, scanned count,
  /// quarantined files, per-generation errors). Throws
  /// durable::StorageError when no generation validates.
  ModelRunResult resume(CheckpointVault& vault,
                        CheckpointVault::RestoreResult* info = nullptr,
                        const HourCallback& on_hour = {});

 private:
  ModelRunResult run_hours(int first_hour, ConcentrationField conc,
                           Array3<double> pm, const HourCallback& on_hour,
                           const CheckpointCallback& on_checkpoint);

  const Dataset* dataset_;
  ModelOptions opts_;
};

}  // namespace airshed
