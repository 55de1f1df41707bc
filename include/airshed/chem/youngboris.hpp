// Young & Boris (1977) hybrid integrator for stiff chemical kinetics.
//
// The paper (§2.1) integrates the chemistry + vertical transport operator
// Lcz with "the hybrid scheme of Young and Boris for stiff systems of
// ordinary differential equations". The scheme classifies species per
// substep by stiffness (loss frequency L_i times substep h): fast species
// use a rational asymptotic update that is exact at equilibrium, slow
// species use an explicit predictor / trapezoidal corrector; the corrector
// iterates to convergence and the substep adapts.
//
// The solver integrates  dc_i/dt = P_i(c) - L_i(c) c_i + s_i  for one grid
// cell over a chemistry step, where s is an optional constant source
// (emissions, ppm/min). Temperature and photolysis are frozen over the step
// (they change on the transport timescale, not the chemistry substep scale).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "airshed/chem/mechanism.hpp"
#include "airshed/kernel/cellblock.hpp"
#include "airshed/kernel/lanemask.hpp"

namespace airshed {

namespace yb_detail {
struct LaneOps;
}

struct YoungBorisOptions {
  double eps = 0.01;              ///< corrector relative convergence tolerance
  double conc_floor_ppm = 1e-30;  ///< clamp floor (concentrations stay >= 0)
  double check_floor_ppm = 1e-9;  ///< species below this don't gate convergence
  double dt_init_min = 0.05;      ///< first substep (minutes)
  double dt_min_min = 1e-7;       ///< smallest allowed substep
  double dt_max_min = 2.0;        ///< largest allowed substep
  int max_corrector_iters = 12;
  double stiff_threshold = 1.0;   ///< species stiff when L_i * h > threshold
  double shrink = 0.7;            ///< substep reduction on failed convergence

  /// Accuracy controller (the essential Young-Boris step selection): the
  /// substep is chosen so no significant species changes by more than this
  /// relative fraction per substep; larger observed change rejects the
  /// substep. This, not corrector convergence, bounds the splitting error
  /// of the hybrid updates.
  double max_rel_change = 0.15;
  /// Species below this concentration do not gate the change controller
  /// (fast radicals in quasi-steady state track P/L and may jump at dawn).
  double change_floor_ppm = 1e-6;

  /// Reuse rate-constant vectors across integrate() calls with bitwise
  /// identical frozen inputs (temp_k, sun): columns of a layer at the same
  /// temperature skip Mechanism::compute_rates entirely. A cache hit copies
  /// the exact vector a recomputation would produce, so results are
  /// bit-identical with the cache on or off.
  bool cache_rates = true;
  /// Cache capacity in distinct (temp_k, sun) keys. On overflow a single
  /// victim is evicted (bounded second-chance scan), so a working set
  /// slightly above capacity degrades gracefully instead of dumping the
  /// whole cache. Sized for the LA per-vertex temperature field (~3.5k
  /// distinct keys per hour).
  std::size_t rate_cache_entries = 4096;

  friend bool operator==(const YoungBorisOptions&,
                         const YoungBorisOptions&) = default;
};

struct YoungBorisResult {
  int substeps = 0;
  int corrector_evals = 0;     ///< production/loss evaluations performed
  int nonconverged_steps = 0;  ///< substeps accepted at dt_min without converging
  double work_flops = 0.0;     ///< flop-equivalent work (for the work trace)
};

/// Batch-scoped rate-constant table shared across solver instances
/// (the airshed::svc resident-engine mode). Lifecycle: one thread fills it
/// during a seeded warm run (every full Mechanism::compute_rates result is
/// captured), freeze() is called under a synchronization barrier, and from
/// then on any number of solver threads consult it read-only — BEFORE
/// their private caches, so the shared-hit count for a given run is a pure
/// function of (table contents, run inputs), independent of thread count
/// and private-cache state. A rate vector is a pure function of the
/// bitwise (temp_k, sun) key, so table hits return exactly the bytes a
/// recomputation would produce: results are bit-identical with the table
/// present, absent, or differently warmed.
class SharedRateTable {
 public:
  /// Records the rate vector for (temp_k, sun); duplicate keys keep the
  /// first copy. Must not be called after freeze() (throws airshed::Error)
  /// and is not thread safe — the warm phase is single-threaded.
  void capture(double temp_k, double sun, std::span<const double> k);

  /// Seals the table; lookups from other threads are safe only after the
  /// freeze has been published to them (e.g. a pool barrier).
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }
  std::size_t size() const { return table_.size(); }

  /// The frozen rate vector for the bitwise key, or nullptr.
  const std::vector<double>* find(double temp_k, double sun) const;

 private:
  struct Key {
    std::uint64_t temp_bits = 0;
    std::uint64_t sun_bits = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t x = k.temp_bits + 0x9e3779b97f4a7c15ULL * k.sun_bits;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  std::unordered_map<Key, std::vector<double>, KeyHash> table_;
  bool frozen_ = false;
};

/// Reusable integrator (holds scratch space; one instance per thread).
class YoungBorisSolver {
 public:
  explicit YoungBorisSolver(const Mechanism& mech, YoungBorisOptions opts = {});

  const YoungBorisOptions& options() const { return opts_; }
  const Mechanism& mechanism() const { return *mech_; }

  /// Integrates the cell state `c` (ppm, size kSpeciesCount) over
  /// `dt_total_min` minutes at fixed temperature and photolysis factor.
  /// `source_ppm_min` may be empty (no source) or have kSpeciesCount entries.
  /// Throws NumericalError if the state becomes non-finite.
  YoungBorisResult integrate(std::span<double> c, double dt_total_min,
                             double temp_k, double sun,
                             std::span<const double> source_ppm_min = {});

  /// Cell-batched integrate over an SoA block (no source term): lane i of
  /// `cells` is one cell state, integrated over `dt_total_min` at
  /// temperature `temp_k[i]` and the shared photolysis factor `sun`.
  /// Lanes run in lockstep but each follows its own scalar control path
  /// (own substep size, own corrector convergence) through masked blends,
  /// so every lane's final state and YoungBorisResult are bit-identical to
  /// a scalar integrate() on that cell. `temp_k` and `results` must have
  /// cells.width() entries. Throws NumericalError (naming the lane) if any
  /// lane's state becomes non-finite.
  void integrate_block(kernel::CellBlock& cells, double dt_total_min,
                       std::span<const double> temp_k, double sun,
                       std::span<YoungBorisResult> results);

  /// Engine entry point behind integrate_block: the same lockstep control
  /// flow driven by an explicit dense-kernel bundle (strict or tolerance
  /// profile; see chem/yb_lanes.hpp). Internal plumbing — models select a
  /// profile through YoungBorisBlockSolver (chem/yb_block.hpp).
  void integrate_block_ops(kernel::CellBlock& cells, double dt_total_min,
                           std::span<const double> temp_k, double sun,
                           std::span<YoungBorisResult> results,
                           const yb_detail::LaneOps& ops);

  /// Starts a new rate-cache epoch (e.g. a new simulated hour): a changed
  /// epoch clears the cache, bounding reuse to inputs frozen within the
  /// epoch. Calling with the current epoch is a no-op.
  void set_rate_epoch(std::int64_t epoch);

  /// Wires the batch-scoped shared table (resident-engine mode). `shared`
  /// (may be null) is consulted before the private cache on every rate
  /// lookup; `capture` (may be null) receives every full evaluation this
  /// solver performs — the warm-phase collection hook. Results are
  /// bit-identical for every combination (see SharedRateTable).
  void set_shared_rates(const SharedRateTable* shared,
                        SharedRateTable* capture = nullptr) {
    shared_rates_ = shared;
    capture_rates_ = capture;
  }

  /// Rate-constant evaluations skipped / performed since construction.
  long long rate_cache_hits() const { return rate_cache_hits_; }
  long long rate_evals() const { return rate_evals_; }
  /// Lookups served by the batch-scoped shared table.
  long long rate_cache_shared_hits() const { return rate_cache_shared_hits_; }
  /// Single-victim evictions performed on cache overflow.
  long long rate_cache_evictions() const { return rate_cache_evictions_; }
  /// Distinct (temp_k, sun) keys currently cached.
  std::size_t rate_cache_size() const { return rate_cache_.size(); }

  /// Lane-occupancy counters of the blocked path, accumulated across
  /// integrate_block calls: dense lanes the vector kernels actually
  /// processed (production/loss and corrector passes, padding included)
  /// versus lanes that carried live work. Their ratio is the SIMD lane
  /// occupancy. The masked-segment scheduling (kernel/lanemask.hpp) skips
  /// vector groups with no live lane, and the corrector partition moves
  /// the still-iterating slots to the front between iterations, so a
  /// corrector pass sweeps padded_lanes(iterating) lanes. Exported as
  /// chem/lanes/* metrics.
  long long lane_evals_dense() const { return lane_evals_dense_; }
  long long lane_evals_live() const { return lane_evals_live_; }
  /// Slot swaps made by the corrector partition (each moves every
  /// per-slot panel column of two slots): the partition's own cost.
  long long slot_swaps() const { return slot_swaps_; }
  /// Lockstep engine rounds (one adaptive-substep attempt per live slot).
  long long block_rounds() const { return block_rounds_; }
  /// Accepted chemistry substeps, both paths, over the solver's lifetime.
  long long substeps_total() const { return substeps_total_; }
  /// Scratch arena of the blocked path: one slab sized exactly on the
  /// first integrate_block call, reused by every later call whose panel
  /// stride is no wider.
  const kernel::Arena& block_arena() const { return arena_; }

 private:
  void load_rates(double temp_k, double sun);
  /// Returns a view of the rate vector for (temp_k, sun) — the cached copy
  /// when caching is on (valid until the next cache mutation), otherwise
  /// the member scratch.
  std::span<const double> rates_ref(double temp_k, double sun);
  void evict_one_rate_entry();

  const Mechanism* mech_;
  YoungBorisOptions opts_;
  // Scratch (sized in ctor, reused across calls).
  std::vector<double> rates_, p0_, l0_, p1_, l1_, cp_, cn_;
  // Blocked-path scratch: panel arena plus per-lane control state (sized on
  // the first integrate_block call, reused afterwards).
  kernel::Arena arena_;
  // Lane masks are doubles holding 0.0/1.0: the dense blend loops compare
  // them against 0.0, which keeps the whole loop at one 64-bit vector
  // width *and* uses an FP compare. (An 8-bit mask has no SSE2 vectype
  // next to 64-bit lanes, and a 64-bit integer compare needs SSE4.1, so
  // either choice blocks vectorization of the blends at the baseline ISA.)
  std::vector<double> active_, corr_, conv_, plv_, accept_;
  std::vector<int> iters_;
  // Masked-segment scratch: aligned lane runs that still carry live work
  // (dense kernels skip fully converged / fully valid vector groups).
  std::vector<kernel::LaneSegment> segs_;
  // Slot -> original block lane. integrate_block compacts finished lanes
  // out of the dense panels, so slot order diverges from lane order.
  std::vector<int> slot_lane_;
  // Rate-constant cache keyed on the bit patterns of (temp_k, sun).
  struct RateKey {
    std::uint64_t temp_bits = 0;
    std::uint64_t sun_bits = 0;
    friend bool operator==(const RateKey&, const RateKey&) = default;
  };
  struct RateKeyHash {
    std::size_t operator()(const RateKey& k) const {
      // splitmix64-style mix of the two bit patterns.
      std::uint64_t x = k.temp_bits + 0x9e3779b97f4a7c15ULL * k.sun_bits;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct CachedRates {
    std::vector<double> k;
    bool used = true;  ///< second-chance reference bit
  };
  std::unordered_map<RateKey, CachedRates, RateKeyHash> rate_cache_;
  std::int64_t rate_epoch_ = 0;
  const SharedRateTable* shared_rates_ = nullptr;
  SharedRateTable* capture_rates_ = nullptr;
  long long rate_cache_hits_ = 0;
  long long rate_cache_shared_hits_ = 0;
  long long rate_evals_ = 0;
  long long rate_cache_evictions_ = 0;
  long long lane_evals_dense_ = 0;
  long long lane_evals_live_ = 0;
  long long slot_swaps_ = 0;
  long long block_rounds_ = 0;
  long long substeps_total_ = 0;
};

}  // namespace airshed
