// The one Fig 1 hour loop shared by AirshedModel and UniformAirshedModel.
//
// Both models run the same loop — inputhour, nsteps x (transport dt/2,
// chemistry + vertical + aerosol dt, transport dt/2), outputhour — and
// differ only in what a grid binding supplies:
//
//   Transport            the horizontal operator (SupgTransport on the
//                        multiscale mesh, OneDimTransport on the uniform
//                        grid); both expose advance_layer_blocked
//   name(), layers(), points(), met(), row_parallelism()
//   bind_solvers(nthreads)
//                        this run's per-thread ThreadSolvers and rate-epoch
//                        base (the multiscale binding may serve them warm
//                        from a ResidentEngine)
//   inputs(hour)         inputhour + pretrans -> HourlyInputs
//   stats(conc, pm, hour) the outputhour statistics
//
// Private to airshed_core; not an installed header.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "airshed/aerosol/aerosol.hpp"
#include "airshed/chem/yb_block.hpp"
#include "airshed/core/model.hpp"
#include "airshed/kernel/cellblock.hpp"
#include "airshed/par/pool.hpp"
#include "airshed/util/error.hpp"
#include "airshed/vert/vertical.hpp"

namespace airshed::detail {

/// Per-thread scratch of the blocked chemistry + vertical phase: the cell
/// panel (kernel.block lanes, the panel cap) plus the per-lane side
/// arrays, sized once per run (allocation never happens inside the hour
/// loop).
struct ChemBlockScratch {
  explicit ChemBlockScratch(int block)
      : cells(kSpeciesCount, block),
        temps(static_cast<std::size_t>(block)),
        res(static_cast<std::size_t>(block)),
        colwork(static_cast<std::size_t>(block)),
        elev(static_cast<std::size_t>(block)) {}

  kernel::CellBlock cells;
  std::vector<double> temps;
  std::vector<YoungBorisResult> res;
  std::vector<double> colwork;
  std::vector<const double*> elev;
};

/// The per-thread operator instances of one run: each pool thread owns its
/// transport, chemistry and vertical operators and its chemistry scratch
/// (all stateful), each work item its output slot, so results are
/// bit-identical for every thread count.
template <class Transport>
struct ThreadSolvers {
  template <class MakeTransport>
  ThreadSolvers(int nthreads, MakeTransport make_transport,
                const std::vector<double>& layer_dz_m,
                const ModelOptions& opts)
      : transport(nthreads, make_transport),
        chem(nthreads,
             [&] {
               return YoungBorisBlockSolver(Mechanism::cb4_condensed(),
                                            opts.chem, opts.kernel.lane_mode);
             }),
        vert(nthreads, [&] { return VerticalTransport(layer_dz_m); }),
        scratch(nthreads,
                [&] { return ChemBlockScratch(std::max(1, opts.kernel.block)); }) {}

  par::PerThread<Transport> transport;
  par::PerThread<YoungBorisBlockSolver> chem;
  par::PerThread<VerticalTransport> vert;
  par::PerThread<ChemBlockScratch> scratch;
};

/// What a binding's bind_solvers returns: the run's solvers and the base
/// of its rate epochs (set_rate_epoch(epoch_base + h) clears the private
/// rate caches at every hour of every run, so a reused solver can never
/// serve a previous run's epoch).
template <class Transport>
struct BoundSolvers {
  ThreadSolvers<Transport>& solvers;
  std::int64_t epoch_base = 0;
};

/// Per-solver counter snapshot taken at run start; the run's HostProfile
/// reports deltas against it, so a reused ResidentEngine solver never
/// leaks a previous run's counts into this run.
struct SolverCounters {
  long long hits = 0, shared = 0, evals = 0, evictions = 0;
  long long dense = 0, live = 0, swaps = 0, rounds = 0, substeps = 0;

  static SolverCounters of(const YoungBorisSolver& yb) {
    return {yb.rate_cache_hits(),  yb.rate_cache_shared_hits(),
            yb.rate_evals(),       yb.rate_cache_evictions(),
            yb.lane_evals_dense(), yb.lane_evals_live(),
            yb.slot_swaps(),       yb.block_rounds(),
            yb.substeps_total()};
  }
};

/// Uniform background initial conditions on a (layers, points) grid.
ConcentrationField background_field(int layers, std::size_t points);

/// The resume preconditions both models share: the checkpoint names the
/// bound dataset, its fields have the dataset's shape, and next_hour lies
/// in [0, hours]. Throws ConfigError prefixed with `who`.
void check_resume(const char* who, const CheckpointRecord& from,
                  const std::string& dataset, int layers, std::size_t points,
                  int hours);

/// Simulates hours [first_hour, opts.hours) from (conc0, pm0) on `grid`.
template <class Grid>
ModelRunResult run_hour_loop(Grid& grid, const ModelOptions& opts,
                             int first_hour, ConcentrationField conc0,
                             Array3<double> pm0, const HourCallback& on_hour,
                             const CheckpointCallback& on_checkpoint) {
  using par::PhaseTimer;
  const std::size_t nv = grid.points();
  const int nl = grid.layers();

  ModelRunResult result;
  result.trace.dataset = grid.name();
  result.trace.species = kSpeciesCount;
  result.trace.layers = static_cast<std::size_t>(nl);
  result.trace.points = nv;
  result.trace.transport_row_parallelism = grid.row_parallelism();

  result.outputs.conc = std::move(conc0);
  result.outputs.pm = std::move(pm0);
  ConcentrationField& conc = result.outputs.conc;
  Array3<double>& pm = result.outputs.pm;

  AerosolModule aerosol;

  // Virtual-node kernels run pooled over host threads: transport over
  // layers, chemistry + vertical transport over column ranges.
  const auto setup_start = std::chrono::steady_clock::now();
  int requested = par::resolve_threads(opts.host_threads);
  if (!opts.oversubscribe) {
    // Compute-bound pools gain nothing past the core count; oversubscribing
    // just adds contention (EXPERIMENTS.md). Results are thread-count
    // independent, so the cap cannot change any output.
    requested = std::min(requested, par::hardware_threads());
  }
  par::WorkerPool pool(requested);
  const int nthreads = pool.threads();
  const kernel::KernelOptions& ko = opts.kernel;
  const std::size_t cell_block =
      static_cast<std::size_t>(std::max(1, ko.block));

  const auto bound = grid.bind_solvers(nthreads);
  auto& transport = bound.solvers.transport;
  par::PerThread<YoungBorisBlockSolver>& chem = bound.solvers.chem;
  par::PerThread<VerticalTransport>& vert = bound.solvers.vert;
  par::PerThread<ChemBlockScratch>& chem_scratch = bound.solvers.scratch;
  for (YoungBorisBlockSolver& solver : chem) {
    solver.scalar().set_shared_rates(opts.shared_rates, opts.capture_rates);
  }
  HostProfile* prof = opts.profile;
  std::vector<SolverCounters> counters0;
  if (prof) {
    *prof = HostProfile{};
    prof->threads = nthreads;
    counters0.reserve(static_cast<std::size_t>(nthreads));
    for (const YoungBorisBlockSolver& solver : chem) {
      counters0.push_back(SolverCounters::of(solver.scalar()));
    }
    prof->setup_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      setup_start)
            .count();
  }
  obs::TraceRecorder* rec = opts.trace;
  if (rec) {
    AIRSHED_REQUIRE(rec->threads() >= nthreads,
                    "ModelOptions::trace recorder has fewer lanes than the "
                    "resolved host thread count");
    pool.set_observer(rec);
  }

  std::array<double, kSpeciesCount> background{};
  std::array<double, kSpeciesCount> deposition{};
  for (int s = 0; s < kSpeciesCount; ++s) {
    background[s] = background_ppm(static_cast<Species>(s));
    deposition[s] = deposition_velocity_ms(static_cast<Species>(s));
  }
  const double lapse = grid.met().params().lapse_k_per_layer;
  // The previous chemistry step's chem_column_work, which cuts this step's
  // column ranges; all zero (equal counts) on a run's first step.
  std::vector<double> prev_column_work(nv, 0.0);
  // Busiest-thread and mean-thread chemistry work under the cuts used,
  // summed over steps (HostProfile::chem_cut_imbalance).
  double cut_work_max = 0.0, cut_work_mean = 0.0;

  for (int h = first_hour; h < opts.hours; ++h) {
    const double hour_start = opts.start_hour + h;
    // Rate constants frozen on (temp, sun) are reusable within the hour.
    for (YoungBorisBlockSolver& solver : chem) {
      solver.set_rate_epoch(bound.epoch_base + h);
    }
    const HourlyInputs in = [&] {
      PhaseTimer timer(prof ? &prof->io_s : nullptr);
      obs::ObsSpan span(rec, 0, "inputhour", PhaseCategory::IoProcessing, h);
      return grid.inputs(static_cast<int>(hour_start));
    }();

    HourTrace hour_trace;
    hour_trace.input_work = in.input_work_flops;
    hour_trace.pretrans_work = in.pretrans_work_flops;

    const double dt_hours = 1.0 / in.nsteps;
    for (int j = 0; j < in.nsteps; ++j) {
      const double t_step = hour_start + j * dt_hours;
      StepTrace step;
      step.transport1_layer_work.resize(nl);
      step.transport2_layer_work.resize(nl);
      step.chem_column_work.assign(nv, 0.0);

      // Layers are independent (both operators are layer-local); each
      // thread advances its own block of layers with its own operator.
      auto transport_half = [&](std::vector<double>& layer_work) {
        PhaseTimer timer(prof ? &prof->transport_s : nullptr);
        obs::ObsSpan phase(rec, 0, "transport Lxy", PhaseCategory::Transport,
                           h);
        pool.set_phase("transport Lxy", PhaseCategory::Transport, h);
        pool.for_each(static_cast<std::size_t>(nl), [&](int t, std::size_t k) {
          obs::ObsSpan layer(rec, t, "transport layer",
                             PhaseCategory::Transport, h);
          layer_work[k] = transport[t]
                              .advance_layer_blocked(
                                  conc, k, in.wind_kmh[k], in.kh_km2h,
                                  0.5 * dt_hours, background, ko.species_block)
                              .work_flops;
        });
      };

      // ---- Transport, first half step (Lxy, dt/2) ----------------------
      transport_half(step.transport1_layer_work);

      // ---- Chemistry + vertical transport (Lcz, dt) ---------------------
      const double t_mid = t_step + 0.5 * dt_hours;
      const double sun = grid.met().photolysis_factor(t_mid);
      const double dt_min = dt_hours * 60.0;
      {
        // Thread t owns one contiguous column range, cut at equal shares of
        // the previous step's chem_column_work (equal counts on a run's
        // first step), and integrates it as near-equal SoA panels of at
        // most kernel.block columns. The cuts come from flop counts, not
        // timings, and no lane's arithmetic depends on its panel or owner,
        // so results stay bit-identical at every thread count and cap.
        PhaseTimer timer(prof ? &prof->chemistry_s : nullptr);
        obs::ObsSpan phase(rec, 0, "chemistry Lcz", PhaseCategory::Chemistry,
                           h);
        pool.set_phase("chemistry Lcz", PhaseCategory::Chemistry, h);
        // One panel: columns [v0, v0 + bw) gather into an SoA panel layer
        // by layer, then vertical transport runs on them. `ordinal` is the
        // panel's index in column order.
        const auto chem_panel = [&](int t, std::size_t v0, std::size_t bw,
                                    int ordinal) {
          obs::ObsSpan block(rec, t, "chem block", PhaseCategory::Chemistry, h);
          ChemBlockScratch& scr = chem_scratch[t];
          for (std::size_t i = 0; i < bw; ++i) scr.colwork[i] = 0.0;
          for (int k = 0; k < nl; ++k) {
            scr.cells.gather(conc, static_cast<std::size_t>(k), v0,
                             static_cast<int>(bw));
            for (std::size_t i = 0; i < bw; ++i) {
              scr.temps[i] = in.vertex_temp_k[v0 + i] - lapse * k;
            }
            try {
              chem[t].integrate_block(
                  scr.cells, dt_min, std::span<const double>(scr.temps).first(bw),
                  sun, std::span<YoungBorisResult>(scr.res).first(bw));
            } catch (const NumericalError& e) {
              throw NumericalError(std::string(e.what()) + " (grid points [" +
                                   std::to_string(v0) + ", " +
                                   std::to_string(v0 + bw) + "), layer " +
                                   std::to_string(k) + ", hour " +
                                   std::to_string(h) + ")");
            }
            scr.cells.scatter(conc, static_cast<std::size_t>(k), v0);
            for (std::size_t i = 0; i < bw; ++i) {
              scr.colwork[i] += scr.res[i].work_flops;
            }
          }
          for (std::size_t i = 0; i < bw; ++i) {
            const auto it = in.elevated_flux.find(v0 + i);
            scr.elev[i] =
                it != in.elevated_flux.end() ? it->second.data() : nullptr;
          }
          const VerticalStepResult vr = vert[t].advance_columns(
              conc, v0, bw, in.kz_m2s, in.surface_flux, deposition,
              std::span<const double* const>(scr.elev.data(), bw), dt_min);
          // Panel commit: everything this panel writes (chemistry scatter +
          // vertical transport) is now in the field — last chance to catch
          // poisoned state where it entered rather than hours downstream.
          if (ko.tripwire) {
            kernel::check_block_finite(conc, v0, bw, h, ordinal);
          }
          for (std::size_t i = 0; i < bw; ++i) {
            step.chem_column_work[v0 + i] = scr.colwork[i] + vr.work_flops;
          }
        };
        const std::vector<std::size_t> cuts =
            par::balanced_cuts(prev_column_work, nthreads);
        const auto panels = [&](int t) {
          const std::size_t len = cuts[t + 1] - cuts[t];
          return (len + cell_block - 1) / cell_block;
        };
        std::vector<std::size_t> first_panel(cuts.size(), 0);
        for (int t = 0; t < nthreads; ++t) {
          first_panel[t + 1] = first_panel[t] + panels(t);
        }
        pool.for_blocks(static_cast<std::size_t>(nthreads),
                        [&](int t, std::size_t, std::size_t) {
                          const std::size_t c0 = cuts[t];
                          const std::size_t len = cuts[t + 1] - c0;
                          const std::size_t np = panels(t);
                          for (std::size_t p = 0; p < np; ++p) {
                            const std::size_t v0 = c0 + len * p / np;
                            chem_panel(t, v0, c0 + len * (p + 1) / np - v0,
                                       static_cast<int>(first_panel[t] + p));
                          }
                        });
        if (prof) {
          double busiest = 0.0, sum = 0.0;
          for (int t = 0; t < nthreads; ++t) {
            double w = 0.0;
            for (std::size_t v = cuts[t]; v < cuts[t + 1]; ++v) {
              w += step.chem_column_work[v];
            }
            busiest = std::max(busiest, w);
            sum += w;
          }
          cut_work_max += busiest;
          cut_work_mean += sum / nthreads;
        }
        prev_column_work = step.chem_column_work;
      }

      // ---- Aerosol (sequential, replicated) ------------------------------
      {
        PhaseTimer timer(prof ? &prof->aerosol_s : nullptr);
        obs::ObsSpan span(rec, 0, "aerosol", PhaseCategory::Aerosol, h);
        step.aerosol_work =
            aerosol.equilibrate(conc, pm, in.layer_temp_k).work_flops;
      }

      // ---- Transport, second half step (Lxy, dt/2) -----------------------
      transport_half(step.transport2_layer_work);

      hour_trace.steps.push_back(std::move(step));
    }

    // ---- outputhour ------------------------------------------------------
    const HourlyStats stats = [&] {
      PhaseTimer timer(prof ? &prof->io_s : nullptr);
      obs::ObsSpan span(rec, 0, "outputhour", PhaseCategory::IoProcessing, h);
      return grid.stats(conc, pm, static_cast<int>(hour_start));
    }();
    hour_trace.output_work = outputhour_work_flops(opts.io_work, nl, nv);
    result.outputs.hourly.push_back(stats);
    result.trace.hours.push_back(std::move(hour_trace));
    if (on_hour) on_hour(stats, conc);
    if (on_checkpoint) {
      obs::ObsSpan span(rec, 0, "checkpoint", PhaseCategory::Recovery, h);
      CheckpointRecord record;
      record.dataset = grid.name();
      record.next_hour = h + 1;
      record.conc = conc;
      record.pm = pm;
      on_checkpoint(record);
    }
  }

  if (prof) {
    prof->thread_busy_s = pool.busy_seconds();
    if (cut_work_mean > 0.0) {
      prof->chem_cut_imbalance = cut_work_max / cut_work_mean;
    }
    for (int t = 0; t < nthreads; ++t) {
      const SolverCounters now = SolverCounters::of(chem[t].scalar());
      const SolverCounters& was = counters0[static_cast<std::size_t>(t)];
      prof->rate_cache_hits += now.hits - was.hits;
      prof->rate_cache_shared_hits += now.shared - was.shared;
      prof->rate_evals += now.evals - was.evals;
      prof->rate_cache_evictions += now.evictions - was.evictions;
      prof->lane_evals_dense += now.dense - was.dense;
      prof->lane_evals_live += now.live - was.live;
      prof->slot_swaps += now.swaps - was.swaps;
      prof->block_rounds += now.rounds - was.rounds;
      prof->chem_substeps += now.substeps - was.substeps;
    }
  }
  return result;
}

}  // namespace airshed::detail
