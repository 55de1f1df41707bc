// Integration tests across the whole stack.
//
// The central one mirrors the paper's main loop (§2.2) through *real*
// distributed arrays: every phase runs partitioned by the owning layout
// (transport by layer owner, chemistry by column owner), with the actual
// redistribution engine moving the data between phases. The partitioned
// execution must produce bit-identical results to the sequential model —
// the property that makes the Fx data-parallel port correct.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "airshed/aerosol/aerosol.hpp"
#include "airshed/city/generator.hpp"
#include "airshed/city/options.hpp"
#include "airshed/core/model.hpp"
#include "airshed/core/report.hpp"
#include "airshed/dist/airshed_layouts.hpp"
#include "airshed/emis/emissions.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/transport/supg.hpp"
#include "airshed/vert/vertical.hpp"

namespace airshed {
namespace {

/// Runs one hour of the Airshed loop over the given field. When `layouts`
/// is non-null, every phase executes entity-by-entity in owner order with
/// the data flowing through DistArray redistributions, and the test
/// asserts the distributed copy matches the in-core field after every
/// move. When null, it runs the plain sequential loop.
void run_hour(const Dataset& ds, const HourlyInputs& in, double hour_start,
              ConcentrationField& conc, Array3<double>& pm,
              const AirshedLayouts* layouts) {
  SupgTransport supg(ds.mesh());
  YoungBorisSolver chem(Mechanism::cb4_condensed());
  VerticalTransport vert(ds.layer_dz_m());
  AerosolModule aerosol;

  std::array<double, kSpeciesCount> background{}, deposition{}, colflux{};
  for (int s = 0; s < kSpeciesCount; ++s) {
    background[s] = background_ppm(static_cast<Species>(s));
    deposition[s] = deposition_velocity_ms(static_cast<Species>(s));
  }
  std::array<double, kSpeciesCount> cell{};
  const std::vector<double> no_elevated;
  const std::size_t nv = ds.points();
  const int nl = ds.layers();

  // Distributed mirror of `conc`.
  std::unique_ptr<DistArray3> dist;
  if (layouts) {
    dist = std::make_unique<DistArray3>(layouts->repl);
    dist->scatter_from(conc);
  }
  auto move_to = [&](const Layout3& layout) {
    if (!layouts) return;
    DistArray3 next(layout);
    redistribute(*dist, next, 8);
    ASSERT_EQ(next.gather(), conc) << "redistribution corrupted data";
    *dist = std::move(next);
  };
  auto sync_from_field = [&] {
    if (layouts) dist->scatter_from(conc);
  };

  auto transport_phase = [&](double dt) {
    // Each layer advanced exactly once, by its owner when distributed.
    if (layouts) {
      for (int p = 0; p < layouts->trans.nodes(); ++p) {
        const IndexRange r = layouts->trans.owned_range(p, kLayersDim);
        for (std::size_t k = r.lo; k < r.hi; ++k) {
          supg.advance_layer(conc, k, in.wind_kmh[k], in.kh_km2h, dt,
                             background);
        }
      }
    } else {
      for (int k = 0; k < nl; ++k) {
        supg.advance_layer(conc, k, in.wind_kmh[k], in.kh_km2h, dt,
                           background);
      }
    }
  };
  auto chemistry_column = [&](std::size_t v, double t_mid, double dt_min) {
    const double sun = ds.met().photolysis_factor(t_mid);
    const double lapse = ds.met().params().lapse_k_per_layer;
    for (int k = 0; k < nl; ++k) {
      for (int s = 0; s < kSpeciesCount; ++s) cell[s] = conc(s, k, v);
      chem.integrate(cell, dt_min, in.vertex_temp_k[v] - lapse * k, sun);
      for (int s = 0; s < kSpeciesCount; ++s) conc(s, k, v) = cell[s];
    }
    for (int s = 0; s < kSpeciesCount; ++s) colflux[s] = in.surface_flux(s, v);
    const auto it = in.elevated_flux.find(v);
    vert.advance_column(conc, v, in.kz_m2s, colflux, deposition,
                        it != in.elevated_flux.end()
                            ? std::span<const double>(it->second)
                            : std::span<const double>(no_elevated),
                        dt_min);
  };

  const double dt_hours = 1.0 / in.nsteps;
  for (int j = 0; j < in.nsteps; ++j) {
    const double t_step = hour_start + j * dt_hours;
    if (layouts) move_to(layouts->trans);
    transport_phase(0.5 * dt_hours);
    sync_from_field();
    if (layouts) move_to(layouts->chem);
    const double t_mid = t_step + 0.5 * dt_hours;
    if (layouts) {
      for (int p = 0; p < layouts->chem.nodes(); ++p) {
        const IndexRange r = layouts->chem.owned_range(p, kNodesDim);
        for (std::size_t v = r.lo; v < r.hi; ++v) {
          chemistry_column(v, t_mid, dt_hours * 60.0);
        }
      }
    } else {
      for (std::size_t v = 0; v < nv; ++v) {
        chemistry_column(v, t_mid, dt_hours * 60.0);
      }
    }
    sync_from_field();
    if (layouts) move_to(layouts->repl);
    aerosol.equilibrate(conc, pm, in.layer_temp_k);
    sync_from_field();
    if (layouts) move_to(layouts->trans);
    transport_phase(0.5 * dt_hours);
    sync_from_field();
  }
  if (layouts) move_to(layouts->repl);
}

class DistributedEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistributedEquivalenceSweep, PartitionedLoopMatchesSequential) {
  const int nodes = GetParam();
  const Dataset ds = test_basin_dataset();
  InputGenerator gen(ds);
  const double hour_start = 8.0;  // mid-morning: photochemistry active
  const HourlyInputs in = gen.generate(static_cast<int>(hour_start));

  ConcentrationField conc_seq = AirshedModel::initial_conditions(ds);
  Array3<double> pm_seq(kPmComponents, ds.layers(), ds.points(), 0.0);
  run_hour(ds, in, hour_start, conc_seq, pm_seq, nullptr);

  const AirshedLayouts layouts =
      AirshedLayouts::make(kSpeciesCount, ds.layers(), ds.points(), nodes);
  ConcentrationField conc_par = AirshedModel::initial_conditions(ds);
  Array3<double> pm_par(kPmComponents, ds.layers(), ds.points(), 0.0);
  run_hour(ds, in, hour_start, conc_par, pm_par, &layouts);

  // Per-entity kernels are independent, so the partitioned execution must
  // reproduce the sequential run bit for bit.
  EXPECT_EQ(conc_par, conc_seq);
  EXPECT_EQ(pm_par, pm_seq);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DistributedEquivalenceSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// The model-level oracle: AirshedModel runs every phase through the
// blocked SoA kernels on a worker pool, and must reproduce the sequential
// scalar loop above bit for bit at every (block, threads) pair, ragged
// panel tails included (128 TEST points: 128 % 7 = 2, 128 % 64 = 0; the
// default cap takes each thread's range as one panel).
TEST(Integration, BlockedModelMatchesSequentialScalarHour) {
  const Dataset ds = test_basin_dataset();
  const double hour_start = 8.0;
  const HourlyInputs in =
      InputGenerator(ds).generate(static_cast<int>(hour_start));
  ConcentrationField conc = AirshedModel::initial_conditions(ds);
  Array3<double> pm(kPmComponents, ds.layers(), ds.points(), 0.0);
  run_hour(ds, in, hour_start, conc, pm, nullptr);

  for (int block : {1, 7, 64, kernel::KernelOptions{}.block}) {
    for (int threads : {1, 4}) {
      ModelOptions opts;
      opts.start_hour = hour_start;
      opts.hours = 1;
      opts.host_threads = threads;
      opts.oversubscribe = true;  // real multi-thread coverage on small hosts
      opts.kernel.block = block;
      const ModelRunResult run = AirshedModel(ds, opts).run();
      EXPECT_EQ(run.outputs.conc, conc)
          << "block=" << block << " threads=" << threads;
      EXPECT_EQ(run.outputs.pm, pm)
          << "block=" << block << " threads=" << threads;
    }
  }
}

// Chemistry runs each thread's balanced column range as near-equal panels
// of at most kernel.block columns. Panel borders move with the thread
// count, the cap and the previous step's column work, and none of that may
// reach a result: the fields, the whole WorkTrace and the accepted substep
// count are bit-identical across threads {1,2,3,4} x caps {1,7,64,default},
// on the TEST basin and on the core-concentrated city:seed=2 mesh. One
// instance per (mesh, cap) keeps each ctest entry short.
Dataset panel_sweep_dataset(const std::string& name) {
  if (name == "TEST") return test_basin_dataset();
  return build_dataset(city::city_dataset_spec(city::parse_city_spec(name)));
}

ModelOptions panel_options(int hours, int threads, int block,
                           HostProfile* prof = nullptr) {
  ModelOptions opts;
  opts.hours = hours;
  opts.host_threads = threads;
  opts.oversubscribe = true;  // real multi-thread coverage on small hosts
  opts.kernel.block = block;
  opts.profile = prof;
  return opts;
}

constexpr int kDefaultBlock = kernel::KernelOptions{}.block;

class BalancedPanelSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(BalancedPanelSweep, BitIdenticalAcrossThreadCounts) {
  const auto [mesh, block] = GetParam();
  const Dataset ds = panel_sweep_dataset(mesh);
  // TEST runs two hours, so the second hour's cuts come from work carried
  // across the hour boundary; one city hour already spans 46 steps.
  const int hours = mesh == "TEST" ? 2 : 1;
  HostProfile ref_prof;
  const ModelRunResult ref =
      AirshedModel(ds, panel_options(hours, 1, kDefaultBlock, &ref_prof))
          .run();
  ASSERT_GT(ref_prof.chem_substeps, 0);
  for (int threads : {1, 2, 3, 4}) {
    const std::string at = mesh + " threads=" + std::to_string(threads) +
                           " block=" + std::to_string(block);
    HostProfile prof;
    const ModelRunResult run =
        AirshedModel(ds, panel_options(hours, threads, block, &prof)).run();
    EXPECT_EQ(run.outputs.conc, ref.outputs.conc) << at;
    EXPECT_EQ(run.outputs.pm, ref.outputs.pm) << at;
    EXPECT_TRUE(run.trace == ref.trace) << at;
    EXPECT_EQ(prof.chem_substeps, ref_prof.chem_substeps) << at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshesAndCaps, BalancedPanelSweep,
    ::testing::Combine(::testing::Values(std::string("TEST"),
                                         std::string("city:seed=2")),
                       ::testing::Values(1, 7, 64, kDefaultBlock)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& p) {
      const int block = std::get<1>(p.param);
      return std::string(std::get<0>(p.param) == "TEST" ? "TEST"
                                                        : "CitySeed2") +
             "_block" +
             (block == kDefaultBlock ? std::string("Default")
                                     : std::to_string(block));
    });

// A resumed run cuts equal counts on its first step (it has no previous
// step's work), where the uninterrupted run cuts from the last step of the
// hour before; the replayed hour must not notice.
TEST(Integration, PanelCutsResumeFromMidRunCheckpointBitIdentical) {
  for (const char* mesh : {"TEST", "city:seed=2"}) {
    const Dataset ds = panel_sweep_dataset(mesh);
    std::optional<CheckpointRecord> mid;
    const ModelRunResult ref =
        AirshedModel(ds, panel_options(2, 1, kDefaultBlock))
            .run_with_checkpoints([&](const CheckpointRecord& c) {
              if (c.next_hour == 1) mid = c;
            });
    ASSERT_TRUE(mid.has_value()) << mesh;
    ASSERT_EQ(ref.trace.hours.size(), 2u) << mesh;
    for (const auto& [threads, block] :
         {std::pair{1, kDefaultBlock}, std::pair{3, 7},
          std::pair{4, kDefaultBlock}}) {
      const std::string at = std::string(mesh) +
                             " threads=" + std::to_string(threads) +
                             " block=" + std::to_string(block);
      const ModelRunResult resumed =
          AirshedModel(ds, panel_options(2, threads, block)).resume(*mid);
      EXPECT_EQ(resumed.outputs.conc, ref.outputs.conc) << at;
      EXPECT_EQ(resumed.outputs.pm, ref.outputs.pm) << at;
      ASSERT_EQ(resumed.trace.hours.size(), 1u) << at;
      EXPECT_TRUE(resumed.trace.hours[0] == ref.trace.hours[1]) << at;
    }
  }
}

// chem/cut_imbalance is built from flop counts, so it repeats exactly, and
// on the skewed city mesh the work-balanced cuts beat equal column counts.
TEST(Integration, CutImbalanceIsDeterministicAndBeatsEqualCounts) {
  const Dataset ds = panel_sweep_dataset("city:seed=2");
  constexpr int kThreads = 4;
  const auto run = [&](HostProfile& prof) {
    ModelOptions opts;
    opts.hours = 2;
    opts.host_threads = kThreads;
    opts.oversubscribe = true;
    opts.profile = &prof;
    return AirshedModel(ds, opts).run();
  };
  HostProfile a, b;
  const ModelRunResult result = run(a);
  run(b);
  EXPECT_GT(a.chem_cut_imbalance, 1.0);
  EXPECT_EQ(a.chem_cut_imbalance, b.chem_cut_imbalance);

  // The same ratio under equal counts, from the run's own column work.
  double max_sum = 0.0, mean_sum = 0.0;
  for (const HourTrace& hour : result.trace.hours) {
    for (const StepTrace& step : hour.steps) {
      const std::vector<double>& w = step.chem_column_work;
      double busiest = 0.0, total = 0.0;
      for (std::size_t t = 0; t < kThreads; ++t) {
        double part = 0.0;
        for (std::size_t v = w.size() * t / kThreads;
             v < w.size() * (t + 1) / kThreads; ++v) {
          part += w[v];
        }
        busiest = std::max(busiest, part);
        total += part;
      }
      max_sum += busiest;
      mean_sum += total / kThreads;
    }
  }
  const double equal_counts = max_sum / mean_sum;
  EXPECT_LT(a.chem_cut_imbalance, equal_counts);

  obs::MetricsRegistry registry;
  record_metrics(registry, a);
  EXPECT_EQ(registry.gauge("chem/cut_imbalance").value(),
            a.chem_cut_imbalance);
}

// The corrector lane partition can stop working with every output
// unchanged; only the SIMD lane occupancy shows it. The lane counts are
// deterministic (they follow the numerics, not the clock), so the floor
// holds exactly on any host. TEST, 1 h, 1 thread, default panel cap:
// live / dense is 970768 / 1385272 = 0.7008 without the partition and
// 970768 / 1041600 = 0.9320 with it; the floor sits between the two.
TEST(Integration, CorrectorPartitionKeepsLaneOccupancy) {
  const Dataset ds = test_basin_dataset();
  HostProfile prof;
  AirshedModel(ds, panel_options(1, 1, kDefaultBlock, &prof)).run();
  ASSERT_GT(prof.lane_evals_dense, 0);
  const double occupancy = static_cast<double>(prof.lane_evals_live) /
                           static_cast<double>(prof.lane_evals_dense);
  EXPECT_GT(occupancy, 0.85);
  EXPECT_GT(prof.slot_swaps, 0);

  obs::MetricsRegistry registry;
  record_metrics(registry, prof);
  EXPECT_EQ(registry.counter("chem/lanes/swaps").value(), prof.slot_swaps);
}

TEST(Integration, EmissionControlsReduceInertPollutants) {
  // The motivating use of Airshed (§2.1): evaluate control strategies.
  // Cutting CO emissions must cut ambient CO (CO is long-lived, so the
  // response is essentially monotone); cutting SO2 must cut sulfate.
  ModelOptions opts;
  opts.hours = 4;
  Dataset base_ds = test_basin_dataset();
  ControlScenario cut;
  cut.co_scale = 0.3;
  cut.so2_scale = 0.3;
  Dataset cut_ds = test_basin_dataset(cut);

  const ModelRunResult base = AirshedModel(base_ds, opts).run();
  const ModelRunResult ctrl = AirshedModel(cut_ds, opts).run();
  EXPECT_LT(ctrl.outputs.hourly.back().mean_surface_co_ppm,
            base.outputs.hourly.back().mean_surface_co_ppm);
}

TEST(Integration, DiurnalOzoneCyclePeaksInAfternoon) {
  ModelOptions opts;
  opts.hours = 18;  // 05:00 through 23:00
  opts.start_hour = 5.0;
  const Dataset ds = test_basin_dataset();
  const ModelRunResult run = AirshedModel(ds, opts).run();
  int peak_hour = 0;
  double peak = 0.0;
  for (const HourlyStats& st : run.outputs.hourly) {
    if (st.max_surface_o3_ppm > peak) {
      peak = st.max_surface_o3_ppm;
      peak_hour = st.hour;
    }
  }
  EXPECT_GE(peak_hour, 9) << "ozone must peak in late morning or afternoon";
  EXPECT_LE(peak_hour, 19);
  // Ozone builds during the day relative to the pre-dawn start.
  EXPECT_GT(peak, run.outputs.hourly.front().max_surface_o3_ppm);
}

TEST(Integration, StepsPerHourRespondToWind) {
  // The runtime-determined step count (Fig 1: "nsteps") follows the CFL
  // condition of the hourly wind field.
  const Dataset ds = test_basin_dataset();
  InputGenerator gen(ds);
  int min_steps = 1000, max_steps = 0;
  for (int h = 0; h < 24; ++h) {
    const HourlyInputs in = gen.generate(h);
    min_steps = std::min(min_steps, in.nsteps);
    max_steps = std::max(max_steps, in.nsteps);
  }
  EXPECT_GE(min_steps, InputGenerator::kMinStepsPerHour);
  EXPECT_LE(max_steps, InputGenerator::kMaxStepsPerHour);
  EXPECT_GT(max_steps, min_steps) << "windy hours must take more steps";
}

}  // namespace
}  // namespace airshed
