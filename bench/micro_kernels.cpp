// Kernel microbenchmarks (google-benchmark): the hot paths of the physics
// and runtime substrates. These quantify the real cost of the kernels the
// work trace abstracts into flop counts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include <airshed/airshed.h>

namespace {

using namespace airshed;

std::vector<double> urban_state() {
  std::vector<double> c(kSpeciesCount);
  for (int s = 0; s < kSpeciesCount; ++s) {
    c[s] = background_ppm(static_cast<Species>(s));
  }
  c[index_of(Species::NO)] = 0.02;
  c[index_of(Species::NO2)] = 0.03;
  c[index_of(Species::PAR)] = 0.3;
  c[index_of(Species::CO)] = 1.0;
  return c;
}

/// Counter that reports wall time per lane (seconds, SI-prefixed) for a
/// kernel that processes `lanes` cells per iteration.
benchmark::Counter per_lane(double lanes) {
  using C = benchmark::Counter;
  return C(lanes, C::kIsIterationInvariantRate | C::kInvert);
}

void BM_MechanismProductionLoss(benchmark::State& state) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const std::vector<double> c = urban_state();
  std::vector<double> k(m.reaction_count()), p(kSpeciesCount),
      l(kSpeciesCount);
  m.compute_rates(298.0, 0.8, k);
  for (auto _ : state) {
    m.production_loss(c, k, p, l);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(m.reaction_count()));
  state.counters["per_lane"] = per_lane(1);
}
BENCHMARK(BM_MechanismProductionLoss);

// The CB4 lane kernel on a panel of `lanes` cells with a distinct rate
// column per lane; per_lane is the time per cell, comparable to the scalar
// call above.
void BM_ProductionLossBlock(benchmark::State& state) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const std::size_t stride = kernel::padded_lanes(lanes);
  const std::size_t nr = m.reaction_count();
  const std::vector<double> cell = urban_state();
  std::vector<double> c(kSpeciesCount * stride), kp(nr * stride),
      p(kSpeciesCount * stride), l(kSpeciesCount * stride), k(nr);
  for (std::size_t i = 0; i < stride; ++i) {
    for (int s = 0; s < kSpeciesCount; ++s) c[s * stride + i] = cell[s];
    m.compute_rates(290.0 + 0.1 * static_cast<double>(i), 0.8, k);
    for (std::size_t r = 0; r < nr; ++r) kp[r * stride + i] = k[r];
  }
  for (auto _ : state) {
    m.production_loss_block(c.data(), kp.data(), p.data(), l.data(), lanes,
                            stride);
    benchmark::DoNotOptimize(p.data());
    benchmark::DoNotOptimize(l.data());
  }
  state.counters["per_lane"] = per_lane(static_cast<double>(lanes));
}
BENCHMARK(BM_ProductionLossBlock)->Arg(8)->Arg(32)->Arg(200)->ArgName("lanes");

// The block engine on a mixed panel in the pattern of the corrector
// partition kernel test: every vector group cycles urban, near-trace,
// heavy, dilute and very heavy cells at distinct temperatures, so lanes
// converge at different corrector iterations. per_substep is the time
// per accepted lane-substep; occupancy is live / dense lanes of the SIMD
// passes.
void BM_IntegrateBlockMixed(benchmark::State& state) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const int lanes = static_cast<int>(state.range(0));
  ConcentrationField conc(kSpeciesCount, 1, lanes);
  std::vector<double> temps(static_cast<std::size_t>(lanes));
  const std::vector<double> urban = urban_state();
  constexpr double kScale[] = {1.0, 1e-3, 4.0, 0.03, 12.0};
  for (int i = 0; i < lanes; ++i) {
    for (int s = 0; s < kSpeciesCount; ++s) {
      conc(s, 0, i) = urban[s] * kScale[i % 5] *
                      (1.0 + 0.05 * std::sin(0.7 * i + 0.3 * s));
    }
    temps[static_cast<std::size_t>(i)] = 283.0 + 1.3 * (i % 11);
  }
  kernel::CellBlock block(kSpeciesCount, lanes);
  YoungBorisSolver yb(m);
  std::vector<YoungBorisResult> res(static_cast<std::size_t>(lanes));
  long long substeps = 0;
  for (auto _ : state) {
    block.gather(conc, 0, 0, lanes);
    yb.integrate_block(block, 5.0, temps, 0.6, res);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  for (const YoungBorisResult& r : res) substeps += r.substeps;
  using C = benchmark::Counter;
  state.counters["per_substep"] = C(static_cast<double>(substeps),
                                    C::kIsIterationInvariantRate | C::kInvert);
  state.counters["occupancy"] =
      static_cast<double>(yb.lane_evals_live()) /
      static_cast<double>(std::max(yb.lane_evals_dense(), 1LL));
}
BENCHMARK(BM_IntegrateBlockMixed)->Arg(8)->Arg(32)->Arg(200)->ArgName("lanes");

void BM_YoungBorisStep(benchmark::State& state) {
  const double sun = state.range(0) == 0 ? 0.0 : 0.8;
  YoungBorisSolver yb(Mechanism::cb4_condensed());
  for (auto _ : state) {
    std::vector<double> c = urban_state();
    yb.integrate(c, 5.0, 298.0, sun);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_YoungBorisStep)->Arg(0)->Arg(1)->ArgName("sun");

void BM_SupgAdvanceLayer(benchmark::State& state) {
  const Dataset ds = la_basin_dataset();
  SupgTransport op(ds.mesh());
  ConcentrationField conc(kSpeciesCount, 1, ds.points(), 0.04);
  std::vector<Point2> vel(ds.points());
  const auto pts = ds.mesh().points();
  for (std::size_t v = 0; v < pts.size(); ++v) {
    vel[v] = ds.met().wind(pts[v], 12.0, 0.0);
  }
  std::vector<double> bg(kSpeciesCount, 0.04);
  for (auto _ : state) {
    op.advance_layer(conc, 0, vel, 0.8, 0.02, bg);
    benchmark::DoNotOptimize(conc.flat().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(ds.mesh().triangle_count()));
}
BENCHMARK(BM_SupgAdvanceLayer);

void BM_OneDimAdvanceLayer(benchmark::State& state) {
  UniformGrid grid(BBox{0, 0, 160, 160}, 40, 40);
  OneDimTransport op(grid);
  ConcentrationField conc(kSpeciesCount, 1, grid.cell_count(), 0.04);
  std::vector<Point2> vel(grid.cell_count(), Point2{18.0, -7.0});
  std::vector<double> bg(kSpeciesCount, 0.04);
  for (auto _ : state) {
    op.advance_layer(conc, 0, vel, 0.8, 0.02, bg);
    benchmark::DoNotOptimize(conc.flat().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(grid.cell_count()));
}
BENCHMARK(BM_OneDimAdvanceLayer);

void BM_VerticalColumn(benchmark::State& state) {
  VerticalTransport vt(Meteorology::layer_thickness_m(5));
  ConcentrationField conc(kSpeciesCount, 5, 1, 0.02);
  std::vector<double> kz(4, 30.0), flux(kSpeciesCount, 1e-3),
      dep(kSpeciesCount, 1e-3);
  for (auto _ : state) {
    vt.advance_column(conc, 0, kz, flux, dep, {}, 5.0);
    benchmark::DoNotOptimize(conc.flat().data());
  }
}
BENCHMARK(BM_VerticalColumn);

void BM_AerosolEquilibrate(benchmark::State& state) {
  AerosolModule aero;
  ConcentrationField gas(kSpeciesCount, 5, 700, 0.0);
  Array3<double> pm(kPmComponents, 5, 700, 0.0);
  for (std::size_t k = 0; k < 5; ++k) {
    for (std::size_t n = 0; n < 700; ++n) {
      gas(index_of(Species::NH3), k, n) = 0.01;
      gas(index_of(Species::HNO3), k, n) = 0.008;
    }
  }
  std::vector<double> temps(5, 292.0);
  for (auto _ : state) {
    aero.equilibrate(gas, pm, temps);
    benchmark::DoNotOptimize(pm.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * 5 * 700);
}
BENCHMARK(BM_AerosolEquilibrate);

void BM_RedistributionPlan(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const MainLoopCommPlan plan = MainLoopCommPlan::plan(35, 5, 700, p, 8);
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_RedistributionPlan)->Arg(4)->Arg(32)->Arg(128)->ArgName("P");

void BM_RedistributionExecute(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const AirshedLayouts lay = AirshedLayouts::make(35, 5, 700, p);
  Array3<double> global(35, 5, 700, 0.01);
  DistArray3 trans(lay.trans);
  trans.scatter_from(global);
  for (auto _ : state) {
    DistArray3 chem(lay.chem);
    const RedistributionStats st = redistribute(trans, chem, 8);
    benchmark::DoNotOptimize(st.total_messages);
  }
  state.SetBytesProcessed(state.iterations() * 35 * 5 * 700 * 8);
}
BENCHMARK(BM_RedistributionExecute)->Arg(4)->Arg(32)->ArgName("P");

void BM_TridiagonalSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> lower(n, -1.0), diag(n, 3.0), upper(n, -1.0), rhs(n, 1.0),
      scratch(n);
  for (auto _ : state) {
    std::vector<double> b = rhs;
    solve_tridiagonal(lower, diag, upper, b, scratch);
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_TridiagonalSolve)->Arg(5)->Arg(20)->ArgName("layers");

void BM_MultiscaleTriangulate(benchmark::State& state) {
  for (auto _ : state) {
    MultiscaleGrid g(BBox{0, 0, 160, 160}, 5, 5, 2);
    g.refine_to_target(
        [](Point2 pt) {
          const double dx = pt.x - 62.0, dy = pt.y - 70.0;
          return std::exp(-(dx * dx + dy * dy) / 512.0) + 0.02;
        },
        700);
    const TriMesh mesh = g.triangulate();
    benchmark::DoNotOptimize(mesh.vertex_count());
  }
}
BENCHMARK(BM_MultiscaleTriangulate);

}  // namespace

BENCHMARK_MAIN();
