// Ablation: the cell-batched SoA kernel engine (airshed::kernel).
//
// Measures wall clock of the blocked engine on both LA models (multiscale
// SUPG and uniform van Leer), sweeping host threads {1, 4, 8} and — in
// full mode — the panel cap (kernel.block) at one thread: {8, 16, 32, 64},
// then each power of two past 64 between its neighbours (120/128/136,
// 248/256/264) next to the default. The reference row is LaneMode::strict
// at the default block on one thread; speedups are against it. Every
// "strict" row must reproduce its checksum (FNV-1a over the final fields,
// hourly statistics and the full WorkTrace) — strict is bit-identical to
// the scalar kernels by the kernel and integration tests, so one checksum
// covers every block size and thread count. The "tolerance" row
// (FMA-contracted SIMD kernels, default block, 1 thread) is instead held
// to a maximum relative error against the strict fields
// (docs/BENCHMARKS.md documents the bound). The bench exits non-zero ONLY
// on a strict checksum mismatch or a tolerance bound violation, never on a
// slow run, so the CI perf-smoke job stays non-gating on timing.
//
// Timing protocol: one untimed warmup then `repeats` timed runs; the
// JSON records median, min and the raw samples (bench_common
// measure_wall). ns/cell normalizes the median by grid points x layers
// x simulated hours.
//
// Usage: abl_kernel_soa [--smoke]
//   --smoke: 2 simulated hours, threads {1, 4}, single repeat, no block
//            sweep — the CI configuration.
// AIRSHED_BENCH_HOURS overrides the episode length in both modes.
//
// Emits BENCH_kernel_soa.json (run from the repo root to land it there).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <functional>
#include <string>
#include <vector>

#include <airshed/airshed.h>

#include "bench_common.hpp"

namespace {

using namespace airshed;

std::uint64_t result_checksum(const ModelRunResult& r) {
  std::uint64_t h = fnv1a(r.outputs.conc.flat());
  h = fnv1a(r.outputs.pm.flat(), h);
  for (const HourlyStats& s : r.outputs.hourly) {
    h = fnv1a(s.max_surface_o3_ppm, h);
    h = fnv1a(s.mean_surface_o3_ppm, h);
    h = fnv1a(s.mean_surface_no2_ppm, h);
    h = fnv1a(s.mean_surface_co_ppm, h);
    h = fnv1a(s.total_pm_nitrate, h);
  }
  for (const HourTrace& hour : r.trace.hours) {
    h = fnv1a(hour.input_work, h);
    h = fnv1a(hour.pretrans_work, h);
    h = fnv1a(hour.output_work, h);
    for (const StepTrace& step : hour.steps) {
      h = fnv1a(std::span<const double>(step.transport1_layer_work), h);
      h = fnv1a(std::span<const double>(step.transport2_layer_work), h);
      h = fnv1a(std::span<const double>(step.chem_column_work), h);
      h = fnv1a(step.aerosol_work, h);
    }
  }
  return h;
}

// Documented accuracy contract of LaneMode::tolerance: maximum relative
// error of any final concentration / PM value against the strict result,
// rel = |tol - ref| / max(|ref|, 1e-9 ppm). See docs/BENCHMARKS.md.
constexpr double kToleranceRelBound = 1e-6;

struct CasePoint {
  int block = 0;  ///< cell block size
  int threads = 1;
  kernel::LaneMode mode = kernel::LaneMode::strict;
  bench::WallStats wall;
  std::uint64_t checksum = 0;
  double max_rel_err = -1.0;  ///< vs strict fields (tolerance rows only)
};

using RunFn = std::function<ModelRunResult(const ModelOptions&)>;

CasePoint run_case(const RunFn& run, int hours, int block, int threads,
                   int warmup, int repeats,
                   kernel::LaneMode mode = kernel::LaneMode::strict,
                   ModelRunResult* keep = nullptr) {
  CasePoint pt;
  pt.block = block;
  pt.threads = threads;
  pt.mode = mode;
  ModelOptions opts;
  opts.hours = hours;
  opts.host_threads = threads;
  // The thread axis is the point of the sweep: run the requested count
  // even past the core count (the model default caps at the cores).
  opts.oversubscribe = true;
  opts.kernel.lane_mode = mode;
  opts.kernel.block = block;
  pt.wall = bench::measure_wall(warmup, repeats, [&] {
    ModelRunResult r = run(opts);
    pt.checksum = result_checksum(r);
    if (keep) *keep = std::move(r);
  });
  return pt;
}

double max_rel_err(const ModelRunResult& got, const ModelRunResult& ref) {
  double worst = 0.0;
  const auto scan = [&](std::span<const double> a, std::span<const double> b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double scale = std::max(std::abs(b[i]), 1e-9);
      worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
    }
  };
  scan(got.outputs.conc.flat(), ref.outputs.conc.flat());
  scan(std::span<const double>(got.outputs.pm.flat()),
       std::span<const double>(ref.outputs.pm.flat()));
  return worst;
}

const char* mode_name(kernel::LaneMode mode) {
  return mode == kernel::LaneMode::tolerance ? "tolerance" : "strict";
}

void emit_point(bench::JsonWriter& json, const CasePoint& pt, double cells,
                double ref_median_s, bool match) {
  json.begin_object();
  json.key("mode").value(mode_name(pt.mode));
  json.key("block").value(pt.block);
  json.key("threads").value(pt.threads);
  json.key("median_s").value(pt.wall.median_s);
  json.key("min_s").value(pt.wall.min_s);
  json.key("ns_per_cell").value(bench::ns_per_cell(pt.wall.median_s, cells));
  json.key("speedup_vs_ref")
      .value(pt.wall.median_s > 0.0 ? ref_median_s / pt.wall.median_s : 0.0);
  json.key("checksum").value(hash_hex(pt.checksum));
  json.key("checksum_match").value(match);
  if (pt.max_rel_err >= 0.0) {
    json.key("max_rel_err").value(pt.max_rel_err);
    json.key("rel_err_bound").value(kToleranceRelBound);
  }
  json.key("samples_s").begin_array();
  for (double s : pt.wall.samples_s) json.value(s);
  json.end_array();
  json.end_object();
}

void print_point(const CasePoint& pt, double cells, double ref_median_s,
                 bool match) {
  std::printf("  %-9s %5d %7d %9.3f %9.3f %8.1f %9.2fx  %s%s\n",
              mode_name(pt.mode), pt.block, pt.threads, pt.wall.median_s,
              pt.wall.min_s, bench::ns_per_cell(pt.wall.median_s, cells),
              pt.wall.median_s > 0.0 ? ref_median_s / pt.wall.median_s : 0.0,
              hash_hex(pt.checksum).c_str(), match ? "" : "  MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int default_hours = smoke ? 2 : 4;
  int hours = default_hours;
  if (const char* e = std::getenv("AIRSHED_BENCH_HOURS")) {
    const int h = std::atoi(e);
    if (h >= 1) hours = h;
  }
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 8};
  const std::vector<int> block_sweep =
      smoke ? std::vector<int>{}
            : std::vector<int>{8, 16, 32, 64, 120, 128, 136, 248, 256, 264};
  const int warmup = smoke ? 0 : 1;
  const int repeats = smoke ? 1 : 3;
  const int cores = par::hardware_threads();

  std::printf(
      "kernel SoA sweep: %d hours, %d host core(s), %d repeat(s)%s\n\n", hours,
      cores, repeats, smoke ? " [smoke]" : "");

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("kernel_soa");
  json.key("smoke").value(smoke);
  json.key("hours").value(hours);
  json.key("host_cores").value(cores);
  bench::host_fingerprint(json);
  json.key("warmup").value(warmup);
  json.key("repeats").value(repeats);
  json.key("default_block").value(kernel::KernelOptions{}.block);
  json.key("models").begin_array();

  struct ModelCase {
    const char* name;
    std::size_t points;
    std::size_t layers;
    RunFn run;
  };
  const Dataset la = la_basin_dataset();
  const UniformDataset la_uniform = la_uniform_dataset();
  const std::vector<ModelCase> cases = {
      {"LA_multiscale", la.mesh().vertex_count(),
       static_cast<std::size_t>(la.layers()),
       [&](const ModelOptions& o) { return AirshedModel(la, o).run(); }},
      {"LA_uniform", la_uniform.points(),
       static_cast<std::size_t>(la_uniform.layers),
       [&](const ModelOptions& o) {
         return UniformAirshedModel(la_uniform, o).run();
       }},
  };

  bool all_match = true;
  for (const ModelCase& c : cases) {
    const double cells = static_cast<double>(c.points) *
                         static_cast<double>(c.layers) *
                         static_cast<double>(hours);
    std::printf("%s (%zu points x %zu layers)\n", c.name, c.points, c.layers);
    std::printf("  %-9s %5s %7s %9s %9s %8s %9s  %s\n", "mode", "block",
                "threads", "median_s", "min_s", "ns/cell", "speedup",
                "checksum");

    // Reference row: strict lanes, default block, one thread.
    const int default_block = kernel::KernelOptions{}.block;
    ModelRunResult ref_result;
    const CasePoint ref =
        run_case(c.run, hours, default_block, 1, warmup, repeats,
                 kernel::LaneMode::strict, &ref_result);
    const double ref_s = ref.wall.median_s;
    print_point(ref, cells, ref_s, true);

    json.begin_object();
    json.key("model").value(c.name);
    json.key("points").value(c.points);
    json.key("layers").value(c.layers);
    json.key("sweep").begin_array();
    emit_point(json, ref, cells, ref_s, true);

    const auto strict_row = [&](int block, int threads) {
      const CasePoint pt =
          run_case(c.run, hours, block, threads, warmup, repeats);
      const bool match = pt.checksum == ref.checksum;
      all_match = all_match && match;
      print_point(pt, cells, ref_s, match);
      emit_point(json, pt, cells, ref_s, match);
    };
    for (int threads : thread_counts) {
      if (threads != 1) strict_row(default_block, threads);
    }
    for (int block : block_sweep) {
      if (block != default_block) strict_row(block, 1);
    }

    // Tolerance profile: FMA-contracted SIMD kernels at the default block,
    // one thread. Not bit-identical by design — held to the relative-error
    // bound against the strict fields instead of the checksum.
    {
      ModelRunResult tol_result;
      CasePoint pt =
          run_case(c.run, hours, default_block, 1, warmup, repeats,
                   kernel::LaneMode::tolerance, &tol_result);
      pt.max_rel_err = max_rel_err(tol_result, ref_result);
      const bool within = pt.max_rel_err <= kToleranceRelBound;
      all_match = all_match && within;
      print_point(pt, cells, ref_s, within);
      emit_point(json, pt, cells, ref_s, within);
      std::printf("           tolerance max_rel_err = %.3e (bound %.1e)%s\n",
                  pt.max_rel_err, kToleranceRelBound,
                  within ? "" : "  EXCEEDED");
    }
    json.end_array();
    json.end_object();
    std::printf("\n");
  }
  json.end_array();
  json.key("checksums_match").value(all_match);
  json.end_object();

  bench::write_bench_json("kernel_soa", json);
  if (!all_match) {
    std::printf(
        "FAILED: strict results differ across block sizes or thread "
        "counts, or the tolerance profile exceeded its relative-error "
        "bound\n");
    return 1;
  }
  return 0;
}
