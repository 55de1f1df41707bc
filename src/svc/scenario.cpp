#include "airshed/svc/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "airshed/city/generator.hpp"
#include "airshed/svc/input_cache.hpp"
#include "airshed/util/error.hpp"
#include "airshed/util/hash.hpp"
#include "airshed/util/rng.hpp"

namespace airshed::svc {

namespace {

/// Independent seeded stream for one (batch_seed, scenario_id, salt) tuple.
/// Hash-derived rather than sequential so the draw for scenario k never
/// depends on how many values scenario k-1 consumed.
Rng scenario_stream(std::uint64_t batch_seed, int id, const char* salt) {
  std::uint64_t h = fnv1a_bytes(salt);
  h = h * 0x100000001b3ull ^ batch_seed;
  h = h * 0x100000001b3ull ^ static_cast<std::uint64_t>(id);
  return Rng(h);
}

}  // namespace

double bounded_pareto(double u, double lo, double hi, double alpha) {
  AIRSHED_REQUIRE(lo > 0.0 && hi > lo && alpha > 0.0,
                  "bounded_pareto: need 0 < lo < hi and alpha > 0");
  u = std::clamp(u, 0.0, 1.0 - 1e-12);
  // Inverse CDF of the Pareto truncated to [lo, hi]:
  //   x = lo / (1 - u * (1 - (lo/hi)^alpha))^(1/alpha)
  const double ratio = std::pow(lo / hi, alpha);
  return lo / std::pow(1.0 - u * (1.0 - ratio), 1.0 / alpha);
}

std::vector<ScenarioSpec> make_job_mix(std::uint64_t batch_seed,
                                       const JobMixOptions& opts) {
  AIRSHED_REQUIRE(opts.scenarios > 0, "make_job_mix: scenarios must be > 0");
  AIRSHED_REQUIRE(opts.hours_min >= 1 && opts.hours_max >= opts.hours_min,
                  "make_job_mix: need 1 <= hours_min <= hours_max");
  std::vector<ScenarioSpec> specs;
  specs.reserve(static_cast<std::size_t>(opts.scenarios));
  for (int id = 0; id < opts.scenarios; ++id) {
    ScenarioSpec s;
    s.id = id;
    char name[32];
    std::snprintf(name, sizeof(name), "scn-%03d", id);
    s.name = name;
    s.dataset = opts.dataset;

    Rng hours = scenario_stream(batch_seed, id, "svc-hours");
    if (opts.hours_max == opts.hours_min) {
      s.hours = opts.hours_min;
    } else {
      const double h =
          bounded_pareto(hours.uniform(), static_cast<double>(opts.hours_min),
                         static_cast<double>(opts.hours_max) + 1.0 - 1e-9,
                         opts.hours_alpha);
      s.hours = std::clamp(static_cast<int>(h), opts.hours_min, opts.hours_max);
    }

    Rng knobs = scenario_stream(batch_seed, id, "svc-controls");
    s.controls.nox_scale = knobs.uniform(opts.control_lo, opts.control_hi);
    s.controls.voc_scale = knobs.uniform(opts.control_lo, opts.control_hi);
    s.controls.co_scale = knobs.uniform(opts.control_lo, opts.control_hi);
    s.controls.so2_scale = knobs.uniform(opts.control_lo, opts.control_hi);
    s.controls.nh3_scale = knobs.uniform(opts.control_lo, opts.control_hi);

    Rng perturb = scenario_stream(batch_seed, id, "svc-perturbation");
    s.emission_perturbation =
        perturb.uniform(opts.perturbation_lo, opts.perturbation_hi);
    specs.push_back(std::move(s));
  }
  return specs;
}

DatasetSpec scenario_dataset_spec(const ScenarioSpec& spec) {
  ControlScenario c = spec.controls;
  c.nox_scale *= spec.emission_perturbation;
  c.voc_scale *= spec.emission_perturbation;
  c.co_scale *= spec.emission_perturbation;
  c.so2_scale *= spec.emission_perturbation;
  c.nh3_scale *= spec.emission_perturbation;
  if (spec.dataset == "TEST") return test_basin_spec(c);
  if (spec.dataset == "LA") return la_basin_spec(c);
  if (spec.dataset == "NE") return northeast_spec(c);
  if (city::is_city_spec(spec.dataset)) {
    return city::city_dataset_spec(city::parse_city_spec(spec.dataset), c);
  }
  throw ConfigError("unknown scenario dataset: " + spec.dataset +
                    " (expected TEST, LA, NE or a city:... spec)");
}

std::size_t scenario_target_points(const ScenarioSpec& spec) {
  if (city::is_city_spec(spec.dataset)) {
    return city::parse_city_spec(spec.dataset).target_points;
  }
  return scenario_dataset_spec(spec).target_points;
}

Dataset build_scenario_dataset(const ScenarioSpec& spec, bool poison_stack,
                               SharedInputCache* cache) {
  DatasetSpec ds = scenario_dataset_spec(spec);
  if (poison_stack) {
    // Corrupt elevated source: an infinite emission rate slips past the
    // inventory's rate >= 0 validation (a NaN would be rejected at build
    // time), flows through the hourly input generator into vertical
    // transport, and commits non-finite lanes — the kernel block
    // tripwire's organic trigger.
    PointSource bad;
    bad.location = ds.domain.center();
    bad.layer = 1;
    bad.species = Species::SO2;
    bad.rate_ppm_m_min = std::numeric_limits<double>::infinity();
    ds.stacks.push_back(bad);
  }
  if (cache) return assemble_dataset(cache->get(ds), ds);
  return build_dataset(ds);
}

UniformDataset build_degraded_dataset(const ScenarioSpec& spec, std::size_t nx,
                                      std::size_t ny) {
  return build_uniform_dataset(scenario_dataset_spec(spec), nx, ny);
}

}  // namespace airshed::svc
