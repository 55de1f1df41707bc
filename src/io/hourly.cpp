#include "airshed/io/hourly.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "airshed/aerosol/aerosol.hpp"
#include "airshed/chem/species.hpp"
#include "airshed/util/error.hpp"

namespace airshed {

InputGenerator::InputGenerator(const Dataset& dataset,
                               TransportOptions transport_opts,
                               IoWorkModel work)
    : dataset_(&dataset), transport_opts_(transport_opts), work_(work) {}

HourlyInputs InputGenerator::generate(int hour) const {
  const Dataset& ds = *dataset_;
  const SupgTransport supg(ds.mesh(), transport_opts_);
  return sample_hourly_inputs(
      ds.mesh().points(), ds.layers(), ds.met(), ds.emissions, work_, hour,
      [&](std::span<const Point2> wind, double kh) {
        return supg.stable_dt_hours(wind, kh);
      });
}

HourlyInputs sample_hourly_inputs(
    std::span<const Point2> pts, int nl, const Meteorology& met,
    const EmissionInventory& emissions, const IoWorkModel& work, int hour,
    const std::function<double(std::span<const Point2>, double)>&
        stable_dt_hours) {
  const std::size_t nv = pts.size();
  const double t_mid = static_cast<double>(hour) + 0.5;

  HourlyInputs in;
  in.hour = hour;

  // Wind per layer, sampled mid-hour (hourly inputs are piecewise constant,
  // as in the original observation files).
  in.wind_kmh.resize(nl);
  for (int k = 0; k < nl; ++k) {
    in.wind_kmh[k].resize(nv);
    const double frac = nl > 1 ? static_cast<double>(k) / (nl - 1) : 0.0;
    for (std::size_t v = 0; v < nv; ++v) {
      in.wind_kmh[k][v] = met.wind(pts[v], t_mid, frac);
    }
  }
  in.kh_km2h = met.kh(t_mid);

  in.kz_m2s.resize(nl > 1 ? nl - 1 : 0);
  for (int k = 0; k + 1 < nl; ++k) {
    in.kz_m2s[k] = met.kz(t_mid, k, nl);
  }

  in.layer_temp_k.resize(nl);
  const Point2 center = emissions.domain().center();
  for (int k = 0; k < nl; ++k) {
    in.layer_temp_k[k] = met.temperature(center, t_mid, k);
  }
  in.vertex_temp_k.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    in.vertex_temp_k[v] = met.temperature(pts[v], t_mid, 0);
  }

  // Surface emissions (species, point).
  in.surface_flux = Array2<double>(kSpeciesCount, nv, 0.0);
  for (int s = 0; s < kSpeciesCount; ++s) {
    const Species sp = static_cast<Species>(s);
    if (!is_emitted_species(sp)) continue;
    for (std::size_t v = 0; v < nv; ++v) {
      in.surface_flux(s, v) = emissions.surface_flux(sp, pts[v], t_mid);
    }
  }

  // Elevated stack emissions mapped to the nearest grid point.
  for (const PointSource& src : emissions.point_sources()) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t v = 0; v < nv; ++v) {
      const double d = norm(pts[v] - src.location);
      if (d < best_d) {
        best_d = d;
        best = v;
      }
    }
    auto& flat = in.elevated_flux[best];
    if (flat.empty()) flat.assign(static_cast<std::size_t>(kSpeciesCount) * nl, 0.0);
    const int layer = std::min(src.layer, nl - 1);
    flat[static_cast<std::size_t>(index_of(src.species)) * nl + layer] +=
        src.rate_ppm_m_min;
  }

  // Runtime-determined step count from the CFL bound of the hour's wind
  // (worst layer governs; aloft layers have the strongest wind).
  double dt_stable = 1.0;
  for (int k = 0; k < nl; ++k) {
    dt_stable = std::min(dt_stable, stable_dt_hours(in.wind_kmh[k], in.kh_km2h));
  }
  in.nsteps = std::clamp(static_cast<int>(std::ceil(1.0 / dt_stable)),
                         InputGenerator::kMinStepsPerHour,
                         InputGenerator::kMaxStepsPerHour);

  const double elements = static_cast<double>(kSpeciesCount) *
                          static_cast<double>(nl) * static_cast<double>(nv);
  in.input_work_flops = work.input_flops_per_element * elements;
  in.pretrans_work_flops = work.pretrans_flops_per_element * elements;
  return in;
}

double InputGenerator::outputhour_work_flops() const {
  return airshed::outputhour_work_flops(work_, dataset_->layers(),
                                        dataset_->points());
}

double outputhour_work_flops(const IoWorkModel& work, int layers,
                             std::size_t points) {
  const double elements = static_cast<double>(kSpeciesCount) *
                          static_cast<double>(layers) *
                          static_cast<double>(points);
  return work.output_flops_per_element * elements;
}

HourlyStats compute_hourly_stats(const Dataset& ds,
                                 const ConcentrationField& conc,
                                 const Array3<double>& pm, int hour) {
  AIRSHED_REQUIRE(conc.dim2() == ds.points(), "field does not match dataset");
  HourlyStats st;
  st.hour = hour;
  const auto o3 = static_cast<std::size_t>(index_of(Species::O3));
  const auto no2 = static_cast<std::size_t>(index_of(Species::NO2));
  const auto co = static_cast<std::size_t>(index_of(Species::CO));
  const auto pts = ds.mesh().points();
  const auto lumped = ds.mesh().lumped_area();

  double area = 0.0, o3_sum = 0.0, no2_sum = 0.0, co_sum = 0.0, pm_sum = 0.0;
  for (std::size_t v = 0; v < ds.points(); ++v) {
    const double c = conc(o3, 0, v);
    if (c > st.max_surface_o3_ppm) {
      st.max_surface_o3_ppm = c;
      st.max_o3_location = pts[v];
    }
    const double a = lumped[v];
    area += a;
    o3_sum += c * a;
    no2_sum += conc(no2, 0, v) * a;
    co_sum += conc(co, 0, v) * a;
    pm_sum += pm(static_cast<std::size_t>(PmComponent::Nitrate), 0, v) * a;
  }
  st.mean_surface_o3_ppm = o3_sum / area;
  st.mean_surface_no2_ppm = no2_sum / area;
  st.mean_surface_co_ppm = co_sum / area;
  st.total_pm_nitrate = pm_sum;
  return st;
}

}  // namespace airshed
