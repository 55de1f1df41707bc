// Hourly input processing ("inputhour" + "pretrans") and output processing
// ("outputhour") — the sequential I/O stages of the Airshed loop (Fig 1).
//
// In the original system these stages parse hourly observation files and
// interpolate them onto the multiscale grid; here the fields are generated
// from the synthetic meteorology/emissions, and the parsing/interpolation
// cost is modeled as a per-array-element work constant (calibrated in
// EXPERIMENTS.md so I/O processing is ~2% of sequential time, as the paper
// reports for the Paragon). These stages have no useful parallelism: the
// data-parallel executor runs them on one node.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "airshed/io/dataset.hpp"
#include "airshed/transport/supg.hpp"
#include "airshed/util/array.hpp"

namespace airshed {

/// Everything the main computation needs for one simulated hour.
struct HourlyInputs {
  int hour = 0;

  std::vector<std::vector<Point2>> wind_kmh;  ///< [layer][grid point]
  double kh_km2h = 0.0;
  std::vector<double> kz_m2s;        ///< layers-1 interior interface values
  std::vector<double> layer_temp_k;  ///< domain-mean temperature per layer
  /// Surface temperature per grid point (mesh vertex or uniform cell).
  std::vector<double> vertex_temp_k;

  /// Surface emission flux (species, point) in ppm*m/min, mid-hour.
  Array2<double> surface_flux;
  /// Elevated stack flux per affected point: point -> species*layers flat
  /// array (ppm*m/min).
  std::unordered_map<std::size_t, std::vector<double>> elevated_flux;

  /// Number of model steps this hour, determined at runtime from the CFL
  /// condition of the hourly wind field (paper: "a number of time steps
  /// determined at runtime based on the hourly inputs").
  int nsteps = 0;

  double input_work_flops = 0.0;     ///< inputhour (sequential)
  double pretrans_work_flops = 0.0;  ///< pretrans (sequential)
};

/// Work-model constants (flops per concentration-array element),
/// representing the file parsing + interpolation the original code does.
struct IoWorkModel {
  double input_flops_per_element = 850.0;
  double output_flops_per_element = 550.0;
  double pretrans_flops_per_element = 125.0;
};

/// Generates hourly inputs for a dataset.
class InputGenerator {
 public:
  using WorkModel = IoWorkModel;

  InputGenerator(const Dataset& dataset, TransportOptions transport_opts = {},
                 IoWorkModel work = {});

  const Dataset& dataset() const { return *dataset_; }

  /// inputhour + pretrans for one hour.
  HourlyInputs generate(int hour) const;

  /// Sequential work of one outputhour call.
  double outputhour_work_flops() const;

  /// Bounds applied to the runtime-determined step count.
  static constexpr int kMinStepsPerHour = 4;
  static constexpr int kMaxStepsPerHour = 48;

 private:
  const Dataset* dataset_;
  TransportOptions transport_opts_;
  IoWorkModel work_;
};

/// inputhour + pretrans on any set of grid points (multiscale mesh vertices
/// or uniform cell centres): meteorology and emissions sampled mid-hour,
/// stacks mapped to the nearest point, and the step count from the CFL
/// bound `stable_dt_hours(layer wind, kh)` of the worst layer.
HourlyInputs sample_hourly_inputs(
    std::span<const Point2> points, int layers, const Meteorology& met,
    const EmissionInventory& emissions, const IoWorkModel& work, int hour,
    const std::function<double(std::span<const Point2>, double)>&
        stable_dt_hours);

/// Sequential work of one outputhour call on a (layers, points) grid.
double outputhour_work_flops(const IoWorkModel& work, int layers,
                             std::size_t points);

/// Domain statistics computed by outputhour.
struct HourlyStats {
  int hour = 0;
  double max_surface_o3_ppm = 0.0;
  Point2 max_o3_location;
  double mean_surface_o3_ppm = 0.0;
  double mean_surface_no2_ppm = 0.0;
  double mean_surface_co_ppm = 0.0;
  double total_pm_nitrate = 0.0;  ///< area-weighted surface PM nitrate
};

/// The computation of outputhour (the "processing" in output processing).
HourlyStats compute_hourly_stats(const Dataset& ds,
                                 const ConcentrationField& conc,
                                 const Array3<double>& pm, int hour);

}  // namespace airshed
