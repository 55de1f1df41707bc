#include "airshed/core/uniform_model.hpp"

#include <optional>

#include "airshed/io/dataset.hpp"
#include "hour_loop.hpp"

namespace airshed {

namespace {

/// The uniform-grid binding of the hour loop: Lx/Ly transport on the
/// regular grid, inputs sampled at cell centres, and run-local per-thread
/// solvers (ResidentEngine is keyed on the multiscale DatasetBase).
class UniformBinding {
 public:
  using Transport = OneDimTransport;

  UniformBinding(const UniformDataset& ds, const ModelOptions& opts)
      : ds_(ds), opts_(opts), centers_(ds.grid.all_centers()) {}

  const std::string& name() const { return ds_.name; }
  int layers() const { return ds_.layers; }
  std::size_t points() const { return ds_.points(); }
  const Meteorology& met() const { return ds_.met; }
  std::size_t row_parallelism() const {
    return std::min(ds_.grid.nx(), ds_.grid.ny());
  }

  HourlyInputs inputs(int hour) const {
    const OneDimTransport op(ds_.grid, opts_.transport);
    return sample_hourly_inputs(
        centers_, ds_.layers, ds_.met, ds_.emissions, opts_.io_work, hour,
        [&](std::span<const Point2> wind, double kh) {
          return op.stable_dt_hours(wind, kh);
        });
  }

  // Cell areas are uniform, so the unweighted mean is the area-weighted
  // mean.
  HourlyStats stats(const ConcentrationField& conc, const Array3<double>&,
                    int hour) const {
    HourlyStats st;
    st.hour = hour;
    const auto o3 = static_cast<std::size_t>(index_of(Species::O3));
    const auto no2 = static_cast<std::size_t>(index_of(Species::NO2));
    const auto co = static_cast<std::size_t>(index_of(Species::CO));
    const std::size_t nc = ds_.points();
    double o3_sum = 0.0, no2_sum = 0.0, co_sum = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
      const double v = conc(o3, 0, c);
      if (v > st.max_surface_o3_ppm) {
        st.max_surface_o3_ppm = v;
        st.max_o3_location = centers_[c];
      }
      o3_sum += v;
      no2_sum += conc(no2, 0, c);
      co_sum += conc(co, 0, c);
    }
    st.mean_surface_o3_ppm = o3_sum / static_cast<double>(nc);
    st.mean_surface_no2_ppm = no2_sum / static_cast<double>(nc);
    st.mean_surface_co_ppm = co_sum / static_cast<double>(nc);
    return st;
  }

  detail::BoundSolvers<OneDimTransport> bind_solvers(int nthreads) {
    solvers_.emplace(
        nthreads, [&] { return OneDimTransport(ds_.grid, opts_.transport); },
        ds_.layer_dz_m, opts_);
    return {*solvers_, 0};
  }

 private:
  const UniformDataset& ds_;
  const ModelOptions& opts_;
  std::vector<Point2> centers_;
  std::optional<detail::ThreadSolvers<OneDimTransport>> solvers_;
};

}  // namespace

UniformDataset build_uniform_dataset(const DatasetSpec& spec, std::size_t nx,
                                     std::size_t ny) {
  AIRSHED_REQUIRE(spec.layers >= 1, "dataset needs at least one layer");
  return UniformDataset{
      spec.name + "-uniform",
      UniformGrid(spec.domain, nx, ny),
      spec.layers,
      Meteorology(spec.domain, spec.met),
      EmissionInventory(spec.domain, spec.cities, spec.stacks, spec.controls,
                        spec.area_sources),
      Meteorology::layer_thickness_m(spec.layers),
  };
}

UniformDataset la_uniform_dataset(ControlScenario controls) {
  // 40 x 40 cells = 4 km: the LA multiscale grid's urban-core resolution.
  return build_uniform_dataset(la_basin_spec(controls), 40, 40);
}

UniformAirshedModel::UniformAirshedModel(const UniformDataset& dataset,
                                         ModelOptions opts)
    : dataset_(&dataset), opts_(opts) {
  AIRSHED_REQUIRE(opts.hours >= 1, "need at least one simulated hour");
}

ConcentrationField UniformAirshedModel::initial_conditions(
    const UniformDataset& dataset) {
  return detail::background_field(dataset.layers, dataset.points());
}

ModelRunResult UniformAirshedModel::run(const HourCallback& on_hour) {
  const UniformDataset& ds = *dataset_;
  return run_hours(0, initial_conditions(ds),
                   Array3<double>(kPmComponents, ds.layers, ds.points(), 0.0),
                   on_hour, {});
}

ModelRunResult UniformAirshedModel::run_with_checkpoints(
    const CheckpointCallback& on_checkpoint, const HourCallback& on_hour) {
  const UniformDataset& ds = *dataset_;
  return run_hours(0, initial_conditions(ds),
                   Array3<double>(kPmComponents, ds.layers, ds.points(), 0.0),
                   on_hour, on_checkpoint);
}

ModelRunResult UniformAirshedModel::resume(const CheckpointRecord& from,
                                           const HourCallback& on_hour) {
  const UniformDataset& ds = *dataset_;
  detail::check_resume("UniformAirshedModel", from, ds.name, ds.layers,
                       ds.points(), opts_.hours);
  return run_hours(from.next_hour, from.conc, from.pm, on_hour, {});
}

ModelRunResult UniformAirshedModel::run_hours(
    int first_hour, ConcentrationField conc0, Array3<double> pm0,
    const HourCallback& on_hour, const CheckpointCallback& on_checkpoint) {
  UniformBinding grid(*dataset_, opts_);
  return detail::run_hour_loop(grid, opts_, first_hour, std::move(conc0),
                               std::move(pm0), on_hour, on_checkpoint);
}

}  // namespace airshed
