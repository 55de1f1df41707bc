#include "airshed/core/model.hpp"

#include <optional>

#include "airshed/transport/supg.hpp"
#include "hour_loop.hpp"

namespace airshed {

/// Warm per-thread solver state. `base` (declared first, destroyed last)
/// keeps the mesh and layer structure alive while SupgTransport /
/// VerticalTransport hold references into it.
struct ResidentEngine::State {
  std::shared_ptr<const DatasetBase> base;
  TransportOptions transport;
  YoungBorisOptions chem_opts;
  kernel::KernelOptions kernel;
  int nthreads = 0;
  std::int64_t run_serial = 0;  ///< distinct rate-epoch base per run
  long long runs = 0;
  long long reuses = 0;
  std::optional<detail::ThreadSolvers<SupgTransport>> solvers;
};

ResidentEngine::ResidentEngine() = default;
ResidentEngine::~ResidentEngine() = default;
ResidentEngine::ResidentEngine(ResidentEngine&&) noexcept = default;
ResidentEngine& ResidentEngine::operator=(ResidentEngine&&) noexcept = default;

long long ResidentEngine::runs() const { return state_ ? state_->runs : 0; }
long long ResidentEngine::reuses() const {
  return state_ ? state_->reuses : 0;
}

namespace detail {

ConcentrationField background_field(int layers, std::size_t points) {
  ConcentrationField conc(kSpeciesCount, layers, points);
  for (int s = 0; s < kSpeciesCount; ++s) {
    const double bg = background_ppm(static_cast<Species>(s));
    for (int k = 0; k < layers; ++k) {
      for (std::size_t v = 0; v < points; ++v) conc(s, k, v) = bg;
    }
  }
  return conc;
}

void check_resume(const char* who, const CheckpointRecord& from,
                  const std::string& dataset, int layers, std::size_t points,
                  int hours) {
  const std::string prefix = std::string(who) + "::resume: checkpoint ";
  if (from.dataset != dataset) {
    throw ConfigError(prefix + "is for dataset '" + from.dataset +
                      "', model is bound to '" + dataset + "'");
  }
  const auto nl = static_cast<std::size_t>(layers);
  if (from.conc.dim0() != static_cast<std::size_t>(kSpeciesCount) ||
      from.conc.dim1() != nl || from.conc.dim2() != points ||
      from.pm.dim0() != static_cast<std::size_t>(kPmComponents) ||
      from.pm.dim1() != nl || from.pm.dim2() != points) {
    throw ConfigError(prefix + "field shape does not match dataset '" +
                      dataset + "'");
  }
  if (from.next_hour < 0 || from.next_hour > hours) {
    throw ConfigError(prefix + "next_hour " + std::to_string(from.next_hour) +
                      " outside run horizon of " + std::to_string(hours) +
                      " hours");
  }
}

/// The multiscale binding of the hour loop: SUPG transport on the refined
/// mesh, InputGenerator inputs, area-weighted outputhour statistics, and
/// per-thread solvers served warm from ModelOptions::engine when it was
/// last used with the same dataset base, options and thread count.
class MultiscaleBinding {
 public:
  using Transport = SupgTransport;

  MultiscaleBinding(const Dataset& ds, const ModelOptions& opts)
      : ds_(ds), opts_(opts), inputs_(ds, opts.transport, opts.io_work) {}

  const std::string& name() const { return ds_.name(); }
  int layers() const { return ds_.layers(); }
  std::size_t points() const { return ds_.points(); }
  const Meteorology& met() const { return ds_.met(); }
  std::size_t row_parallelism() const { return 1; }

  HourlyInputs inputs(int hour) const { return inputs_.generate(hour); }
  HourlyStats stats(const ConcentrationField& conc, const Array3<double>& pm,
                    int hour) const {
    return compute_hourly_stats(ds_, conc, pm, hour);
  }

  BoundSolvers<SupgTransport> bind_solvers(int nthreads) {
    // The caller's engine (warm across runs) or a run-local throwaway.
    // Reuse is keyed on the immutable dataset base's identity plus the
    // option set and thread count; anything else rebuilds in place.
    ResidentEngine& engine = opts_.engine ? *opts_.engine : local_engine_;
    if (!engine.state_) engine.state_ = std::make_unique<ResidentEngine::State>();
    ResidentEngine::State& st = *engine.state_;
    const bool reuse = st.solvers.has_value() && st.base == ds_.base &&
                       st.transport == opts_.transport &&
                       st.chem_opts == opts_.chem && st.kernel == opts_.kernel &&
                       st.nthreads == nthreads;
    ++st.runs;
    if (reuse) {
      ++st.reuses;
    } else {
      st.base = ds_.base;
      st.transport = opts_.transport;
      st.chem_opts = opts_.chem;
      st.kernel = opts_.kernel;
      st.nthreads = nthreads;
      st.solvers.emplace(
          nthreads, [&] { return SupgTransport(ds_.mesh(), opts_.transport); },
          ds_.layer_dz_m(), opts_);
    }
    return {*st.solvers, st.run_serial++ << 20};
  }

 private:
  const Dataset& ds_;
  const ModelOptions& opts_;
  InputGenerator inputs_;
  ResidentEngine local_engine_;
};

}  // namespace detail

AirshedModel::AirshedModel(const Dataset& dataset, ModelOptions opts)
    : dataset_(&dataset), opts_(opts) {
  AIRSHED_REQUIRE(opts.hours >= 1, "need at least one simulated hour");
}

ConcentrationField AirshedModel::initial_conditions(const Dataset& dataset) {
  return detail::background_field(dataset.layers(), dataset.points());
}

ModelRunResult AirshedModel::run(const HourCallback& on_hour) {
  return run_hours(0, initial_conditions(*dataset_),
                   Array3<double>(kPmComponents, dataset_->layers(),
                                  dataset_->points(), 0.0),
                   on_hour, {});
}

ModelRunResult AirshedModel::run_with_checkpoints(
    const CheckpointCallback& on_checkpoint, const HourCallback& on_hour) {
  return run_hours(0, initial_conditions(*dataset_),
                   Array3<double>(kPmComponents, dataset_->layers(),
                                  dataset_->points(), 0.0),
                   on_hour, on_checkpoint);
}

ModelRunResult AirshedModel::resume(const CheckpointRecord& from,
                                    const HourCallback& on_hour) {
  const Dataset& ds = *dataset_;
  detail::check_resume("AirshedModel", from, ds.name(), ds.layers(),
                       ds.points(), opts_.hours);
  return run_hours(from.next_hour, from.conc, from.pm, on_hour, {});
}

ModelRunResult AirshedModel::resume(CheckpointVault& vault,
                                    CheckpointVault::RestoreResult* info,
                                    const HourCallback& on_hour) {
  CheckpointVault::RestoreResult restored = vault.restore_newest_valid();
  ModelRunResult out = resume(restored.record, on_hour);
  if (info) *info = std::move(restored);
  return out;
}

ModelRunResult AirshedModel::run_hours(int first_hour, ConcentrationField conc0,
                                       Array3<double> pm0,
                                       const HourCallback& on_hour,
                                       const CheckpointCallback& on_checkpoint) {
  detail::MultiscaleBinding grid(*dataset_, opts_);
  return detail::run_hour_loop(grid, opts_, first_hour, std::move(conc0),
                               std::move(pm0), on_hour, on_checkpoint);
}

}  // namespace airshed
