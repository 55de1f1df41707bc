// The uniform-grid, 1-D operator-splitting Airshed variant.
//
// This is the baseline the paper contrasts with the multiscale 2-D model
// (§2.1, §3, refs [6, 23]): a Dabdub & Seinfeld style implementation on a
// regular grid fine enough to match the multiscale grid's core resolution
// everywhere. Its transport splits into Lx/Ly sweeps that parallelize over
// layers AND rows (high degree of parallelism), but the uniform resolution
// means far more chemistry (Lcz) evaluations — the efficiency-vs-speedup
// trade the paper discusses.
//
// UniformAirshedModel runs the same Fig 1 hour loop as AirshedModel (one
// implementation, bound to this grid's transport operator, hourly inputs
// and outputhour statistics), so it honours the same ModelOptions except
// `engine`, which is keyed on the multiscale dataset base: a uniform run
// always builds run-local per-thread solver state.
//
// The run produces a standard WorkTrace whose transport_row_parallelism
// records the extra within-layer parallelism; the executor divides the
// transport phase accordingly.
#pragma once

#include "airshed/core/model.hpp"
#include "airshed/grid/uniform.hpp"
#include "airshed/transport/onedim.hpp"

namespace airshed {

/// A uniform-grid scenario: same drivers as Dataset, cells instead of mesh
/// vertices.
struct UniformDataset {
  std::string name;
  UniformGrid grid;
  int layers = 5;
  Meteorology met;
  EmissionInventory emissions;
  std::vector<double> layer_dz_m;

  std::size_t points() const { return grid.cell_count(); }
};

/// Builds the uniform counterpart of a multiscale spec: same domain,
/// meteorology and emissions, `nx` x `ny` cells (pick the multiscale
/// grid's finest core resolution for a fair accuracy comparison).
UniformDataset build_uniform_dataset(const DatasetSpec& spec, std::size_t nx,
                                     std::size_t ny);

/// The LA scenario on the accuracy-equivalent 40 x 40 uniform grid.
UniformDataset la_uniform_dataset(ControlScenario controls = {});

/// The Fig 1 loop on the uniform grid (Lx/Ly van-Leer transport, same
/// chemistry / vertical / aerosol operators as the multiscale model).
class UniformAirshedModel {
 public:
  explicit UniformAirshedModel(const UniformDataset& dataset,
                               ModelOptions opts = {});

  const UniformDataset& dataset() const { return *dataset_; }

  static ConcentrationField initial_conditions(const UniformDataset& dataset);

  ModelRunResult run(const HourCallback& on_hour = {});

  /// Like run(), but additionally emits a CheckpointRecord after every
  /// completed hour (restart state as of that boundary).
  ModelRunResult run_with_checkpoints(const CheckpointCallback& on_checkpoint,
                                      const HourCallback& on_hour = {});

  /// Resumes from a checkpoint: simulates hours [from.next_hour,
  /// options().hours). Hourly inputs are generated statelessly, so the
  /// replayed hours are bit-identical to the same hours of an
  /// uninterrupted run. Throws ConfigError on dataset/shape mismatch.
  ModelRunResult resume(const CheckpointRecord& from,
                        const HourCallback& on_hour = {});

 private:
  ModelRunResult run_hours(int first_hour, ConcentrationField conc,
                           Array3<double> pm, const HourCallback& on_hour,
                           const CheckpointCallback& on_checkpoint);

  const UniformDataset* dataset_;
  ModelOptions opts_;
};

}  // namespace airshed
