// Tolerance (FMA-contracted) lane kernels of the blocked Young-Boris
// solver.
//
// Same kernel sources as the strict TU, but compiled with
// -ffp-contract=fast: the AVX2/AVX-512 clones fuse mul+add into FMA, and
// the corrector uses the division-free convergence slack
// (AIRSHED_YB_SLACK_METRIC). Results agree with the strict profile to the
// documented relative bound but are not bit-identical to the scalar
// oracle, and may differ between machines that dispatch different clones.
// This TU also defines Mechanism::production_loss_block_fast — the
// contracted twin of production_loss_block over the same CB4 lane kernel.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "airshed/chem/cb4_table.hpp"
#include "airshed/chem/mechanism.hpp"
#include "airshed/chem/yb_lanes.hpp"
#include "airshed/kernel/cellblock.hpp"

namespace airshed {
namespace {

#define AIRSHED_YB_SLACK_METRIC 1
#include "yb_lanes.inl"
#undef AIRSHED_YB_SLACK_METRIC

#include "pl_lanes.inl"

void production_loss(const Mechanism& mech, const double* c, const double* k,
                     double* p_out, double* l_out, std::size_t lanes,
                     std::size_t stride) {
  mech.production_loss_block_fast(c, k, p_out, l_out, lanes, stride);
}

}  // namespace

void Mechanism::production_loss_block_fast(const double* c, const double* k,
                                           double* p_out, double* l_out,
                                           std::size_t lanes,
                                           std::size_t stride) const {
  AIRSHED_ASSERT(lanes >= 1 && lanes <= stride,
                 "production_loss_block_fast: bad lane count");
  if (cb4_kernel_) {
    pl_cb4_lanes(c, k, p_out, l_out, lanes, stride);
  } else {
    production_loss_block(c, k, p_out, l_out, lanes, stride);
  }
}

namespace yb_detail {

const LaneOps& tolerance_lane_ops() {
  static const LaneOps ops{predictor, corrector,       max_change, commit,
                           production_loss, /*metric_is_slack=*/true};
  return ops;
}

}  // namespace yb_detail
}  // namespace airshed
