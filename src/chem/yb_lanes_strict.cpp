// Strict (bit-identical) lane kernels of the blocked Young-Boris solver.
//
// This TU compiles with the kernel strict flags — most importantly
// -ffp-contract=off — so every dense kernel, on every dispatched clone,
// executes per lane exactly the scalar integrate() operation sequence.
// The engine (youngboris.cpp) reaches these through yb_detail::LaneOps.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "airshed/chem/mechanism.hpp"
#include "airshed/chem/yb_lanes.hpp"
#include "airshed/kernel/cellblock.hpp"

namespace airshed {
namespace {

#define AIRSHED_YB_SLACK_METRIC 0
#include "yb_lanes.inl"
#undef AIRSHED_YB_SLACK_METRIC

void production_loss(const Mechanism& mech, const double* c, const double* k,
                     double* p_out, double* l_out, std::size_t lanes,
                     std::size_t stride) {
  mech.production_loss_block(c, k, p_out, l_out, lanes, stride);
}

}  // namespace

namespace yb_detail {

const LaneOps& strict_lane_ops() {
  static const LaneOps ops{predictor, corrector,       max_change, commit,
                           production_loss, /*metric_is_slack=*/false};
  return ops;
}

}  // namespace yb_detail
}  // namespace airshed
