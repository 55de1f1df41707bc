// Internal: the dense lane-kernel bundle behind the blocked Young-Boris
// integrator.
//
// The lockstep engine (YoungBorisSolver::integrate_block_ops) is one piece
// of control flow shared by two numeric profiles that differ only in which
// translation unit compiled their dense kernels:
//
//   strict    — compiled with -ffp-contract=off; per lane, bit-identical to
//               the scalar integrate() oracle. Convergence metric is the
//               scalar path's relative correction |v - c| / scale, tested
//               against eps.
//   tolerance — compiled with -ffp-contract=fast, so FMA-capable clones
//               fuse mul+add; the corrector's convergence test is the
//               division-free slack |v - c| - eps * scale tested against 0
//               (algebraically the same test, one rounding step different).
//               Results agree with strict to a documented relative bound
//               (see docs/BENCHMARKS.md) but are not bit-reproducible
//               across vector ISAs.
//
// Each profile's kernels live in their own TU (yb_lanes_strict.cpp /
// yb_lanes_fast.cpp) and are surfaced here as a table of function pointers.
// This header is internal plumbing: models use chem/yb_block.hpp.
#pragma once

#include <cstddef>

namespace airshed {

class Mechanism;

namespace yb_detail {

/// Dense kernels of one numeric profile. All panel pointers are
/// species-major rows of `L` lanes; the kernels cover lanes [0, La) and
/// may be called on offset sub-ranges (aligned segments) of a block.
struct LaneOps {
  /// e0 = P0 - L0*c, then the hybrid predictor into cp.
  void (*predictor)(const double* cw, const double* p0, const double* l0,
                    double* e0, double* cp, const double* h, std::size_t n,
                    std::size_t La, std::size_t L, double stiff,
                    double floor_ppm);
  /// One corrector iteration, in place: lanes with corr != 0 take the
  /// corrected value in cp, frozen lanes keep theirs; metric[i] receives
  /// the per-lane convergence metric (see metric_is_slack).
  void (*corrector)(const double* cw, const double* p0, const double* l0,
                    const double* e0, const double* p1, const double* l1,
                    double* cp, const double* h, const double* corr,
                    double* metric, std::size_t n, std::size_t La,
                    std::size_t L, double stiff, double floor_ppm,
                    double check_floor, double eps);
  /// Accuracy controller: per-lane max relative change cw -> cp.
  void (*max_change)(const double* cw, const double* cp, double* mc,
                     std::size_t n, std::size_t La, std::size_t L,
                     double change_floor);
  /// Commit blend: accepted lanes take cp, others keep cw.
  void (*commit)(double* cw, const double* cp, const double* acc,
                 std::size_t n, std::size_t La, std::size_t L);
  /// Production/loss panel assembly for this profile.
  void (*production_loss)(const Mechanism& mech, const double* c,
                          const double* k, double* p_out, double* l_out,
                          std::size_t lanes, std::size_t stride);
  /// Convergence test semantics: metric[i] < eps when false (strict ratio
  /// metric), metric[i] < 0 when true (tolerance slack metric).
  bool metric_is_slack = false;
};

/// The strict (bit-identical) kernel bundle.
const LaneOps& strict_lane_ops();
/// The tolerance (FMA-contracted) kernel bundle.
const LaneOps& tolerance_lane_ops();

}  // namespace yb_detail
}  // namespace airshed
