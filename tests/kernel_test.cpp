// Tests for the cell-batched SoA kernel engine (airshed::kernel): panel
// plumbing, bit-identity of every blocked entry point against its scalar
// oracle, the block-commit tripwire on both model grids, the bounded
// rate-cache eviction, and the bench JSON/timing helpers. The whole-hour
// oracle (model vs a sequential scalar loop) is in integration_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <airshed/airshed.h>

#include "bench_common.hpp"

namespace {

using namespace airshed;

// ------------------------------------------------------------ panels

TEST(Kernel, PaddedLanesRoundsUpToLaneWidth) {
  EXPECT_EQ(kernel::padded_lanes(1), kernel::kLaneRound);
  EXPECT_EQ(kernel::padded_lanes(kernel::kLaneRound), kernel::kLaneRound);
  EXPECT_EQ(kernel::padded_lanes(kernel::kLaneRound + 1),
            2 * kernel::kLaneRound);
}

TEST(Kernel, ArenaPointersSurviveGrowth) {
  kernel::Arena arena;
  double* a = arena.alloc(16);
  for (int i = 0; i < 16; ++i) a[i] = 1.0 + i;
  // Force growth well past the first slab; `a` must stay valid.
  std::vector<double*> more;
  for (int n = 0; n < 64; ++n) more.push_back(arena.alloc(1024));
  for (double* p : more) p[0] = 7.0;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], 1.0 + i);

  // reset() consolidates to one slab; steady state reuses it without
  // growing capacity further.
  arena.reset();
  const std::size_t cap = arena.capacity();
  ASSERT_GE(cap, 64u * 1024u);
  double* b = arena.alloc(cap / 2);
  b[0] = 3.0;
  arena.reset();
  EXPECT_EQ(arena.capacity(), cap);

  // reserve() keeps a single slab that is large enough and replaces one
  // that is not with a slab of exactly the (lane-rounded) request. At
  // 64 KiB and up the slab is mapped pages, written end to end here.
  arena.reserve(cap / 2);
  EXPECT_EQ(arena.capacity(), cap);
  arena.reserve(2 * cap + 3);
  EXPECT_EQ(arena.slabs(), 1u);
  EXPECT_EQ(arena.capacity(), kernel::padded_lanes(2 * cap + 3));
  double* c = arena.alloc(2 * cap + 3);
  for (std::size_t i = 0; i < 2 * cap + 3; ++i) c[i] = 1.0;
  EXPECT_EQ(arena.capacity(), kernel::padded_lanes(2 * cap + 3));
}

TEST(Kernel, CellBlockGatherScatterRoundTripAndTailPadding) {
  const int ns = 3;
  ConcentrationField conc(ns, 2, 10);
  for (int s = 0; s < ns; ++s) {
    for (std::size_t k = 0; k < 2; ++k) {
      for (std::size_t c = 0; c < 10; ++c) {
        conc(s, k, c) = 100.0 * s + 10.0 * static_cast<double>(k) +
                        static_cast<double>(c);
      }
    }
  }

  kernel::CellBlock block(ns, 8);
  block.gather(conc, 1, 3, 5);
  EXPECT_EQ(block.width(), 5);
  ASSERT_GE(block.stride(), 5u);
  for (int s = 0; s < ns; ++s) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(block.row(s)[i], conc(s, 1, 3 + i)) << "s=" << s << " i=" << i;
    }
    // Tail lanes replicate the last real cell.
    for (std::size_t i = 5; i < block.stride(); ++i) {
      EXPECT_EQ(block.row(s)[i], conc(s, 1, 7)) << "s=" << s << " i=" << i;
    }
  }

  ConcentrationField out(ns, 2, 10, -1.0);
  block.scatter(out, 1, 3);
  for (int s = 0; s < ns; ++s) {
    for (std::size_t c = 0; c < 10; ++c) {
      if (c >= 3 && c < 8) {
        EXPECT_EQ(out(s, 1, c), conc(s, 1, c));
      } else {
        EXPECT_EQ(out(s, 1, c), -1.0);  // untouched outside the block
      }
      EXPECT_EQ(out(s, 0, c), -1.0);  // untouched other layer
    }
  }
}

// ------------------------------------------------------------ chemistry

std::vector<double> urban_state() {
  std::vector<double> c(kSpeciesCount);
  for (int s = 0; s < kSpeciesCount; ++s) {
    c[s] = background_ppm(static_cast<Species>(s));
  }
  c[index_of(Species::NO)] = 0.02;
  c[index_of(Species::NO2)] = 0.03;
  c[index_of(Species::PAR)] = 0.3;
  c[index_of(Species::OLE)] = 0.01;
  c[index_of(Species::FORM)] = 0.01;
  c[index_of(Species::CO)] = 1.0;
  return c;
}

/// Deterministic per-lane perturbation of the urban state (keeps every
/// species positive; exercises lane-divergent chemistry).
std::vector<double> lane_state(int lane) {
  std::vector<double> c = urban_state();
  for (int s = 0; s < kSpeciesCount; ++s) {
    const double f = 1.0 + 0.05 * std::sin(0.7 * lane + 0.3 * s);
    c[s] *= f;
  }
  return c;
}

/// Runs production_loss_block on `width` lanes starting at lane `begin` of
/// a panel with lane stride `stride` — the offset sub-segment calls that
/// integrate_block_ops makes — and checks every covered column against a
/// scalar production_loss on that cell with that lane's own rate column.
/// Lanes outside the segment must keep their sentinel values.
using BlockPl = void (Mechanism::*)(const double*, const double*, double*,
                                    double*, std::size_t, std::size_t) const;
void expect_block_matches_scalar(
    const Mechanism& m, std::size_t width, std::size_t begin,
    std::size_t stride, BlockPl block = &Mechanism::production_loss_block) {
  const std::size_t nr = m.reaction_count();
  constexpr double kSentinel = -7.25;
  std::vector<double> c(kSpeciesCount * stride), kp(nr * stride),
      p(kSpeciesCount * stride, kSentinel),
      l(kSpeciesCount * stride, kSentinel);
  std::vector<double> k(nr);
  for (std::size_t i = 0; i < stride; ++i) {
    std::vector<double> cell = lane_state(static_cast<int>(i));
    // Two lanes put the one negative-product species (PAR) at and below
    // the 1e-30 floor of the net-consumption branch.
    if (i == begin + width / 2) cell[index_of(Species::PAR)] = 1e-30;
    if (i == begin + width - 1) cell[index_of(Species::PAR)] = 0.0;
    for (int s = 0; s < kSpeciesCount; ++s) c[s * stride + i] = cell[s];
    // A distinct rate column per lane.
    m.compute_rates(280.0 + 0.37 * static_cast<double>(i), 0.7, k);
    for (std::size_t r = 0; r < nr; ++r) kp[r * stride + i] = k[r];
  }
  (m.*block)(c.data() + begin, kp.data() + begin, p.data() + begin,
             l.data() + begin, width, stride);

  std::vector<double> ps(kSpeciesCount), ls(kSpeciesCount),
      cs(kSpeciesCount);
  for (std::size_t i = 0; i < stride; ++i) {
    const bool inside = i >= begin && i < begin + width;
    for (int s = 0; s < kSpeciesCount; ++s) cs[s] = c[s * stride + i];
    for (std::size_t r = 0; r < nr; ++r) k[r] = kp[r * stride + i];
    m.production_loss(cs, k, ps, ls);
    for (int s = 0; s < kSpeciesCount; ++s) {
      const double pe = inside ? ps[s] : kSentinel;
      const double le = inside ? ls[s] : kSentinel;
      EXPECT_EQ(p[s * stride + i], pe) << "width=" << width << " begin="
                                       << begin << " lane=" << i
                                       << " species=" << s;
      EXPECT_EQ(l[s * stride + i], le) << "width=" << width << " begin="
                                       << begin << " lane=" << i
                                       << " species=" << s;
    }
  }
}

TEST(Kernel, ProductionLossBlockMatchesScalarBitwise) {
  const Mechanism& m = Mechanism::cb4_condensed();
  for (std::size_t width : {1, 5, 7, 8, 9, 16, 33, 200}) {
    // A whole panel, then aligned and unaligned segments of a wider one.
    expect_block_matches_scalar(m, width, 0, kernel::padded_lanes(width));
    const std::size_t wide =
        kernel::padded_lanes(width + 2 * kernel::kLaneRound);
    expect_block_matches_scalar(m, width, kernel::kLaneRound, wide);
    expect_block_matches_scalar(m, width, 3, wide);
  }
}

TEST(Kernel, ProductionLossBlockFallbackMatchesScalarBitwise) {
  // Mechanisms that are not the CB4 table run the scalar body per lane,
  // through both block entry points.
  std::vector<Reaction> decay(1);
  decay[0].label = "decay";
  decay[0].reactants = {Species::CO};
  decay[0].rate.a = 0.3;
  // CB4 without its last reaction: full chemistry, not the compiled table.
  const auto cb4 = Mechanism::cb4_condensed().reactions();
  std::vector<Reaction> trimmed(cb4.begin(), cb4.end() - 1);
  for (auto* rs : {&decay, &trimmed}) {
    const Mechanism m(*rs);
    for (BlockPl block : {&Mechanism::production_loss_block,
                          &Mechanism::production_loss_block_fast}) {
      for (std::size_t width : {1, 9, 33}) {
        expect_block_matches_scalar(m, width, 0, kernel::padded_lanes(width),
                                    block);
        expect_block_matches_scalar(m, width, kernel::kLaneRound,
                                    kernel::padded_lanes(width + 16), block);
      }
    }
  }
}

TEST(Kernel, IntegrateBlockMatchesScalarBitwise) {
  const Mechanism& m = Mechanism::cb4_condensed();
  for (int width : {1, 5, 7, 8, 32, 64}) {
    ConcentrationField conc(kSpeciesCount, 1, width);
    std::vector<double> temps(width);
    for (int i = 0; i < width; ++i) {
      const std::vector<double> cell = lane_state(i);
      for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = cell[s];
      temps[i] = 288.0 + 0.5 * i;  // distinct rate constants per lane
    }

    kernel::CellBlock block(kSpeciesCount, width);
    block.gather(conc, 0, 0, width);
    YoungBorisSolver blocked(m);
    std::vector<YoungBorisResult> res(width);
    blocked.integrate_block(block, 10.0, temps, 0.8, res);

    YoungBorisSolver scalar(m);
    std::vector<double> cell(kSpeciesCount);
    for (int i = 0; i < width; ++i) {
      for (int s = 0; s < kSpeciesCount; ++s) cell[s] = conc(s, 0, i);
      const YoungBorisResult ref = scalar.integrate(cell, 10.0, temps[i], 0.8);
      for (int s = 0; s < kSpeciesCount; ++s) {
        EXPECT_EQ(block.row(s)[i], cell[s])
            << "width=" << width << " lane=" << i << " species=" << s;
      }
      EXPECT_EQ(res[i].substeps, ref.substeps) << "lane=" << i;
      EXPECT_EQ(res[i].corrector_evals, ref.corrector_evals) << "lane=" << i;
      EXPECT_EQ(res[i].nonconverged_steps, ref.nonconverged_steps)
          << "lane=" << i;
      EXPECT_EQ(res[i].work_flops, ref.work_flops) << "lane=" << i;
    }
  }
}

// Regression guard for the lane-compaction bookkeeping: wildly
// heterogeneous lanes retire at very different times over a long interval,
// so surviving slots are shifted repeatedly — including while in the
// substep-retry state, where the solver reuses the slot's P0/L0 without a
// dense recompute. A shift that forgets to move any per-slot panel column
// (state, rates, P0/L0, control scalars) breaks bit-identity here.
TEST(Kernel, IntegrateBlockCompactionKeepsBitIdentity) {
  const Mechanism& m = Mechanism::cb4_condensed();
  for (int width : {2, 5, 7, 32}) {
    ConcentrationField conc(kSpeciesCount, 1, width);
    std::vector<double> temps(width);
    for (int i = 0; i < width; ++i) {
      // Near-trace background with a few elevated species, scaled across
      // two orders of magnitude per lane: substep counts (and retirement
      // times) diverge hard, and the substep controller rejects often
      // enough that compaction rounds leave only retrying survivors —
      // exactly the state whose P0/L0 reuse the shift must preserve.
      // (This profile reproduced the original panel-shift bug; the richer
      // urban_state() did not.)
      std::vector<double> cell(kSpeciesCount, 1e-4);
      cell[0] = 0.08;
      cell[1] = 0.02;
      cell[2] = 0.12;
      const double boost = 1.0 + 40.0 * (i % 5) / 4.0;
      for (int s = 0; s < kSpeciesCount; ++s) {
        conc(s, 0, i) =
            cell[s] * boost * (1.0 + 0.05 * std::sin(0.7 * i + 0.3 * s));
      }
      temps[i] = 285.0 + 2.0 * (i % 7);
    }

    kernel::CellBlock block(kSpeciesCount, width);
    block.gather(conc, 0, 0, width);
    YoungBorisSolver blocked(m);
    std::vector<YoungBorisResult> res(width);
    blocked.integrate_block(block, 60.0, temps, 0.35, res);

    YoungBorisSolver scalar(m);
    std::vector<double> cell(kSpeciesCount);
    for (int i = 0; i < width; ++i) {
      for (int s = 0; s < kSpeciesCount; ++s) cell[s] = conc(s, 0, i);
      const YoungBorisResult ref = scalar.integrate(cell, 60.0, temps[i], 0.35);
      for (int s = 0; s < kSpeciesCount; ++s) {
        EXPECT_EQ(block.row(s)[i], cell[s])
            << "width=" << width << " lane=" << i << " species=" << s;
      }
      EXPECT_EQ(res[i].substeps, ref.substeps)
          << "width=" << width << " lane=" << i;
      EXPECT_EQ(res[i].corrector_evals, ref.corrector_evals)
          << "width=" << width << " lane=" << i;
    }
  }
}

/// A panel whose every vector group mixes near-trace and urban cells at
/// distinct temperatures, so neighbouring lanes converge at different
/// corrector iterations.
ConcentrationField mixed_panel(int width, std::vector<double>& temps) {
  ConcentrationField conc(kSpeciesCount, 1, width);
  temps.assign(static_cast<std::size_t>(width), 0.0);
  for (int i = 0; i < width; ++i) {
    // Urban, near-trace, heavy, dilute and very heavy, cycling by lane.
    constexpr double kScale[] = {1.0, 1e-3, 4.0, 0.03, 12.0};
    const std::vector<double> cell = lane_state(i);
    for (int s = 0; s < kSpeciesCount; ++s) {
      conc(s, 0, i) = cell[s] * kScale[i % 5];
    }
    temps[static_cast<std::size_t>(i)] = 283.0 + 1.3 * (i % 11);
  }
  return conc;
}

// Between corrector iterations the engine swaps the still-iterating slots
// to the front of the panel. A swap that forgets a per-slot column (state,
// rates, P0/L0, predictor slope, corrector masks, iteration counts) breaks
// bit-identity here. The second case caps the corrector at five iterations
// and raises dt_min, so non-converged lanes and forced dt_min acceptances
// are partitioned too.
TEST(Kernel, IntegrateBlockCorrectorPartitionKeepsBitIdentity) {
  const Mechanism& m = Mechanism::cb4_condensed();
  YoungBorisOptions capped;
  capped.max_corrector_iters = 5;
  capped.dt_min_min = 0.01;
  for (const YoungBorisOptions& opts : {YoungBorisOptions{}, capped}) {
    const bool is_capped = opts.max_corrector_iters == 5;
    for (int width : {9, 16, 33, 64, 200}) {
      const std::string at = std::string(is_capped ? "capped" : "default") +
                             " width=" + std::to_string(width);
      std::vector<double> temps;
      const ConcentrationField conc = mixed_panel(width, temps);
      kernel::CellBlock block(kSpeciesCount, width);
      block.gather(conc, 0, 0, width);
      YoungBorisSolver blocked(m, opts);
      std::vector<YoungBorisResult> res(width);
      blocked.integrate_block(block, 20.0, temps, 0.6, res);
      EXPECT_GT(blocked.slot_swaps(), 0LL) << at;

      YoungBorisSolver scalar(m, opts);
      std::vector<double> cell(kSpeciesCount);
      int nonconverged = 0;
      for (int i = 0; i < width; ++i) {
        for (int s = 0; s < kSpeciesCount; ++s) cell[s] = conc(s, 0, i);
        const YoungBorisResult ref =
            scalar.integrate(cell, 20.0, temps[i], 0.6);
        for (int s = 0; s < kSpeciesCount; ++s) {
          EXPECT_EQ(block.row(s)[i], cell[s])
              << at << " lane=" << i << " species=" << s;
        }
        EXPECT_EQ(res[i].substeps, ref.substeps) << at << " lane=" << i;
        EXPECT_EQ(res[i].corrector_evals, ref.corrector_evals)
            << at << " lane=" << i;
        EXPECT_EQ(res[i].nonconverged_steps, ref.nonconverged_steps)
            << at << " lane=" << i;
        EXPECT_EQ(res[i].work_flops, ref.work_flops) << at << " lane=" << i;
        nonconverged += res[i].nonconverged_steps;
      }
      if (is_capped) {
        EXPECT_GT(nonconverged, 0) << at;
      }
    }
  }
}

// --------------------------------------- lane masking / SIMD edge cases

TEST(Kernel, LaneSegmentsSkipDeadGroupsAndCoalesce) {
  const std::size_t R = kernel::kLaneRound;
  std::vector<double> mask(4 * R, 0.0);
  std::vector<kernel::LaneSegment> segs;

  // All dead: no segments, no lanes.
  kernel::segments_where(mask.data(), 1.0, 4 * R, 4 * R, segs);
  EXPECT_TRUE(segs.empty());
  EXPECT_EQ(kernel::segment_lanes(segs), 0u);

  // One live lane in group 0 and one in group 2: two segments, a full
  // group each; the dead group between them is skipped.
  mask[1] = 1.0;
  mask[2 * R + 3] = 1.0;
  kernel::segments_where(mask.data(), 1.0, 4 * R, 4 * R, segs);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, R);
  EXPECT_EQ(segs[1].begin, 2 * R);
  EXPECT_EQ(segs[1].end, 3 * R);
  EXPECT_EQ(kernel::segment_lanes(segs), 2 * R);

  // Adjacent live groups coalesce: with group 1 now live too, groups
  // 0..2 form one contiguous segment.
  mask[R] = 1.0;
  kernel::segments_where(mask.data(), 1.0, 4 * R, 4 * R, segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, 3 * R);

  // limit < La: live flags beyond `limit` are ignored, but a live group
  // still extends to La (padding lanes ride along in the dense pass).
  std::fill(mask.begin(), mask.end(), 0.0);
  mask[0] = 1.0;
  mask[R + 1] = 1.0;  // beyond limit: must not wake group 1
  kernel::segments_where(mask.data(), 1.0, /*limit=*/3, /*La=*/2 * R, segs);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].begin, 0u);
  EXPECT_EQ(segs[0].end, R);
  EXPECT_EQ(kernel::count_lanes(mask.data(), 1.0, 3), 1u);
}

// The block-solver front end: LaneMode::strict must reproduce the scalar
// oracle bit for bit, including at widths below one vector group (the
// whole block is one ragged tail).
TEST(Kernel, BlockSolverStrictMatchesScalarBitwise) {
  const Mechanism& m = Mechanism::cb4_condensed();
  for (int width : {1, 3, 8, 21, 64}) {
    ConcentrationField conc(kSpeciesCount, 1, width);
    std::vector<double> temps(width);
    for (int i = 0; i < width; ++i) {
      const std::vector<double> cell = lane_state(i);
      for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = cell[s];
      temps[i] = 288.0 + 0.5 * i;
    }

    kernel::CellBlock block(kSpeciesCount, width);
    block.gather(conc, 0, 0, width);
    YoungBorisBlockSolver blocked(m);
    EXPECT_EQ(blocked.mode(), kernel::LaneMode::strict);
    std::vector<YoungBorisResult> res(width);
    blocked.integrate_block(block, 10.0, temps, 0.8, res);

    YoungBorisSolver scalar(m);
    std::vector<double> cell(kSpeciesCount);
    for (int i = 0; i < width; ++i) {
      for (int s = 0; s < kSpeciesCount; ++s) cell[s] = conc(s, 0, i);
      const YoungBorisResult ref = scalar.integrate(cell, 10.0, temps[i], 0.8);
      for (int s = 0; s < kSpeciesCount; ++s) {
        EXPECT_EQ(block.row(s)[i], cell[s])
            << "width=" << width << " lane=" << i << " species=" << s;
      }
      EXPECT_EQ(res[i].substeps, ref.substeps) << "lane=" << i;
      EXPECT_EQ(res[i].corrector_evals, ref.corrector_evals) << "lane=" << i;
    }
  }
}

// One stiff outlier in an otherwise quiet block: the outlier keeps
// iterating (and substepping) long after every other lane converged, so
// the group-masked corrector scheduling must freeze the quiet lanes
// bit-exactly while the hot lane runs to completion.
TEST(Kernel, IntegrateBlockSingleStiffLaneKeepsBitIdentity) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const int width = 24;
  const int hot = 13;  // inside the second vector group
  ConcentrationField conc(kSpeciesCount, 1, width);
  std::vector<double> temps(width, 292.0);
  for (int i = 0; i < width; ++i) {
    // Quiet near-background lanes...
    for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = 1e-4;
    if (i == hot) {
      // ...except one polluted, fast-chemistry cell.
      const std::vector<double> cell = lane_state(3);
      for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = 10.0 * cell[s];
      temps[i] = 310.0;
    }
  }

  kernel::CellBlock block(kSpeciesCount, width);
  block.gather(conc, 0, 0, width);
  YoungBorisSolver blocked(m);
  std::vector<YoungBorisResult> res(width);
  blocked.integrate_block(block, 30.0, temps, 0.9, res);

  YoungBorisSolver scalar(m);
  std::vector<double> cell(kSpeciesCount);
  for (int i = 0; i < width; ++i) {
    for (int s = 0; s < kSpeciesCount; ++s) cell[s] = conc(s, 0, i);
    const YoungBorisResult ref = scalar.integrate(cell, 30.0, temps[i], 0.9);
    for (int s = 0; s < kSpeciesCount; ++s) {
      EXPECT_EQ(block.row(s)[i], cell[s]) << "lane=" << i << " species=" << s;
    }
    EXPECT_EQ(res[i].corrector_evals, ref.corrector_evals) << "lane=" << i;
    EXPECT_EQ(res[i].substeps, ref.substeps) << "lane=" << i;
  }
  // The scenario is only meaningful if per-lane work actually diverged
  // (the masked scheduling had converged/live groups to tell apart).
  EXPECT_NE(res[hot].corrector_evals, res[0].corrector_evals);
  EXPECT_GT(blocked.lane_evals_dense(), blocked.lane_evals_live());
}

// A block of identical easy lanes converges in lockstep; the
// all-lanes-converged early exit must not change any per-lane accounting
// relative to the scalar oracle, and the live/dense occupancy counters
// must see full groups.
TEST(Kernel, IntegrateBlockAllLanesConvergedEarlyExit) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const int width = 16;
  ConcentrationField conc(kSpeciesCount, 1, width);
  std::vector<double> temps(width, 295.0);
  const std::vector<double> cell0 = lane_state(0);
  for (int i = 0; i < width; ++i) {
    for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = cell0[s];
  }

  kernel::CellBlock block(kSpeciesCount, width);
  block.gather(conc, 0, 0, width);
  YoungBorisSolver blocked(m);
  std::vector<YoungBorisResult> res(width);
  blocked.integrate_block(block, 2.0, temps, 0.0, res);

  YoungBorisSolver scalar(m);
  std::vector<double> cell(kSpeciesCount);
  for (int s = 0; s < kSpeciesCount; ++s) cell[s] = cell0[s];
  const YoungBorisResult ref = scalar.integrate(cell, 2.0, temps[0], 0.0);
  for (int i = 0; i < width; ++i) {
    for (int s = 0; s < kSpeciesCount; ++s) {
      EXPECT_EQ(block.row(s)[i], cell[s]) << "lane=" << i << " species=" << s;
    }
    EXPECT_EQ(res[i].corrector_evals, ref.corrector_evals) << "lane=" << i;
    EXPECT_EQ(res[i].substeps, ref.substeps) << "lane=" << i;
  }

  // Identical lanes: every dense group held live work, so occupancy is
  // exactly nact/La (16 live of 16 padded); dense >= live always.
  EXPECT_GT(blocked.block_rounds(), 0LL);
  EXPECT_GT(blocked.lane_evals_live(), 0LL);
  EXPECT_EQ(blocked.lane_evals_dense(), blocked.lane_evals_live());
}

// NaN poison entering the vector path must be caught at the substep that
// produced it, with the species and lane named — not committed silently.
TEST(Kernel, IntegrateBlockNaNTripwireNamesSpeciesAndLane) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const int width = 8;
  ConcentrationField conc(kSpeciesCount, 1, width);
  std::vector<double> temps(width, 298.0);
  for (int i = 0; i < width; ++i) {
    const std::vector<double> cell = lane_state(i);
    for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = cell[s];
  }
  conc(2, 0, 5) = std::numeric_limits<double>::quiet_NaN();

  kernel::CellBlock block(kSpeciesCount, width);
  block.gather(conc, 0, 0, width);
  YoungBorisSolver blocked(m);
  std::vector<YoungBorisResult> res(width);
  try {
    blocked.integrate_block(block, 10.0, temps, 0.8, res);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("block lane 5"), std::string::npos) << what;
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
  }
}

// The tolerance profile (FMA-contracted kernels, division-free convergence
// slack) is not bit-identical — it is held to the documented relative
// bound against the strict/scalar result instead (docs/BENCHMARKS.md).
TEST(Kernel, ToleranceModeStaysWithinRelativeBound) {
  const Mechanism& m = Mechanism::cb4_condensed();
  const int width = 64;
  ConcentrationField conc(kSpeciesCount, 1, width);
  std::vector<double> temps(width);
  for (int i = 0; i < width; ++i) {
    const std::vector<double> cell = lane_state(i);
    for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = cell[s];
    temps[i] = 288.0 + 0.5 * i;
  }

  kernel::CellBlock strict_block(kSpeciesCount, width);
  strict_block.gather(conc, 0, 0, width);
  YoungBorisBlockSolver strict_solver(m);
  std::vector<YoungBorisResult> res(width);
  strict_solver.integrate_block(strict_block, 30.0, temps, 0.8, res);

  kernel::CellBlock tol_block(kSpeciesCount, width);
  tol_block.gather(conc, 0, 0, width);
  YoungBorisBlockSolver tol_solver(m, {}, kernel::LaneMode::tolerance);
  EXPECT_EQ(tol_solver.mode(), kernel::LaneMode::tolerance);
  std::vector<YoungBorisResult> tol_res(width);
  tol_solver.integrate_block(tol_block, 30.0, temps, 0.8, tol_res);

  double worst = 0.0;
  for (int s = 0; s < kSpeciesCount; ++s) {
    for (int i = 0; i < width; ++i) {
      const double ref = strict_block.row(s)[i];
      const double got = tol_block.row(s)[i];
      ASSERT_TRUE(std::isfinite(got)) << "lane=" << i << " species=" << s;
      const double scale = std::max(std::abs(ref), 1e-9);
      worst = std::max(worst, std::abs(got - ref) / scale);
    }
  }
  // Documented bound (with margin over the measured error on the
  // reference host): every final concentration within 1e-6 relative.
  EXPECT_LE(worst, 1e-6);
  // Same physics: substep counts may differ slightly but must be close.
  for (int i = 0; i < width; ++i) {
    EXPECT_NEAR(tol_res[i].substeps, res[i].substeps,
                std::max(2.0, 0.25 * res[i].substeps))
        << "lane=" << i;
  }
}

TEST(Kernel, IntegrateBlockReusesArenaAcrossCalls) {
  // The blocked path's scratch is one slab of exactly its footprint — the
  // rate panel, seven species panels and four lane rows at the panel
  // stride — allocated by the first call and never grown by later calls,
  // whatever their width: steady state performs zero heap allocation in
  // the time loop.
  const Mechanism& m = Mechanism::cb4_condensed();
  constexpr int kWidth = 40;
  ConcentrationField conc(kSpeciesCount, 1, kWidth);
  for (int i = 0; i < kWidth; ++i) {
    const std::vector<double> cell = lane_state(i);
    for (int s = 0; s < kSpeciesCount; ++s) conc(s, 0, i) = cell[s];
  }
  YoungBorisSolver solver(m);
  EXPECT_EQ(solver.block_arena().capacity(), 0u);
  kernel::CellBlock block(kSpeciesCount, kWidth);
  const std::size_t exact =
      (m.reaction_count() + 7 * static_cast<std::size_t>(m.species_count()) +
       4) *
      block.stride();
  for (int width : {kWidth, 7, 33, 1, kWidth, kWidth}) {
    const std::vector<double> temps(static_cast<std::size_t>(width), 295.0);
    std::vector<YoungBorisResult> res(static_cast<std::size_t>(width));
    block.gather(conc, 0, 0, width);
    solver.integrate_block(block, 5.0, temps, 0.5, res);
    EXPECT_EQ(solver.block_arena().slabs(), 1u) << "width=" << width;
    EXPECT_EQ(solver.block_arena().capacity(), exact) << "width=" << width;
    for (int i = 0; i < width; ++i) EXPECT_GT(res[i].substeps, 0);
  }
}

// ------------------------------------------------------------ rate cache

TEST(Kernel, RateCacheBoundedEvictionAndAccounting) {
  YoungBorisOptions opts;
  opts.rate_cache_entries = 8;
  YoungBorisSolver solver(Mechanism::cb4_condensed(), opts);
  std::vector<double> c = urban_state();

  // More distinct keys than capacity, cycled repeatedly: the cache must
  // stay bounded and evict one victim at a time (no clear-everything
  // thundering herd: evictions, not wholesale drops, absorb the overflow).
  long long calls = 0;
  for (int round = 0; round < 3; ++round) {
    for (int t = 0; t < 20; ++t) {
      std::vector<double> cell = c;
      solver.integrate(cell, 0.1, 285.0 + t, 0.5);
      ++calls;
    }
  }
  EXPECT_LE(solver.rate_cache_size(), opts.rate_cache_entries);
  EXPECT_GT(solver.rate_cache_evictions(), 0);
  // Every integrate() resolves its rates exactly once: either a cached hit
  // or one compute_rates evaluation.
  EXPECT_EQ(solver.rate_cache_hits() + solver.rate_evals(), calls);
  // Single-victim eviction: at most one eviction per miss.
  EXPECT_LE(solver.rate_cache_evictions(), solver.rate_evals());

  // A hot key hammered while the cache is full keeps hitting.
  const long long hits_before = solver.rate_cache_hits();
  std::vector<double> cell = c;
  solver.integrate(cell, 0.1, 350.0, 0.5);  // one miss to insert the key
  for (int i = 0; i < 50; ++i) {
    cell = c;
    solver.integrate(cell, 0.1, 350.0, 0.5);
  }
  EXPECT_EQ(solver.rate_cache_hits(), hits_before + 50);
  EXPECT_LE(solver.rate_cache_size(), opts.rate_cache_entries);
}

TEST(Kernel, RateCacheOffStillExact) {
  YoungBorisOptions cached, uncached;
  uncached.cache_rates = false;
  YoungBorisSolver a(Mechanism::cb4_condensed(), cached);
  YoungBorisSolver b(Mechanism::cb4_condensed(), uncached);
  std::vector<double> ca = urban_state(), cb = urban_state();
  for (int t = 0; t < 5; ++t) {
    a.integrate(ca, 1.0, 290.0 + t, 0.6);
    b.integrate(cb, 1.0, 290.0 + t, 0.6);
  }
  for (int s = 0; s < kSpeciesCount; ++s) EXPECT_EQ(ca[s], cb[s]);
  EXPECT_EQ(b.rate_cache_hits(), 0);
  EXPECT_EQ(b.rate_cache_size(), 0u);
}

// ------------------------------------------------------------ tridiagonal

TEST(Kernel, TridiagonalBlockMatchesScalarBitwise) {
  const int n = 5;
  std::vector<double> lower(n), diag(n), upper(n);
  for (int i = 0; i < n; ++i) {
    lower[i] = i == 0 ? 0.0 : -0.3 - 0.01 * i;
    upper[i] = i == n - 1 ? 0.0 : -0.4 + 0.02 * i;
    diag[i] = 2.0 + 0.1 * i;
  }
  for (int width : {1, 3, 8, 13}) {
    const std::size_t stride = kernel::padded_lanes(width);
    std::vector<double> rhs(n * stride), scratch(n);
    for (int i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < stride; ++j) {
        rhs[i * stride + j] = std::sin(1.3 * i + 0.7 * static_cast<double>(j));
      }
    }
    std::vector<double> rhs_block = rhs;
    solve_tridiagonal_block(lower, diag, upper, rhs_block.data(), stride,
                            stride, scratch);
    for (int j = 0; j < width; ++j) {
      std::vector<double> col(n), scr(n);
      for (int i = 0; i < n; ++i) col[i] = rhs[i * stride + j];
      solve_tridiagonal(lower, diag, upper, col, scr);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(rhs_block[i * stride + j], col[i])
            << "width=" << width << " lane=" << j << " row=" << i;
      }
    }
  }
}

// ------------------------------------------------------------ vertical

TEST(Kernel, VerticalAdvanceColumnsMatchesScalarBitwise) {
  const int nl = 5;
  const std::size_t nodes = 11;  // ragged vs any power-of-two lane width
  VerticalTransport scalar_op(Meteorology::layer_thickness_m(nl));
  VerticalTransport block_op(Meteorology::layer_thickness_m(nl));

  ConcentrationField ref(kSpeciesCount, nl, nodes);
  for (int s = 0; s < kSpeciesCount; ++s) {
    for (int k = 0; k < nl; ++k) {
      for (std::size_t c = 0; c < nodes; ++c) {
        ref(s, k, c) = 0.01 + 0.001 * s + 0.0001 * k +
                       0.00001 * static_cast<double>(c);
      }
    }
  }
  ConcentrationField blk = ref;

  std::vector<double> kz(nl - 1, 25.0);
  kz[1] = 40.0;
  Array2<double> surface(kSpeciesCount, nodes, 0.0);
  for (std::size_t c = 0; c < nodes; ++c) {
    surface(index_of(Species::NO), c) = 1e-4 * (1.0 + static_cast<double>(c));
    surface(index_of(Species::CO), c) = 2e-3;
  }
  std::vector<double> deposition(kSpeciesCount, 0.0);
  deposition[index_of(Species::O3)] = 0.004;
  // One column gets an elevated point-source flux.
  std::vector<double> elevated(static_cast<std::size_t>(kSpeciesCount) * nl,
                               0.0);
  elevated[static_cast<std::size_t>(index_of(Species::SO2)) * nl + 2] = 0.05;
  const std::size_t src_node = 4;

  const double dt = 3.0;
  std::vector<double> col_flux(kSpeciesCount);
  std::vector<double> work_scalar(nodes, 0.0);
  for (std::size_t c = 0; c < nodes; ++c) {
    for (int s = 0; s < kSpeciesCount; ++s) col_flux[s] = surface(s, c);
    work_scalar[c] =
        scalar_op
            .advance_column(ref, c, kz, col_flux, deposition,
                            c == src_node ? std::span<const double>(elevated)
                                          : std::span<const double>(),
                            dt)
            .work_flops;
  }

  std::vector<const double*> elev(nodes, nullptr);
  elev[src_node] = elevated.data();
  // Two ragged blocks: [0, 8) and [8, 11).
  const VerticalStepResult r1 = block_op.advance_columns(
      blk, 0, 8, kz, surface, deposition,
      std::span<const double* const>(elev.data(), 8), dt);
  const VerticalStepResult r2 = block_op.advance_columns(
      blk, 8, 3, kz, surface, deposition,
      std::span<const double* const>(elev.data() + 8, 3), dt);

  for (int s = 0; s < kSpeciesCount; ++s) {
    for (int k = 0; k < nl; ++k) {
      for (std::size_t c = 0; c < nodes; ++c) {
        EXPECT_EQ(blk(s, k, c), ref(s, k, c))
            << "s=" << s << " k=" << k << " c=" << c;
      }
    }
  }
  for (std::size_t c = 0; c < nodes; ++c) {
    EXPECT_EQ(c < 8 ? r1.work_flops : r2.work_flops, work_scalar[c]);
  }
}

// ------------------------------------------------------------ transport

TEST(Kernel, OneDimBlockedLayerMatchesScalarBitwise) {
  const UniformGrid grid(BBox{0, 0, 40, 30}, 8, 6);
  OneDimTransport scalar_op(grid), block_op(grid);

  ConcentrationField ref(kSpeciesCount, 2, grid.cell_count());
  for (int s = 0; s < kSpeciesCount; ++s) {
    for (std::size_t c = 0; c < grid.cell_count(); ++c) {
      ref(s, 0, c) = 0.02 + 0.001 * s + 1e-4 * static_cast<double>(c % 7);
      ref(s, 1, c) = 0.01 + 0.002 * s;
    }
  }
  ConcentrationField blk = ref;

  std::vector<Point2> vel(grid.cell_count());
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    vel[c] = Point2{5.0 + 0.1 * static_cast<double>(c % 5),
                    -3.0 + 0.2 * static_cast<double>(c % 3)};
  }
  std::vector<double> bg(kSpeciesCount);
  for (int s = 0; s < kSpeciesCount; ++s) {
    bg[s] = background_ppm(static_cast<Species>(s));
  }

  const TransportStepResult a =
      scalar_op.advance_layer(ref, 0, vel, 12.0, 0.5, bg);
  for (int species_block : {1, 3, 8, 64}) {
    ConcentrationField trial = blk;
    const TransportStepResult b = block_op.advance_layer_blocked(
        trial, 0, vel, 12.0, 0.5, bg, species_block);
    EXPECT_EQ(b.work_flops, a.work_flops) << "sb=" << species_block;
    EXPECT_EQ(b.substeps, a.substeps) << "sb=" << species_block;
    for (int s = 0; s < kSpeciesCount; ++s) {
      for (std::size_t c = 0; c < grid.cell_count(); ++c) {
        EXPECT_EQ(trial(s, 0, c), ref(s, 0, c))
            << "sb=" << species_block << " s=" << s << " c=" << c;
        EXPECT_EQ(trial(s, 1, c), blk(s, 1, c)) << "other layer touched";
      }
    }
  }
}

TEST(Kernel, SupgBlockedLayerMatchesScalarBitwise) {
  const Dataset ds = test_basin_dataset();
  const TriMesh& mesh = ds.mesh();
  const std::size_t nv = mesh.vertex_count();
  SupgTransport scalar_op(mesh), block_op(mesh);

  ConcentrationField ref(kSpeciesCount, 2, nv);
  for (int s = 0; s < kSpeciesCount; ++s) {
    for (std::size_t v = 0; v < nv; ++v) {
      ref(s, 0, v) = 0.02 + 0.001 * s + 1e-4 * static_cast<double>(v % 7);
      ref(s, 1, v) = 0.01 + 0.002 * s;
    }
  }
  ConcentrationField blk = ref;

  // Spatially varying wind: a swirl plus a drift, so every element sees its
  // own velocity and the inflow boundary moves around the domain edge.
  const Point2 c = ds.emissions.domain().center();
  std::vector<Point2> vel(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    const Point2 p = mesh.points()[v];
    vel[v] = Point2{4.0 - 0.05 * (p.y - c.y), 1.5 + 0.05 * (p.x - c.x)};
  }
  std::vector<double> bg(kSpeciesCount);
  for (int s = 0; s < kSpeciesCount; ++s) {
    bg[s] = background_ppm(static_cast<Species>(s));
  }

  const TransportStepResult a =
      scalar_op.advance_layer(ref, 0, vel, 2.0, 0.25, bg);
  ASSERT_GT(a.substeps, 0);
  for (int species_block : {1, 3, 8, kSpeciesCount}) {
    ConcentrationField trial = blk;
    const TransportStepResult b = block_op.advance_layer_blocked(
        trial, 0, vel, 2.0, 0.25, bg, species_block);
    EXPECT_EQ(b.work_flops, a.work_flops) << "sb=" << species_block;
    EXPECT_EQ(b.substeps, a.substeps) << "sb=" << species_block;
    for (int s = 0; s < kSpeciesCount; ++s) {
      for (std::size_t v = 0; v < nv; ++v) {
        EXPECT_EQ(trial(s, 0, v), ref(s, 0, v))
            << "sb=" << species_block << " s=" << s << " v=" << v;
        EXPECT_EQ(trial(s, 1, v), blk(s, 1, v)) << "other layer touched";
      }
    }
  }
}

// ------------------------------------------------------------ model level

std::uint64_t outputs_checksum(const ModelRunResult& r) {
  std::uint64_t h = fnv1a(r.outputs.conc.flat());
  h = fnv1a(r.outputs.pm.flat(), h);
  for (const HourlyStats& s : r.outputs.hourly) {
    h = fnv1a(s.max_surface_o3_ppm, h);
    h = fnv1a(s.mean_surface_o3_ppm, h);
    h = fnv1a(s.mean_surface_no2_ppm, h);
    h = fnv1a(s.mean_surface_co_ppm, h);
  }
  for (const HourTrace& hour : r.trace.hours) {
    for (const StepTrace& step : hour.steps) {
      h = fnv1a(std::span<const double>(step.transport1_layer_work), h);
      h = fnv1a(std::span<const double>(step.transport2_layer_work), h);
      h = fnv1a(std::span<const double>(step.chem_column_work), h);
      h = fnv1a(step.aerosol_work, h);
    }
  }
  return h;
}

ModelOptions kernel_opts(int block, int threads) {
  ModelOptions opts;
  opts.hours = 1;
  opts.host_threads = threads;
  opts.oversubscribe = true;  // keep real multi-thread coverage on small hosts
  opts.kernel.block = block;
  return opts;
}

// ------------------------------------------------------------- tripwire

TEST(Kernel, CheckBlockFiniteNamesTheFirstPoisonedCell) {
  ConcentrationField conc(3, 2, 10, 1e-3);
  // A clean field passes every block.
  EXPECT_NO_THROW(kernel::check_block_finite(conc, 0, 10, 5, 0));

  conc(1, 1, 6) = std::numeric_limits<double>::quiet_NaN();
  // Blocks that do not cover cell 6 stay clean.
  EXPECT_NO_THROW(kernel::check_block_finite(conc, 0, 6, 5, 0));
  try {
    kernel::check_block_finite(conc, 4, 4, 5, 1);
    FAIL() << "NaN not detected";
  } catch (const kernel::NumericsError& e) {
    EXPECT_EQ(e.hour(), 5);
    EXPECT_EQ(e.block(), 1);
    EXPECT_EQ(e.species(), 1);
    EXPECT_EQ(e.cell(), 6u);
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }

  // Infinities trip it too.
  conc(1, 1, 6) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(kernel::check_block_finite(conc, 0, 10, 5, 0),
               kernel::NumericsError);
}

TEST(Kernel, ModelTripwireRaisesTypedErrorOnPoisonedEmissionStack) {
  // An infinite emission rate is the classic way poisoned state enters
  // the field (a NaN is already rejected by the inventory's rate >= 0
  // validation): it flows through the elevated flux into vertical
  // transport and must be caught at the very block commit that wrote it —
  // hour 0, with the poisoned species named — not hours later as a
  // mystery NaN. Both grids run the same block commit, so both trip.
  DatasetSpec spec = test_basin_spec();
  spec.stacks.push_back(PointSource{spec.domain.center(), 1, Species::SO2,
                                    std::numeric_limits<double>::infinity()});
  const Dataset ds = build_dataset(spec);
  const UniformDataset uniform = build_uniform_dataset(spec, 10, 10);

  ModelOptions opts;
  opts.hours = 1;
  const auto expect_trip = [](const char* grid, const auto& run) {
    try {
      run();
      ADD_FAILURE() << grid << ": poisoned stack survived the run";
    } catch (const kernel::NumericsError& e) {
      EXPECT_EQ(e.hour(), 0) << grid;
      EXPECT_GE(e.block(), 0) << grid;
      EXPECT_EQ(e.species(), static_cast<int>(Species::SO2)) << grid;
    }
  };
  expect_trip("multiscale", [&] { AirshedModel(ds, opts).run(); });
  expect_trip("uniform", [&] { UniformAirshedModel(uniform, opts).run(); });

  // The tripwire is free on clean runs: disabling it must not change the
  // committed fields bit-for-bit.
  DatasetSpec clean_spec = test_basin_spec();
  const Dataset clean = build_dataset(clean_spec);
  ModelOptions on = kernel_opts(32, 2);
  on.kernel.tripwire = true;
  ModelOptions off = kernel_opts(32, 2);
  off.kernel.tripwire = false;
  EXPECT_EQ(outputs_checksum(AirshedModel(clean, on).run()),
            outputs_checksum(AirshedModel(clean, off).run()));
}

// ------------------------------------------------------------ bench utils

TEST(Kernel, JsonWriterEscapesControlCharacters) {
  bench::JsonWriter json;
  json.begin_object();
  json.key("s").value(std::string_view("a\"b\\c\x01\n\r\t\b\f"));
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"s\":\"a\\\"b\\\\c\\u0001\\n\\r\\t\\b\\f\"}");
}

TEST(Kernel, JsonWriterKeysKeepInsertionOrder) {
  bench::JsonWriter json;
  json.begin_object();
  json.key("zebra").value(1);
  json.key("alpha").begin_array();
  json.value(2.5);
  json.value(false);
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.str(), "{\"zebra\":1,\"alpha\":[2.5,false]}");
}

TEST(Kernel, HostFingerprintNamesCpuCoresAndBuildType) {
  bench::JsonWriter json;
  json.begin_object();
  bench::host_fingerprint(json);
  json.end_object();
  const std::string s = json.str();
  EXPECT_EQ(s.rfind("{\"host\":{\"cpu_model\":\"", 0), 0u) << s;
  EXPECT_NE(s.find(",\"usable_cores\":"), std::string::npos) << s;
  EXPECT_NE(s.find(",\"build_type\":\""), std::string::npos) << s;
  EXPECT_GE(bench::usable_cores(), 1);
}

TEST(Kernel, MeasureWallReportsMedianAndMin) {
  int runs = 0;
  const bench::WallStats st =
      bench::measure_wall(2, 5, [&] { ++runs; });
  EXPECT_EQ(runs, 7);  // warmup + timed
  EXPECT_EQ(st.samples_s.size(), 5u);
  EXPECT_GE(st.median_s, st.min_s);
  EXPECT_GE(st.min_s, 0.0);
}

}  // namespace
