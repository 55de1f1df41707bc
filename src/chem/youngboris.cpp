#include "airshed/chem/youngboris.hpp"

#include "airshed/chem/yb_lanes.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "airshed/util/error.hpp"

namespace airshed {

void SharedRateTable::capture(double temp_k, double sun,
                              std::span<const double> k) {
  AIRSHED_REQUIRE(!frozen_, "SharedRateTable::capture after freeze()");
  const Key key{std::bit_cast<std::uint64_t>(temp_k),
                std::bit_cast<std::uint64_t>(sun)};
  table_.try_emplace(key, k.begin(), k.end());
}

const std::vector<double>* SharedRateTable::find(double temp_k,
                                                 double sun) const {
  const Key key{std::bit_cast<std::uint64_t>(temp_k),
                std::bit_cast<std::uint64_t>(sun)};
  const auto it = table_.find(key);
  return it != table_.end() ? &it->second : nullptr;
}

YoungBorisSolver::YoungBorisSolver(const Mechanism& mech,
                                   YoungBorisOptions opts)
    : mech_(&mech), opts_(opts) {
  AIRSHED_REQUIRE(opts_.eps > 0.0 && opts_.eps < 1.0, "eps out of range");
  AIRSHED_REQUIRE(opts_.dt_min_min > 0.0 &&
                      opts_.dt_min_min <= opts_.dt_init_min &&
                      opts_.dt_init_min <= opts_.dt_max_min,
                  "substep bounds inconsistent");
  const std::size_t n = static_cast<std::size_t>(mech.species_count());
  rates_.resize(mech.reaction_count());
  p0_.resize(n);
  l0_.resize(n);
  p1_.resize(n);
  l1_.resize(n);
  cp_.resize(n);
  cn_.resize(n);
}

void YoungBorisSolver::set_rate_epoch(std::int64_t epoch) {
  if (epoch == rate_epoch_) return;
  rate_epoch_ = epoch;
  rate_cache_.clear();
}

void YoungBorisSolver::evict_one_rate_entry() {
  // Bounded second-chance scan (unordered_map order is as good as a clock
  // hand here): clear reference bits along the way, evict the first entry
  // seen without one, else the first scanned. O(kScan) worst case — no
  // thundering-herd refill when the working set exceeds capacity.
  constexpr int kScan = 16;
  auto it = rate_cache_.begin();
  auto victim = it;
  for (int scanned = 0; it != rate_cache_.end() && scanned < kScan;
       ++it, ++scanned) {
    if (!it->second.used) {
      victim = it;
      break;
    }
    it->second.used = false;
  }
  rate_cache_.erase(victim);
  ++rate_cache_evictions_;
}

void YoungBorisSolver::load_rates(double temp_k, double sun) {
  // Batch-scoped shared table first: checked before the private cache so
  // the shared-hit count never depends on what this solver ran earlier.
  if (shared_rates_) {
    if (const std::vector<double>* k = shared_rates_->find(temp_k, sun)) {
      std::copy(k->begin(), k->end(), rates_.begin());
      ++rate_cache_shared_hits_;
      return;
    }
  }
  if (!opts_.cache_rates || opts_.rate_cache_entries == 0) {
    mech_->compute_rates(temp_k, sun, rates_);
    ++rate_evals_;
    if (capture_rates_) capture_rates_->capture(temp_k, sun, rates_);
    return;
  }
  const RateKey key{std::bit_cast<std::uint64_t>(temp_k),
                    std::bit_cast<std::uint64_t>(sun)};
  if (const auto it = rate_cache_.find(key); it != rate_cache_.end()) {
    std::copy(it->second.k.begin(), it->second.k.end(), rates_.begin());
    it->second.used = true;
    ++rate_cache_hits_;
    return;
  }
  mech_->compute_rates(temp_k, sun, rates_);
  ++rate_evals_;
  if (capture_rates_) capture_rates_->capture(temp_k, sun, rates_);
  if (rate_cache_.size() >= opts_.rate_cache_entries) evict_one_rate_entry();
  rate_cache_.emplace(key, CachedRates{rates_, true});
}

std::span<const double> YoungBorisSolver::rates_ref(double temp_k, double sun) {
  if (shared_rates_) {
    if (const std::vector<double>* k = shared_rates_->find(temp_k, sun)) {
      ++rate_cache_shared_hits_;
      return *k;  // frozen table: the span stays valid for the whole batch
    }
  }
  if (!opts_.cache_rates || opts_.rate_cache_entries == 0) {
    mech_->compute_rates(temp_k, sun, rates_);
    ++rate_evals_;
    if (capture_rates_) capture_rates_->capture(temp_k, sun, rates_);
    return rates_;
  }
  const RateKey key{std::bit_cast<std::uint64_t>(temp_k),
                    std::bit_cast<std::uint64_t>(sun)};
  if (const auto it = rate_cache_.find(key); it != rate_cache_.end()) {
    it->second.used = true;
    ++rate_cache_hits_;
    return it->second.k;
  }
  mech_->compute_rates(temp_k, sun, rates_);
  ++rate_evals_;
  if (capture_rates_) capture_rates_->capture(temp_k, sun, rates_);
  if (rate_cache_.size() >= opts_.rate_cache_entries) evict_one_rate_entry();
  return rate_cache_.emplace(key, CachedRates{rates_, true})
      .first->second.k;
}

YoungBorisResult YoungBorisSolver::integrate(
    std::span<double> c, double dt_total_min, double temp_k, double sun,
    std::span<const double> source_ppm_min) {
  const std::size_t n = static_cast<std::size_t>(mech_->species_count());
  AIRSHED_REQUIRE(c.size() == n, "state vector has wrong size");
  AIRSHED_REQUIRE(dt_total_min >= 0.0, "negative integration interval");
  AIRSHED_REQUIRE(source_ppm_min.empty() || source_ppm_min.size() == n,
                  "source vector has wrong size");

  YoungBorisResult result;
  if (dt_total_min == 0.0) return result;

  // Temperature and photolysis are frozen over the chemistry step, so rate
  // constants are computed once — and reused across cells with bitwise
  // identical (temp_k, sun) when the rate cache is on.
  load_rates(temp_k, sun);

  auto add_source = [&](std::span<double> p) {
    if (source_ppm_min.empty()) return;
    for (std::size_t i = 0; i < n; ++i) p[i] += source_ppm_min[i];
  };

  const double floor = opts_.conc_floor_ppm;
  double t = 0.0;
  double h = std::min(opts_.dt_init_min, dt_total_min);

  // P0/L0 depend only on the accepted state, so they are computed once per
  // accepted substep and reused across step-size retries.
  bool pl_valid = false;

  while (t < dt_total_min * (1.0 - 1e-12)) {
    h = std::min(h, dt_total_min - t);

    if (!pl_valid) {
      mech_->production_loss(c, rates_, p0_, l0_);
      add_source(p0_);
      ++result.corrector_evals;
      pl_valid = true;
    }

    // ---- Predictor -----------------------------------------------------
    for (std::size_t i = 0; i < n; ++i) {
      const double hl = h * l0_[i];
      double v;
      if (hl > opts_.stiff_threshold) {
        // Rational asymptotic update; exact at equilibrium c = P/L.
        v = (c[i] * (2.0 - hl) + 2.0 * h * p0_[i]) / (2.0 + hl);
      } else {
        v = c[i] + h * (p0_[i] - l0_[i] * c[i]);
      }
      cp_[i] = std::max(v, floor);
    }

    // ---- Corrector iterations -------------------------------------------
    bool converged = false;
    int iters_used = 0;
    for (int iter = 0; iter < opts_.max_corrector_iters; ++iter) {
      iters_used = iter + 1;
      mech_->production_loss(cp_, rates_, p1_, l1_);
      add_source(p1_);
      ++result.corrector_evals;

      double max_rel = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double pb = 0.5 * (p0_[i] + p1_[i]);
        const double lb = 0.5 * (l0_[i] + l1_[i]);
        const double hl = h * lb;
        double v;
        if (hl > opts_.stiff_threshold) {
          v = (c[i] * (2.0 - hl) + 2.0 * h * pb) / (2.0 + hl);
        } else {
          // Trapezoidal corrector on the predicted trajectory.
          v = c[i] + 0.5 * h * ((p0_[i] - l0_[i] * c[i]) +
                                (p1_[i] - l1_[i] * cp_[i]));
        }
        v = std::max(v, floor);
        cn_[i] = v;
        const double scale = std::max({v, cp_[i], opts_.check_floor_ppm});
        max_rel = std::max(max_rel, std::abs(v - cp_[i]) / scale);
      }
      std::swap(cp_, cn_);
      if (max_rel < opts_.eps) {
        converged = true;
        break;
      }
    }

    const bool at_min_step = h <= opts_.dt_min_min * 1.0000001;

    // Accuracy controller: measure the largest relative change among
    // significant species over this substep.
    double max_change = 0.0;
    if (converged || at_min_step) {
      for (std::size_t i = 0; i < n; ++i) {
        const double scale = std::max({cp_[i], c[i], opts_.change_floor_ppm});
        max_change = std::max(max_change, std::abs(cp_[i] - c[i]) / scale);
      }
    }

    if ((converged && max_change <= 2.0 * opts_.max_rel_change) ||
        at_min_step) {
      // Accept the substep (forced acceptance at dt_min is counted so the
      // caller can detect pathological cells).
      if (!converged) ++result.nonconverged_steps;
      for (std::size_t i = 0; i < n; ++i) {
        if (!std::isfinite(cp_[i])) {
          throw NumericalError(
              "YoungBoris: non-finite concentration for species " +
              std::string(species_name(static_cast<int>(i))) + " at substep " +
              std::to_string(result.substeps) + " (t = " +
              std::to_string(t) + " min into the step)");
        }
        c[i] = cp_[i];
      }
      t += h;
      ++result.substeps;
      ++substeps_total_;
      pl_valid = false;
      // Grow toward the change target (capped), unless the corrector was
      // already struggling.
      double factor =
          0.8 * opts_.max_rel_change / std::max(max_change, 1e-9);
      factor = std::clamp(factor, 0.5, 2.0);
      if (iters_used >= opts_.max_corrector_iters - 1) {
        factor = std::min(factor, 1.0);
      }
      h = std::clamp(h * factor, opts_.dt_min_min, opts_.dt_max_min);
    } else if (converged) {
      // Accurate stepping requires a smaller substep.
      const double factor = std::clamp(
          0.7 * opts_.max_rel_change / max_change, 0.2, 0.9);
      h = std::max(h * factor, opts_.dt_min_min);
    } else {
      h = std::max(h * opts_.shrink, opts_.dt_min_min);
    }
  }

  result.work_flops = static_cast<double>(result.corrector_evals) *
                          mech_->flops_per_evaluation() +
                      static_cast<double>(result.substeps) * 12.0 *
                          static_cast<double>(n);
  return result;
}

void YoungBorisSolver::integrate_block(kernel::CellBlock& cells,
                                       double dt_total_min,
                                       std::span<const double> temp_k,
                                       double sun,
                                       std::span<YoungBorisResult> results) {
  integrate_block_ops(cells, dt_total_min, temp_k, sun, results,
                      yb_detail::strict_lane_ops());
}

void YoungBorisSolver::integrate_block_ops(kernel::CellBlock& cells,
                                           double dt_total_min,
                                           std::span<const double> temp_k,
                                           double sun,
                                           std::span<YoungBorisResult> results,
                                           const yb_detail::LaneOps& ops) {
  const std::size_t n = static_cast<std::size_t>(mech_->species_count());
  const std::size_t w = static_cast<std::size_t>(cells.width());
  const std::size_t L = cells.stride();  // dense lane count (padded)
  AIRSHED_REQUIRE(cells.species() == mech_->species_count(),
                  "cell block has wrong species count");
  AIRSHED_REQUIRE(w >= 1, "cell block is empty (gather first)");
  AIRSHED_REQUIRE(temp_k.size() == w, "temperature vector has wrong size");
  AIRSHED_REQUIRE(results.size() == w, "result vector has wrong size");
  AIRSHED_REQUIRE(dt_total_min >= 0.0, "negative integration interval");

  for (YoungBorisResult& r : results) r = YoungBorisResult{};
  if (dt_total_min == 0.0) return;

  // The lockstep VM: dense elementwise panels over the live lanes wherever
  // the value is a pure function of unchanged inputs (recomputing is
  // bit-safe), masked per-lane blends wherever state carries across
  // iterations (a converged or finished lane must freeze exactly where the
  // scalar path froze it).
  //
  // Lanes live in *slots*: the dense panels are a working copy of the cell
  // block, and when a lane finishes its interval it is scattered back to
  // its original column and compacted out, so the dense loop cost tracks
  // the number of still-running lanes instead of the slowest lane in the
  // block. slot_lane_ maps slot -> original lane. All elementwise work is
  // position-independent, so moving a lane between slots cannot change its
  // values. Padding slots [nact, La) replicate the last live lane
  // (CellBlock::gather seeds the initial tail the same way), keeping dense
  // arithmetic inside normal floating-point range; they are masked off and
  // never scattered back.
  //
  // Divergence *within* a round is handled two ways. Slots whose P/L is
  // still valid are skipped at vector-group granularity: the dense P0/L0
  // pass runs only over the kLaneRound-aligned segments that still carry
  // live work (kernel::segments_where), and a skipped lane keeps its
  // exactly right values. Slots whose corrector already converged are
  // moved out of the way instead: between corrector iterations, when the
  // live segments cover more lanes than the iterating slots need, a
  // two-pointer partition swaps the iterating slots into [0, n_corr), so
  // the corrector passes sweep padded_lanes(n_corr) lanes rather than
  // every group that still holds one slow lane. A swap moves every
  // per-slot column (for_each_slot_column) and never changes a value, and
  // the in-place corrector leaves a frozen lane's state where it is, so
  // neither the masking nor the partition changes what any lane computes,
  // only which lanes are processed.
  const std::size_t nr = mech_->reaction_count();
  // One exact slab: the rate panel, seven species panels and four lane
  // rows (L is a whole number of lane rounds, so nothing pads).
  arena_.reserve((nr + 7 * n + 4) * L);
  double* kp = arena_.alloc(nr * L);
  double* cw = arena_.alloc(n * L);
  double* p0 = arena_.alloc(n * L);
  double* l0 = arena_.alloc(n * L);
  double* e0 = arena_.alloc(n * L);
  double* p1 = arena_.alloc(n * L);
  double* l1 = arena_.alloc(n * L);
  double* cp = arena_.alloc(n * L);
  double* t = arena_.alloc(L);
  double* h = arena_.alloc(L);
  double* maxrel = arena_.alloc(L);
  double* mc = arena_.alloc(L);
  active_.assign(L, 0.0);
  corr_.assign(L, 0.0);
  conv_.assign(L, 0.0);
  plv_.assign(L, 0.0);
  accept_.assign(L, 0.0);
  iters_.assign(L, 0);
  slot_lane_.assign(L, 0);

  // One rate-constant load per distinct (temp, sun) in the block: lanes at
  // the same temperature share the cached vector; the panel is filled
  // column by column. Tail lanes replicate the last real lane.
  for (std::size_t i = 0; i < w; ++i) {
    const std::span<const double> kr = rates_ref(temp_k[i], sun);
    for (std::size_t r = 0; r < nr; ++r) kp[r * L + i] = kr[r];
  }
  for (std::size_t i = w; i < L; ++i) {
    for (std::size_t r = 0; r < nr; ++r) kp[r * L + i] = kp[r * L + (w - 1)];
  }

  // Working copy of the state: the caller's panel keeps its lane order, so
  // finished lanes scatter back there while the working panel compacts.
  double* c = cells.data();
  std::copy(c, c + n * L, cw);

  const double floor = opts_.conc_floor_ppm;
  const double dt_total = dt_total_min;
  for (std::size_t i = 0; i < L; ++i) {
    t[i] = 0.0;
    h[i] = std::min(opts_.dt_init_min, dt_total);
  }
  for (std::size_t i = 0; i < w; ++i) {
    active_[i] = 1.0;
    slot_lane_[i] = static_cast<int>(i);
  }
  std::size_t nact = w;

  // Every per-slot column of the engine, in one list, so the mid-round
  // partition and the end-of-round compaction cannot drift apart.
  // f(col, rows) visits a column of `rows` panel rows (slot s of row r at
  // col[r * L + s]). The round columns are rebuilt at the start of every
  // round (predictor, corrector setup, retire), so a move between rounds
  // skips them; a swap inside the corrector loop must carry them.
  // maxrel, mc, accept_, p1 and l1 are written before they are read.
  const auto for_each_slot_column = [&](bool with_round_state, auto&& f) {
    f(cw, n);
    f(p0, n);
    f(l0, n);
    f(kp, nr);
    f(t, std::size_t{1});
    f(h, std::size_t{1});
    f(plv_.data(), std::size_t{1});
    f(slot_lane_.data(), std::size_t{1});
    if (with_round_state) {
      f(e0, n);
      f(cp, n);
      f(iters_.data(), std::size_t{1});
      f(conv_.data(), std::size_t{1});
      f(corr_.data(), std::size_t{1});
      f(active_.data(), std::size_t{1});
    }
  };
  // Copies slot `from`'s carried state into slot `to` (between rounds).
  const auto copy_slot = [&](std::size_t to, std::size_t from) {
    for_each_slot_column(false, [&](auto* col, std::size_t rows) {
      for (std::size_t r = 0; r < rows; ++r)
        col[r * L + to] = col[r * L + from];
    });
  };

  const double stiff = opts_.stiff_threshold;
  const double check_floor = opts_.check_floor_ppm;
  const double change_floor = opts_.change_floor_ppm;
  // Strict profile: converged when max_s |v - c| / scale < eps. Tolerance
  // profile: the corrector reports the slack max_s (|v - c| - eps*scale),
  // converged when it drops below 0 — the same test, division-free.
  const double conv_thresh = ops.metric_is_slack ? 0.0 : opts_.eps;

  while (nact > 0) {
    ++block_rounds_;
    // Dense lane count this round: live slots, padded to the lane-round so
    // the vector loops keep whole vectors (stride stays L).
    const std::size_t La = std::min(L, kernel::padded_lanes(nact));

#pragma GCC ivdep
    for (std::size_t i = 0; i < La; ++i)
      h[i] = std::min(h[i], dt_total - t[i]);

    // ---- P0/L0 ---------------------------------------------------------
    // Recompute only the vector groups holding a slot that needs it: a
    // slot whose P/L is still valid (the whole slot retried its substep)
    // either sits in a skipped group and keeps its exact values, or is
    // swept along in a live group and gets the identical value back (cw
    // unchanged since it was computed). Only truly invalid slots count as
    // live lane work.
    kernel::segments_where(plv_.data(), 0.0, nact, La, segs_);
    if (!segs_.empty()) {
      for (const kernel::LaneSegment& seg : segs_) {
        ops.production_loss(*mech_, cw + seg.begin, kp + seg.begin,
                            p0 + seg.begin, l0 + seg.begin, seg.width(), L);
      }
      lane_evals_dense_ +=
          static_cast<long long>(kernel::segment_lanes(segs_));
      for (std::size_t s = 0; s < nact; ++s) {
        if (plv_[s] == 0.0) {
          ++results[slot_lane_[s]].corrector_evals;
          ++lane_evals_live_;
          plv_[s] = 1.0;
        }
      }
    }

    // ---- Explicit slope + predictor (dense; pure function of cw, p0,
    // l0, h) --------------------------------------------------------------
    ops.predictor(cw, p0, l0, e0, cp, h, n, La, L, stiff, floor);

    // ---- Corrector iterations (masked: converged lanes freeze) ----------
    for (std::size_t i = 0; i < La; ++i) {
      corr_[i] = i < nact ? 1.0 : 0.0;
      conv_[i] = 0.0;
      iters_[i] = 0;
    }
    std::size_t n_corr = nact;
    for (int iter = 0; iter < opts_.max_corrector_iters && n_corr > 0;
         ++iter) {
      // Dense P/L of the predicted state and the in-place corrector blend
      // run only over groups that still hold an iterating lane; a group
      // whose lanes all froze keeps its cp columns bit-untouched (exactly
      // what the freeze blend would have written back). When that would
      // sweep a whole group more than the iterating slots fill, partition
      // them to the front first.
      kernel::segments_where(corr_.data(), 1.0, nact, La, segs_);
      if (kernel::segment_lanes(segs_) > kernel::padded_lanes(n_corr)) {
        for (std::size_t lo = 0, hi = nact;;) {
          while (lo < hi && corr_[lo] != 0.0) ++lo;
          while (lo < hi && corr_[hi - 1] == 0.0) --hi;
          if (lo == hi) break;
          --hi;  // corr_[lo] froze, corr_[hi] iterates: trade places
          for_each_slot_column(true, [&](auto* col, std::size_t rows) {
            for (std::size_t r = 0; r < rows; ++r)
              std::swap(col[r * L + lo], col[r * L + hi]);
          });
          ++lo;
          ++slot_swaps_;
        }
        kernel::segments_where(corr_.data(), 1.0, nact, La, segs_);
      }
      for (const kernel::LaneSegment& seg : segs_) {
        ops.production_loss(*mech_, cp + seg.begin, kp + seg.begin,
                            p1 + seg.begin, l1 + seg.begin, seg.width(), L);
      }
      lane_evals_dense_ +=
          static_cast<long long>(kernel::segment_lanes(segs_));
      lane_evals_live_ += static_cast<long long>(n_corr);
      for (std::size_t s = 0; s < nact; ++s) {
        if (corr_[s] != 0.0) {
          iters_[s] = iter + 1;
          ++results[slot_lane_[s]].corrector_evals;
        }
      }
      for (const kernel::LaneSegment& seg : segs_) {
        ops.corrector(cw + seg.begin, p0 + seg.begin, l0 + seg.begin,
                      e0 + seg.begin, p1 + seg.begin, l1 + seg.begin,
                      cp + seg.begin, h + seg.begin, corr_.data() + seg.begin,
                      maxrel + seg.begin, n, seg.width(), L, stiff, floor,
                      check_floor, opts_.eps);
      }
      for (std::size_t s = 0; s < nact; ++s) {
        if (corr_[s] != 0.0 && maxrel[s] < conv_thresh) {
          conv_[s] = 1.0;
          corr_[s] = 0.0;
          --n_corr;
        }
      }
    }

    // ---- Accuracy controller (dense max-change per lane) ----------------
    // mc is only read for slots that converged or sit at the minimum
    // substep (the scalar path guards it the same way), so when the whole
    // block failed to converge above dt_min the dense pass is skipped.
    bool mc_needed = false;
    for (std::size_t s = 0; s < nact; ++s) {
      if (conv_[s] != 0.0 || h[s] <= opts_.dt_min_min * 1.0000001) {
        mc_needed = true;
        break;
      }
    }
    if (mc_needed) ops.max_change(cw, cp, mc, n, La, L, change_floor);

    // ---- Per-slot acceptance and substep control (scalar control path) --
    std::size_t n_done = 0;
    std::size_t n_acc = 0;
    for (std::size_t i = 0; i < La; ++i) accept_[i] = 0.0;
    for (std::size_t s = 0; s < nact; ++s) {
      const bool at_min_step = h[s] <= opts_.dt_min_min * 1.0000001;
      const bool conv = conv_[s] != 0.0;
      YoungBorisResult& res = results[slot_lane_[s]];
      if ((conv && mc[s] <= 2.0 * opts_.max_rel_change) || at_min_step) {
        if (!conv) ++res.nonconverged_steps;
        ++n_acc;
        for (std::size_t sp = 0; sp < n; ++sp) {
          if (!std::isfinite(cp[sp * L + s])) {
            throw NumericalError(
                "YoungBoris: non-finite concentration for species " +
                std::string(species_name(static_cast<int>(sp))) +
                " at substep " + std::to_string(res.substeps) + " (t = " +
                std::to_string(t[s]) + " min into the step, block lane " +
                std::to_string(slot_lane_[s]) + ")");
          }
        }
        accept_[s] = 1.0;
        t[s] += h[s];
        ++res.substeps;
        ++substeps_total_;
        plv_[s] = 0.0;
        double factor = 0.8 * opts_.max_rel_change / std::max(mc[s], 1e-9);
        factor = std::clamp(factor, 0.5, 2.0);
        if (iters_[s] >= opts_.max_corrector_iters - 1) {
          factor = std::min(factor, 1.0);
        }
        h[s] = std::clamp(h[s] * factor, opts_.dt_min_min, opts_.dt_max_min);
        if (!(t[s] < dt_total * (1.0 - 1e-12))) {
          active_[s] = 0.0;
          ++n_done;
        }
      } else if (conv) {
        const double factor =
            std::clamp(0.7 * opts_.max_rel_change / mc[s], 0.2, 0.9);
        h[s] = std::max(h[s] * factor, opts_.dt_min_min);
      } else {
        h[s] = std::max(h[s] * opts_.shrink, opts_.dt_min_min);
      }
    }

    // ---- Commit accepted slots (masked blend; a fully rejected round
    // leaves cw untouched, so the pass is skipped) ------------------------
    if (n_acc > 0) ops.commit(cw, cp, accept_.data(), n, La, L);

    // ---- Retire finished lanes and compact the live slots ---------------
    if (n_done > 0) {
      std::size_t ns = 0;
      for (std::size_t s = 0; s < nact; ++s) {
        if (active_[s] == 0.0) {
          // Final state goes home to the caller's panel, original column.
          const std::size_t lane = static_cast<std::size_t>(slot_lane_[s]);
          for (std::size_t sp = 0; sp < n; ++sp)
            c[sp * L + lane] = cw[sp * L + s];
          continue;
        }
        // p0/l0 move with the slot: a surviving slot in the retry state
        // (plv_ == 1) reuses them without a dense recompute, so they must
        // stay that slot's own values after the shift.
        if (ns != s) copy_slot(ns, s);
        ++ns;
      }
      nact = ns;
      if (nact > 0) {
        // Refresh padding slots from the last live lane so the next dense
        // round keeps clean values in the tail.
        const std::size_t pad_to = std::min(L, kernel::padded_lanes(nact));
        for (std::size_t s = nact; s < pad_to; ++s) copy_slot(s, nact - 1);
        for (std::size_t s = 0; s < L; ++s)
          active_[s] = s < nact ? 1.0 : 0.0;
      }
    }
  }

  for (std::size_t i = 0; i < w; ++i) {
    results[i].work_flops = static_cast<double>(results[i].corrector_evals) *
                                mech_->flops_per_evaluation() +
                            static_cast<double>(results[i].substeps) * 12.0 *
                                static_cast<double>(n);
  }
}

}  // namespace airshed
