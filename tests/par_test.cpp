// Tests for the host-parallel execution engine: worker-pool mechanics,
// bit-identical model results and executor reports at every thread count
// (with and without an injected fault plan), and the rate-constant cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "airshed/core/executor.hpp"
#include "airshed/core/model.hpp"
#include "airshed/core/uniform_model.hpp"
#include "airshed/fault/fault_plan.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/par/pool.hpp"
#include "airshed/util/hash.hpp"

namespace airshed {
namespace {

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPool, ResolvesExplicitRequestFirst) {
  EXPECT_EQ(par::resolve_threads(3), 3);
  EXPECT_GE(par::resolve_threads(0), 1);
  EXPECT_GE(par::hardware_threads(), 1);
}

TEST(WorkerPool, ForEachCoversEveryIndexExactlyOnce) {
  par::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(101);
  pool.for_each(hits.size(), [&](int, std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, BlocksAreContiguousAscendingAndFixed) {
  par::WorkerPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> blocks(3, {0, 0});
  pool.for_blocks(10, [&](int t, std::size_t begin, std::size_t end) {
    blocks[static_cast<std::size_t>(t)] = {begin, end};
  });
  // [0,n) split into 3 contiguous blocks owned by thread index.
  EXPECT_EQ(blocks[0].first, 0u);
  EXPECT_EQ(blocks[0].second, blocks[1].first);
  EXPECT_EQ(blocks[1].second, blocks[2].first);
  EXPECT_EQ(blocks[2].second, 10u);
}

TEST(WorkerPool, EmptyRangeIsANoOp) {
  par::WorkerPool pool(4);
  int calls = 0;
  pool.for_each(0, [&](int, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(WorkerPool, RethrowsLowestIndexException) {
  par::WorkerPool pool(4);
  for (int rep = 0; rep < 10; ++rep) {
    try {
      pool.for_each(100, [&](int, std::size_t i) {
        if (i == 37 || i == 80) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 37");
    }
  }
}

TEST(WorkerPool, PoolIsReusableAfterException) {
  par::WorkerPool pool(2);
  EXPECT_THROW(pool.for_each(4, [](int, std::size_t) {
    throw std::runtime_error("x");
  }),
               std::runtime_error);
  int count = 0;
  std::mutex mu;
  pool.for_each(8, [&](int, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
  });
  EXPECT_EQ(count, 8);
}

TEST(WorkerPool, BusySecondsTracksEveryThread) {
  par::WorkerPool pool(2);
  EXPECT_EQ(pool.busy_seconds().size(), 2u);
  std::atomic<double> sink{0.0};
  pool.for_each(64, [&](int, std::size_t) {
    double x = 0.0;
    for (int i = 0; i < 1000; ++i) x += 1e-6;
    sink.store(x, std::memory_order_relaxed);
  });
  EXPECT_GT(sink.load(), 0.0);
  const auto busy = pool.busy_seconds();
  EXPECT_GE(busy[0], 0.0);
  pool.reset_busy();
  for (double b : pool.busy_seconds()) EXPECT_EQ(b, 0.0);
}

TEST(PerThread, GivesEachThreadItsOwnInstance) {
  par::PerThread<std::vector<int>> scratch(3, [] {
    return std::vector<int>{1, 2, 3};
  });
  EXPECT_EQ(scratch.size(), 3);
  scratch[1].push_back(4);
  EXPECT_EQ(scratch[0].size(), 3u);
  EXPECT_EQ(scratch[1].size(), 4u);
}

// ----------------------------------------------------------- balanced_cuts

/// Cuts are chunk borders: start at 0, end at n, never decrease — so the
/// parts cover every index of [0, n) exactly once.
void expect_chunk_borders(const std::vector<std::size_t>& cuts,
                          std::size_t n, int parts) {
  ASSERT_EQ(cuts.size(), static_cast<std::size_t>(parts) + 1);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), n);
  std::vector<int> owners(n, 0);
  for (std::size_t t = 0; t + 1 < cuts.size(); ++t) {
    ASSERT_LE(cuts[t], cuts[t + 1]) << "border " << t;
    for (std::size_t i = cuts[t]; i < cuts[t + 1]; ++i) ++owners[i];
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(owners[i], 1) << "index " << i;
}

std::vector<std::size_t> equal_counts(std::size_t n, int parts) {
  std::vector<std::size_t> cuts;
  for (int t = 0; t <= parts; ++t) {
    cuts.push_back(n * static_cast<std::size_t>(t) /
                   static_cast<std::size_t>(parts));
  }
  return cuts;
}

TEST(BalancedCuts, SplitsAtEqualSharesOfTheWeight) {
  // Work rising across the range: the cuts crowd towards the heavy end.
  std::vector<double> w(100);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 1.0 + static_cast<double>(i);
  }
  for (int parts : {1, 2, 3, 4, 7}) {
    const std::vector<std::size_t> cuts = par::balanced_cuts(w, parts);
    expect_chunk_borders(cuts, w.size(), parts);
    if (parts == 1) continue;
    const double total = 100.0 * 101.0 / 2.0;
    for (int t = 0; t < parts; ++t) {
      double part = 0.0;
      for (std::size_t i = cuts[t]; i < cuts[t + 1]; ++i) part += w[i];
      // No part strays from its share by more than one column's weight.
      EXPECT_NEAR(part, total / parts, 100.0) << "parts=" << parts;
    }
    EXPECT_GT(cuts[1], cuts[parts] - cuts[parts - 1]) << "parts=" << parts;
  }
}

TEST(BalancedCuts, FallsBackToEqualCounts) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> fallbacks = {
      std::vector<double>(10, 0.0),              // a run's first step
      {1.0, 2.0, inf, 1.0, 1.0, 1.0, 1.0},       // non-finite
      {1.0, nan, 1.0, 1.0, 1.0},                 // non-finite
      {1.0, 1.0, -3.0, 1.0, 1.0, 1.0},           // negative
      {1e308, 1e308, 1e308, 1e308},              // total overflows
  };
  for (const std::vector<double>& w : fallbacks) {
    for (int parts : {1, 3, 4}) {
      EXPECT_EQ(par::balanced_cuts(w, parts), equal_counts(w.size(), parts))
          << "n=" << w.size() << " parts=" << parts;
    }
  }
  const std::vector<double> empty;
  EXPECT_EQ(par::balanced_cuts(empty, 4), std::vector<std::size_t>(5, 0));
  // Uniform weights are equal counts too.
  EXPECT_EQ(par::balanced_cuts(std::vector<double>(12, 2.5), 4),
            equal_counts(12, 4));
}

TEST(BalancedCuts, MorePartsThanColumnsLeavesEmptyParts) {
  const std::vector<double> w = {3.0, 1.0, 2.0};
  const std::vector<std::size_t> cuts = par::balanced_cuts(w, 8);
  expect_chunk_borders(cuts, w.size(), 8);
  EXPECT_EQ(par::balanced_cuts(std::vector<double>(3, 0.0), 8),
            equal_counts(3, 8));
}

TEST(BalancedCuts, OneHotColumnGetsAPartOfItsOwn) {
  std::vector<double> w(40, 1.0);
  w[17] = 1e6;
  const std::vector<std::size_t> cuts = par::balanced_cuts(w, 4);
  expect_chunk_borders(cuts, w.size(), 4);
  // The busiest part can be no lighter than the hot column; here it is
  // exactly the hot column, alone.
  bool alone = false;
  for (std::size_t t = 0; t < 4; ++t) {
    alone = alone || (cuts[t] == 17 && cuts[t + 1] == 18);
  }
  EXPECT_TRUE(alone);
}

TEST(BalancedCuts, SameWeightsGiveTheSameCuts) {
  std::vector<double> w(701);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 1.0 + std::fmod(static_cast<double>(i) * 0.618, 1.0) * 50.0;
  }
  const std::vector<std::size_t> first = par::balanced_cuts(w, 4);
  expect_chunk_borders(first, w.size(), 4);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(par::balanced_cuts(w, 4), first);
  }
  EXPECT_THROW(par::balanced_cuts(w, 0), std::exception);
}

// -------------------------------------------------- model determinism

ModelRunResult run_model(int host_threads, int hours = 3) {
  Dataset ds = test_basin_dataset();
  ModelOptions opts;
  opts.hours = hours;
  opts.host_threads = host_threads;
  opts.oversubscribe = true;  // keep real multi-thread coverage on small hosts
  return AirshedModel(ds, opts).run();
}

void expect_identical(const ModelRunResult& a, const ModelRunResult& b) {
  EXPECT_EQ(a.outputs.conc, b.outputs.conc);
  EXPECT_EQ(a.outputs.pm, b.outputs.pm);
  ASSERT_EQ(a.outputs.hourly.size(), b.outputs.hourly.size());
  for (std::size_t h = 0; h < a.outputs.hourly.size(); ++h) {
    EXPECT_EQ(a.outputs.hourly[h].max_surface_o3_ppm,
              b.outputs.hourly[h].max_surface_o3_ppm);
    EXPECT_EQ(a.outputs.hourly[h].total_pm_nitrate,
              b.outputs.hourly[h].total_pm_nitrate);
  }
  ASSERT_EQ(a.trace.hours.size(), b.trace.hours.size());
  for (std::size_t h = 0; h < a.trace.hours.size(); ++h) {
    const HourTrace& ha = a.trace.hours[h];
    const HourTrace& hb = b.trace.hours[h];
    ASSERT_EQ(ha.steps.size(), hb.steps.size());
    for (std::size_t j = 0; j < ha.steps.size(); ++j) {
      EXPECT_EQ(ha.steps[j].transport1_layer_work,
                hb.steps[j].transport1_layer_work);
      EXPECT_EQ(ha.steps[j].transport2_layer_work,
                hb.steps[j].transport2_layer_work);
      EXPECT_EQ(ha.steps[j].chem_column_work, hb.steps[j].chem_column_work);
      EXPECT_EQ(ha.steps[j].aerosol_work, hb.steps[j].aerosol_work);
    }
  }
}

TEST(HostParallelModel, BitIdenticalAcrossThreadCounts) {
  const ModelRunResult base = run_model(1);
  expect_identical(base, run_model(2));
  expect_identical(base, run_model(8));
}

TEST(HostParallelModel, UniformModelBitIdenticalAcrossThreadCounts) {
  const UniformDataset ds = build_uniform_dataset(test_basin_spec(), 8, 8);
  auto run = [&](int threads) {
    ModelOptions opts;
    opts.hours = 2;
    opts.host_threads = threads;
    opts.oversubscribe = true;
    return UniformAirshedModel(ds, opts).run();
  };
  const ModelRunResult base = run(1);
  expect_identical(base, run(2));
  expect_identical(base, run(8));
}

TEST(HostParallelModel, ProfileReportsResolvedThreads) {
  Dataset ds = test_basin_dataset();
  HostProfile prof;
  ModelOptions opts;
  opts.hours = 1;
  opts.host_threads = 2;
  opts.oversubscribe = true;  // the default caps at the core count
  opts.profile = &prof;
  AirshedModel(ds, opts).run();
  EXPECT_EQ(prof.threads, 2);
  EXPECT_EQ(prof.thread_busy_s.size(), 2u);
}

// ----------------------------------------------- executor determinism

const WorkTrace& shared_trace() {
  static const WorkTrace trace = run_model(1, 6).trace;
  return trace;
}

void expect_identical_reports(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  const auto pa = a.ledger.phases();
  const auto pb = b.ledger.phases();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].name, pb[i].name);
    EXPECT_EQ(pa[i].seconds, pb[i].seconds);
    EXPECT_EQ(pa[i].count, pb[i].count);
  }
  EXPECT_EQ(a.comm.repl_to_trans_s, b.comm.repl_to_trans_s);
  EXPECT_EQ(a.comm.trans_to_chem_s, b.comm.trans_to_chem_s);
  EXPECT_EQ(a.comm.chem_to_repl_s, b.comm.chem_to_repl_s);
  EXPECT_EQ(a.comm.trans_to_repl_s, b.comm.trans_to_repl_s);
  EXPECT_EQ(a.comm.phases, b.comm.phases);
  EXPECT_EQ(a.recovery.checkpoints, b.recovery.checkpoints);
  EXPECT_EQ(a.recovery.retransmissions, b.recovery.retransmissions);
  EXPECT_EQ(a.recovery.checkpoint_s, b.recovery.checkpoint_s);
  EXPECT_EQ(a.recovery.lost_work_s, b.recovery.lost_work_s);
  EXPECT_EQ(a.recovery.relayout_s, b.recovery.relayout_s);
  EXPECT_EQ(a.recovery.restore_s, b.recovery.restore_s);
  EXPECT_EQ(a.recovery.straggler_s, b.recovery.straggler_s);
  EXPECT_EQ(a.recovery.retransmit_s, b.recovery.retransmit_s);
  ASSERT_EQ(a.recovery.failures.size(), b.recovery.failures.size());
  for (std::size_t i = 0; i < a.recovery.failures.size(); ++i) {
    EXPECT_EQ(a.recovery.failures[i].node, b.recovery.failures[i].node);
    EXPECT_EQ(a.recovery.failures[i].hour, b.recovery.failures[i].hour);
    EXPECT_EQ(a.recovery.failures[i].lost_s, b.recovery.failures[i].lost_s);
  }
}

FaultPlan failing_plan(int nodes, int hours) {
  FaultModelOptions fopts;
  fopts.node_mtbf_hours = 40.0;
  fopts.slowdown_probability = 0.2;
  fopts.message_drop_probability = 0.05;
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    FaultPlan plan = FaultPlan::make(seed, nodes, hours, fopts);
    if (plan.has_failures()) return plan;
  }
  ADD_FAILURE() << "no failing seed found in 200 draws";
  return FaultPlan{};
}

TEST(HostParallelExecutor, FaultFreeReportsBitIdentical) {
  for (Strategy strategy :
       {Strategy::DataParallel, Strategy::TaskAndDataParallel}) {
    ExecutionConfig cfg;
    cfg.machine = intel_paragon();
    cfg.nodes = 16;
    cfg.strategy = strategy;
    cfg.host_threads = 1;
    const RunReport base = simulate_execution(shared_trace(), cfg);
    for (int threads : {2, 8}) {
      cfg.host_threads = threads;
      expect_identical_reports(base, simulate_execution(shared_trace(), cfg));
    }
  }
}

TEST(HostParallelExecutor, FaultReplayBitIdentical) {
  const int hours = static_cast<int>(shared_trace().hours.size());
  ExecutionConfig failing;
  failing.machine = intel_paragon();
  failing.nodes = 16;
  failing.faults = failing_plan(16, hours);
  // The pipelined stage loop under stragglers and drops (node failures
  // require the data-parallel strategy).
  FaultModelOptions fopts;
  fopts.slowdown_probability = 0.2;
  fopts.message_drop_probability = 0.05;
  ExecutionConfig pipelined = failing;
  pipelined.nodes = 8;
  pipelined.strategy = Strategy::TaskAndDataParallel;
  pipelined.faults = FaultPlan::make(7, 8, hours, fopts);
  for (ExecutionConfig cfg : {failing, pipelined}) {
    cfg.host_threads = 1;
    const RunReport base = simulate_execution(shared_trace(), cfg);
    if (cfg.strategy == Strategy::DataParallel) {
      EXPECT_FALSE(base.recovery.failures.empty());
    } else {
      // The pipeline, not the folded-back data-parallel schedule, won.
      EXPECT_EQ(base.comm.phases, 0);
      EXPECT_GT(base.recovery.straggler_s, 0.0);
      EXPECT_GT(base.recovery.retransmissions, 0);
    }
    for (int threads : {2, 8}) {
      cfg.host_threads = threads;
      expect_identical_reports(base, simulate_execution(shared_trace(), cfg));
    }
  }
}

TEST(HostParallelExecutor, PipelineStageTimesBitIdentical) {
  const HourStageTimes base = pipeline_stage_times(
      shared_trace(), intel_paragon(), 14, DimDist::Block, 1);
  for (int threads : {2, 8}) {
    const HourStageTimes st = pipeline_stage_times(
        shared_trace(), intel_paragon(), 14, DimDist::Block, threads);
    EXPECT_EQ(base.input_s, st.input_s);
    EXPECT_EQ(base.main_s, st.main_s);
    EXPECT_EQ(base.output_s, st.output_s);
  }
}

// ------------------------------------------------------ rate cache

TEST(RateCache, CachedAndUncachedRunsAreBitIdentical) {
  YoungBorisOptions cached;
  YoungBorisOptions uncached;
  uncached.cache_rates = false;
  ModelOptions a;
  a.hours = 2;
  a.chem = cached;
  ModelOptions b;
  b.hours = 2;
  b.chem = uncached;
  Dataset ds = test_basin_dataset();
  const ModelRunResult ra = AirshedModel(ds, a).run();
  const ModelRunResult rb = AirshedModel(ds, b).run();
  expect_identical(ra, rb);
}

TEST(RateCache, HitsOnRepeatedFrozenInputs) {
  YoungBorisSolver solver(Mechanism::cb4_condensed());
  std::vector<double> c(static_cast<std::size_t>(kSpeciesCount), 0.01);
  solver.integrate(c, 1.0, 298.15, 0.5);
  EXPECT_GT(solver.rate_evals(), 0);
  const long long evals_after_first = solver.rate_evals();
  std::vector<double> c2(static_cast<std::size_t>(kSpeciesCount), 0.02);
  solver.integrate(c2, 1.0, 298.15, 0.5);
  EXPECT_EQ(solver.rate_evals(), evals_after_first);
  EXPECT_GT(solver.rate_cache_hits(), 0);
}

TEST(RateCache, EpochChangeInvalidates) {
  YoungBorisSolver solver(Mechanism::cb4_condensed());
  std::vector<double> c(static_cast<std::size_t>(kSpeciesCount), 0.01);
  solver.set_rate_epoch(0);
  solver.integrate(c, 1.0, 298.15, 0.5);
  const long long evals = solver.rate_evals();
  solver.set_rate_epoch(1);
  std::vector<double> c2(static_cast<std::size_t>(kSpeciesCount), 0.01);
  solver.integrate(c2, 1.0, 298.15, 0.5);
  EXPECT_GT(solver.rate_evals(), evals);
}

// --------------------------------------------------------- checksums

TEST(Hash, DetectsSingleUlpDifference) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = a;
  b[1] = std::nextafter(b[1], 4.0);
  EXPECT_NE(fnv1a(std::span<const double>(a)),
            fnv1a(std::span<const double>(b)));
  EXPECT_EQ(fnv1a(std::span<const double>(a)),
            fnv1a(std::span<const double>(a)));
  EXPECT_EQ(hash_hex(0x0123456789abcdefULL), "0123456789abcdef");
}

}  // namespace
}  // namespace airshed
