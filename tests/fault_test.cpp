// Tests for the fault-injection / checkpoint-restart subsystem: plan
// determinism, pay-for-what-you-use zero-fault identity, recovery
// accounting invariants, model checkpoint/restart equivalence, and the
// degraded-mode foreign coupling.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>

#include "airshed/core/executor.hpp"
#include "airshed/core/model.hpp"
#include "airshed/fault/fault_plan.hpp"
#include "airshed/fault/recovery.hpp"
#include "airshed/fxsim/foreign.hpp"
#include "airshed/io/archive.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/popexp/popexp.hpp"
#include "airshed/transport/supg.hpp"
#include "airshed/util/error.hpp"

namespace airshed {
namespace {

/// One shared short physics run for all fault tests.
const ModelRunResult& shared_run() {
  static const ModelRunResult run = [] {
    Dataset ds = test_basin_dataset();
    ModelOptions opts;
    opts.hours = 6;
    return AirshedModel(ds, opts).run();
  }();
  return run;
}

FaultModelOptions cocktail() {
  FaultModelOptions f;
  f.node_mtbf_hours = 40.0;  // with 16 nodes over 6 hours: failures likely
  f.slowdown_probability = 0.2;
  f.message_drop_probability = 0.05;
  return f;
}

/// A seed whose plan kills at least one node inside the run horizon (the
/// draws are deterministic, so the scan is too).
std::uint64_t seed_with_failure(int nodes, int hours,
                                const FaultModelOptions& opts) {
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    if (FaultPlan::make(seed, nodes, hours, opts).has_failures()) return seed;
  }
  ADD_FAILURE() << "no failing seed found in 200 draws";
  return 0;
}

// ------------------------------------------------------------- FaultPlan

TEST(FaultPlan, SameSeedSamePlan) {
  const FaultModelOptions f = cocktail();
  const FaultPlan a = FaultPlan::make(42, 16, 6, f);
  const FaultPlan b = FaultPlan::make(42, 16, 6, f);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, FaultPlan::make(43, 16, 6, f));
}

TEST(FaultPlan, DefaultPlanIsEmpty) {
  const FaultPlan p;
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.has_failures());
  EXPECT_DOUBLE_EQ(p.slowdown(0, 0), 1.0);
  EXPECT_EQ(p.drops(0, 0), 0);
}

TEST(FaultPlan, ZeroOptionsPlanIsEmpty) {
  EXPECT_TRUE(FaultPlan::make(7, 16, 6, FaultModelOptions{}).empty());
}

TEST(FaultPlan, SlowdownsBoundedAndStateless) {
  FaultModelOptions f;
  f.slowdown_probability = 0.5;
  f.slowdown_cap = 4.0;
  const FaultPlan p = FaultPlan::make(11, 8, 12, f);
  bool straggled = false;
  for (int h = 0; h < 12; ++h) {
    for (int n = 0; n < 8; ++n) {
      const double s = p.slowdown(h, n);
      EXPECT_GE(s, 1.0);
      EXPECT_LE(s, f.slowdown_cap);
      EXPECT_DOUBLE_EQ(s, p.slowdown(h, n));  // repeat query: same answer
      if (s > 1.0) straggled = true;
    }
  }
  EXPECT_TRUE(straggled);
  EXPECT_DOUBLE_EQ(p.slowdown(-1, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.slowdown(99, 0), 1.0);  // outside the horizon
}

TEST(FaultPlan, DropsBoundedAndStateless) {
  FaultModelOptions f;
  f.message_drop_probability = 0.3;
  f.max_drops_per_phase = 3;
  const FaultPlan p = FaultPlan::make(5, 8, 8, f);
  bool dropped = false;
  for (int h = 0; h < 8; ++h) {
    for (long long seq = 0; seq < 40; ++seq) {
      const int d = p.drops(h, seq);
      EXPECT_GE(d, 0);
      EXPECT_LE(d, f.max_drops_per_phase);
      EXPECT_EQ(d, p.drops(h, seq));  // replayed hours redraw identically
      if (d > 0) dropped = true;
    }
  }
  EXPECT_TRUE(dropped);
}

TEST(FaultPlan, FailureTimesExponentialAndTruncated) {
  FaultModelOptions f;
  f.node_mtbf_hours = 10.0;
  const FaultPlan p = FaultPlan::make(3, 32, 24, f);
  int failures = 0;
  for (int n = 0; n < 32; ++n) {
    const double t = p.failure_hour(n);
    if (std::isfinite(t)) {
      ++failures;
      EXPECT_GE(t, 0.0);
      EXPECT_LT(t, 24.0);
    }
  }
  EXPECT_EQ(failures, p.failure_count());
  EXPECT_GT(failures, 0);  // 32 nodes, MTBF 10 h, 24 h: ~29 expected
}

TEST(FaultPlan, RejectsBadOptions) {
  FaultModelOptions f;
  f.slowdown_probability = 1.5;
  EXPECT_THROW(FaultPlan::make(1, 4, 4, f), Error);
  f = FaultModelOptions{};
  f.node_mtbf_hours = -1.0;
  EXPECT_THROW(FaultPlan::make(1, 4, 4, f), Error);
  f = FaultModelOptions{};
  f.message_drop_probability = -0.1;
  EXPECT_THROW(FaultPlan::make(1, 4, 4, f), Error);
}

// ------------------------------------------- zero-fault identity (pay-
// for-what-you-use: an empty plan runs the same path and charges nothing
// to Recovery)

TEST(ZeroFault, SimulationIdenticalToUnconfiguredRun) {
  const WorkTrace& t = shared_run().trace;
  ExecutionConfig plain{intel_paragon(), 16, Strategy::DataParallel};
  ExecutionConfig zero = plain;
  zero.faults = FaultPlan::make(123, 16, 6, FaultModelOptions{});
  ASSERT_TRUE(zero.faults.empty());

  const RunReport a = simulate_execution(t, plain);
  const RunReport b = simulate_execution(t, zero);
  EXPECT_EQ(a.total_seconds, b.total_seconds);  // bitwise, not just near
  EXPECT_EQ(a.ledger.total_seconds(), b.ledger.total_seconds());
  EXPECT_DOUBLE_EQ(a.ledger.category_seconds(PhaseCategory::Recovery), 0.0);
  EXPECT_DOUBLE_EQ(b.ledger.category_seconds(PhaseCategory::Recovery), 0.0);
  EXPECT_EQ(b.recovery.checkpoints, 0);
  EXPECT_EQ(b.recovery.failures.size(), 0u);
  EXPECT_DOUBLE_EQ(b.recovery.total_overhead_s(), 0.0);
  // Every node survives a fault-free run, as the pipelined strategy reports.
  EXPECT_EQ(a.recovery.final_nodes, 16);
  EXPECT_EQ(b.recovery.final_nodes, 16);
}

// --------------------------------------------------- determinism property

TEST(FaultDeterminism, SameSeedSameReport) {
  const WorkTrace& t = shared_run().trace;
  ExecutionConfig cfg{intel_paragon(), 16, Strategy::DataParallel};
  cfg.faults = FaultPlan::make(seed_with_failure(16, 6, cocktail()), 16, 6,
                               cocktail());

  const RunReport a = simulate_execution(t, cfg);
  const RunReport b = simulate_execution(t, cfg);
  EXPECT_EQ(a.total_seconds, b.total_seconds);  // bit-identical
  EXPECT_EQ(a.ledger.total_seconds(), b.ledger.total_seconds());
  EXPECT_EQ(a.recovery.checkpoints, b.recovery.checkpoints);
  EXPECT_EQ(a.recovery.retransmissions, b.recovery.retransmissions);
  EXPECT_EQ(a.recovery.lost_work_s, b.recovery.lost_work_s);
  EXPECT_EQ(a.recovery.straggler_s, b.recovery.straggler_s);
  ASSERT_EQ(a.recovery.failures.size(), b.recovery.failures.size());
  for (std::size_t i = 0; i < a.recovery.failures.size(); ++i) {
    EXPECT_EQ(a.recovery.failures[i].node, b.recovery.failures[i].node);
    EXPECT_EQ(a.recovery.failures[i].lost_s, b.recovery.failures[i].lost_s);
  }
}

TEST(FaultDeterminism, PhysicsUnaffectedByFaultSimulation) {
  // Faults live purely in the virtual-time executor; the science outputs
  // of two identical model runs are bit-identical regardless.
  Dataset ds = test_basin_dataset();
  ModelOptions opts;
  opts.hours = 2;
  const ModelRunResult a = AirshedModel(ds, opts).run();
  const ModelRunResult b = AirshedModel(ds, opts).run();
  EXPECT_EQ(a.outputs.conc, b.outputs.conc);
  EXPECT_EQ(a.outputs.pm, b.outputs.pm);
}

// ------------------------------------------------------ recovery accounting

TEST(Recovery, LedgerDecomposesTotalExactly) {
  const WorkTrace& t = shared_run().trace;
  ExecutionConfig cfg{intel_paragon(), 16, Strategy::DataParallel};
  cfg.faults = FaultPlan::make(seed_with_failure(16, 6, cocktail()), 16, 6,
                               cocktail());
  const RunReport r = simulate_execution(t, cfg);

  ASSERT_FALSE(r.recovery.failures.empty());
  EXPECT_NEAR(r.ledger.total_seconds(), r.total_seconds,
              1e-9 * r.total_seconds);
  // The Recovery category is exactly the machine-readable breakdown.
  EXPECT_NEAR(r.ledger.category_seconds(PhaseCategory::Recovery),
              r.recovery.total_overhead_s(),
              1e-9 * r.recovery.total_overhead_s());
  EXPECT_GT(r.recovery.lost_work_s, 0.0);
  EXPECT_GT(r.recovery.checkpoint_s, 0.0);
  EXPECT_GT(r.recovery.relayout_s, 0.0);
  EXPECT_EQ(r.recovery.final_nodes,
            16 - static_cast<int>(r.recovery.failures.size()));
  for (const FailureEvent& e : r.recovery.failures) {
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, 16);
    EXPECT_GE(e.at_fraction, 0.0);
    EXPECT_LE(e.at_fraction, 1.0);
    EXPECT_GT(e.survivors, 0);
  }
}

TEST(Recovery, FaultsOnlyEverSlowTheRunDown) {
  const WorkTrace& t = shared_run().trace;
  ExecutionConfig plain{intel_paragon(), 16, Strategy::DataParallel};
  const double baseline = simulate_execution(t, plain).total_seconds;

  ExecutionConfig faulty = plain;
  faulty.faults = FaultPlan::make(seed_with_failure(16, 6, cocktail()), 16, 6,
                                  cocktail());
  EXPECT_GT(simulate_execution(t, faulty).total_seconds, baseline);

  FaultModelOptions stragglers_only;
  stragglers_only.slowdown_probability = 0.3;
  ExecutionConfig slow = plain;
  slow.faults = FaultPlan::make(9, 16, 6, stragglers_only);
  const RunReport r = simulate_execution(t, slow);
  EXPECT_GE(r.total_seconds, baseline);
  EXPECT_NEAR(r.recovery.total_overhead_s(), r.recovery.straggler_s, 1e-12);
}

TEST(Recovery, StragglersWorkUnderTaskParallelStrategy) {
  const WorkTrace& t = shared_run().trace;
  FaultModelOptions f;
  f.slowdown_probability = 0.3;
  f.message_drop_probability = 0.1;
  ExecutionConfig cfg{intel_paragon(), 16, Strategy::TaskAndDataParallel};
  cfg.faults = FaultPlan::make(21, 16, 6, f);
  const RunReport faulty = simulate_execution(t, cfg);

  ExecutionConfig plain = cfg;
  plain.faults = FaultPlan{};
  EXPECT_GE(faulty.total_seconds,
            simulate_execution(t, plain).total_seconds);
}

TEST(Recovery, YoungFormulaSanity) {
  // T* = sqrt(2 C M); overhead rate is C/T + T/(2M), minimized at T*.
  const double C = 10.0, M = 3600.0;
  const double topt = young_optimal_interval_s(C, M);
  EXPECT_NEAR(topt, std::sqrt(2.0 * C * M), 1e-12);
  const double at_opt = expected_overhead_rate(C, topt, M);
  EXPECT_LT(at_opt, expected_overhead_rate(C, 0.5 * topt, M));
  EXPECT_LT(at_opt, expected_overhead_rate(C, 2.0 * topt, M));
}

// ------------------------------------------------- checkpoint / restart

TEST(CheckpointRestart, ResumeReproducesUninterruptedRunBitForBit) {
  Dataset ds = test_basin_dataset();
  ModelOptions opts;
  opts.hours = 4;
  AirshedModel model(ds, opts);

  std::vector<CheckpointRecord> ckpts;
  const ModelRunResult full = model.run_with_checkpoints(
      [&](const CheckpointRecord& rec) { ckpts.push_back(rec); });
  ASSERT_EQ(ckpts.size(), 4u);
  EXPECT_EQ(ckpts.back().next_hour, 4);

  // "Crash" after hour 2, restart from its checkpoint, replay the rest.
  const ModelRunResult tail = model.resume(ckpts[1]);
  ASSERT_EQ(tail.trace.hours.size(), 2u);
  ASSERT_EQ(tail.outputs.hourly.size(), 2u);
  EXPECT_EQ(tail.outputs.conc, full.outputs.conc);  // bitwise equality
  EXPECT_EQ(tail.outputs.pm, full.outputs.pm);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(tail.outputs.hourly[i].max_surface_o3_ppm,
              full.outputs.hourly[i + 2].max_surface_o3_ppm);
    EXPECT_EQ(tail.trace.hours[i].steps.size(),
              full.trace.hours[i + 2].steps.size());
  }
}

TEST(CheckpointRestart, RecordRoundTripsThroughDisk) {
  Dataset ds = test_basin_dataset();
  ModelOptions opts;
  opts.hours = 2;
  AirshedModel model(ds, opts);
  std::vector<CheckpointRecord> ckpts;
  model.run_with_checkpoints(
      [&](const CheckpointRecord& rec) { ckpts.push_back(rec); });
  ASSERT_FALSE(ckpts.empty());
  EXPECT_GT(ckpts[0].payload_bytes(), 0u);

  const std::string path =
      (std::filesystem::temp_directory_path() / "airshed_fault_ckpt.txt")
          .string();
  ckpts[0].save(path);
  const CheckpointRecord loaded = CheckpointRecord::load(path);
  EXPECT_EQ(loaded, ckpts[0]);
  std::filesystem::remove(path);

  // A run resumed from the reloaded record still matches exactly.
  const ModelRunResult via_disk = model.resume(loaded);
  const ModelRunResult direct = model.resume(ckpts[0]);
  EXPECT_EQ(via_disk.outputs.conc, direct.outputs.conc);
}

TEST(CheckpointRestart, ResumeValidatesRecord) {
  Dataset ds = test_basin_dataset();
  ModelOptions opts;
  opts.hours = 2;
  AirshedModel model(ds, opts);
  std::vector<CheckpointRecord> ckpts;
  model.run_with_checkpoints(
      [&](const CheckpointRecord& rec) { ckpts.push_back(rec); });

  CheckpointRecord wrong_name = ckpts[0];
  wrong_name.dataset = "OTHER";
  EXPECT_THROW(model.resume(wrong_name), ConfigError);

  CheckpointRecord wrong_hour = ckpts[0];
  wrong_hour.next_hour = 99;
  EXPECT_THROW(model.resume(wrong_hour), ConfigError);

  CheckpointRecord wrong_shape = ckpts[0];
  wrong_shape.conc = ConcentrationField(1, 1, 1);
  EXPECT_THROW(model.resume(wrong_shape), ConfigError);
}

// ------------------------------------------------ degraded-mode coupling

TEST(Handshake, HealthyModuleConnectsImmediately) {
  const HandshakeResult r = attempt_handshake(true);
  EXPECT_TRUE(r.connected);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_DOUBLE_EQ(r.elapsed_s, 0.0);
}

TEST(Handshake, DeadModuleTimesOutThenGivesUp) {
  HandshakeOptions o;
  o.timeout_s = 1.0;
  o.max_retries = 3;
  o.backoff_base_s = 0.25;
  o.backoff_max_s = 2.0;
  const HandshakeResult r = attempt_handshake(false, o);
  EXPECT_FALSE(r.connected);
  EXPECT_EQ(r.attempts, 4);
  // 4 timeouts + backoffs 0.25, 0.5, 1.0 between attempts.
  EXPECT_NEAR(r.elapsed_s, 4.0 + 0.25 + 0.5 + 1.0, 1e-12);

  HandshakeOptions bad = o;
  bad.timeout_s = 0.0;
  EXPECT_THROW(attempt_handshake(false, bad), ConfigError);
}

TEST(DegradedMode, DeadPopExpModuleDegradesInsteadOfWedging) {
  const WorkTrace& t = shared_run().trace;
  PopExpExecutionConfig cfg;
  cfg.machine = intel_paragon();
  cfg.nodes = 16;
  cfg.coupling = PopExpCoupling::ForeignModule;
  cfg.raster_cells = 256;

  const RunReport healthy = simulate_airshed_popexp(t, cfg);
  EXPECT_FALSE(healthy.recovery.foreign_module_gave_up);

  cfg.module_dead_from_hour = 2;
  const RunReport degraded = simulate_airshed_popexp(t, cfg);
  EXPECT_TRUE(degraded.recovery.foreign_module_gave_up);
  EXPECT_TRUE(std::isfinite(degraded.total_seconds));
  EXPECT_GT(degraded.total_seconds, 0.0);
  // Dead hours compute no exposure; coupling is live-hour transfers plus
  // the one-time handshake give-up.
  EXPECT_LT(degraded.ledger.category_seconds(PhaseCategory::Exposure),
            healthy.ledger.category_seconds(PhaseCategory::Exposure));
  bool saw_giveup = false;
  for (const PhaseRecord& p : degraded.ledger.phases()) {
    if (p.name == "handshake give-up (dead module)") {
      saw_giveup = true;
      EXPECT_EQ(p.category, PhaseCategory::Coupling);
      EXPECT_NEAR(p.seconds,
                  attempt_handshake(false, cfg.handshake).elapsed_s, 1e-12);
    }
  }
  EXPECT_TRUE(saw_giveup);
  // Deterministic: same config, same report.
  EXPECT_EQ(degraded.total_seconds,
            simulate_airshed_popexp(t, cfg).total_seconds);
}

// ------------------------------------------------------------ validation

TEST(Validation, ExecutionConfigBoundaries) {
  const WorkTrace& t = shared_run().trace;
  ExecutionConfig cfg{intel_paragon(), 0, Strategy::DataParallel};
  EXPECT_THROW(simulate_execution(t, cfg), ConfigError);

  cfg.nodes = 16;
  cfg.machine.latency_per_message_s = -1.0;
  EXPECT_THROW(simulate_execution(t, cfg), ConfigError);

  cfg.machine = intel_paragon();
  cfg.machine.node_rate_flops = 0.0;
  EXPECT_THROW(simulate_execution(t, cfg), ConfigError);

  // A fault plan drawn for fewer nodes than the run uses is a config error.
  cfg.machine = intel_paragon();
  cfg.faults = FaultPlan::make(1, 8, 6, cocktail());
  EXPECT_THROW(simulate_execution(t, cfg), ConfigError);

  // Node-failure injection needs the data-parallel strategy.
  cfg.faults = FaultPlan::make(seed_with_failure(16, 6, cocktail()), 16, 6,
                               cocktail());
  cfg.strategy = Strategy::TaskAndDataParallel;
  EXPECT_THROW(simulate_execution(t, cfg), ConfigError);

  EXPECT_THROW(hour_main_seconds(t, 0, intel_paragon(), 0, nullptr, nullptr),
               ConfigError);
}

TEST(Validation, DatasetSpecBoundaries) {
  DatasetSpec spec = test_basin_spec();
  spec.layers = 0;
  EXPECT_THROW(build_dataset(spec), ConfigError);

  spec = test_basin_spec();
  spec.cities.clear();
  EXPECT_THROW(build_dataset(spec), ConfigError);

  spec = test_basin_spec();
  spec.target_points = 0;
  EXPECT_THROW(build_dataset(spec), ConfigError);

  spec = test_basin_spec();
  spec.name.clear();
  EXPECT_THROW(build_dataset(spec), ConfigError);

  spec = test_basin_spec();
  spec.base_nx = 0;
  EXPECT_THROW(build_dataset(spec), ConfigError);
}

// -------------------------------------------------- non-finite guards

TEST(NumericalGuards, SupgRejectsNonFiniteField) {
  Dataset ds = test_basin_dataset();
  SupgTransport supg(ds.mesh(), TransportOptions{});
  ConcentrationField conc = AirshedModel::initial_conditions(ds);
  conc(0, 0, 0) = std::numeric_limits<double>::quiet_NaN();
  std::vector<Point2> wind(ds.points(), Point2{10.0, 0.0});
  std::vector<double> background(kSpeciesCount, 0.01);
  try {
    supg.advance_layer(conc, 0, wind, 1.0, 0.5, background);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("grid point"), std::string::npos) << msg;
    EXPECT_NE(msg.find("substep"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace airshed
