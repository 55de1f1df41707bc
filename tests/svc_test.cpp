// Tests for airshed::svc — the resilient multi-scenario batch supervisor:
// seeded job mixes (bounded-Pareto episode lengths), pure retry/backoff/
// fault-injection decisions, failure isolation (quarantine never aborts the
// batch), graceful degradation to the coarse uniform grid, circuit-breaker
// determinism, the durable batch archive, and the headline property: the
// same (batch_seed, chaos plan) yields byte-identical batch reports and
// manifests at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "airshed/core/model.hpp"
#include "airshed/core/uniform_model.hpp"
#include "airshed/durable/container.hpp"
#include "airshed/durable/journal.hpp"
#include "airshed/fault/killpoint.hpp"
#include "airshed/obs/metrics.hpp"
#include "airshed/svc/archive.hpp"
#include "airshed/svc/input_cache.hpp"
#include "airshed/svc/journal.hpp"
#include "airshed/svc/scenario.hpp"
#include "airshed/svc/supervisor.hpp"
#include "airshed/util/error.hpp"
#include "airshed/util/hash.hpp"

namespace airshed {
namespace {

namespace fs = std::filesystem;
using svc::BatchArchive;
using svc::BatchOptions;
using svc::BatchReport;
using svc::BatchSupervisor;
using svc::ChaosOptions;
using svc::FaultClass;
using svc::JobMixOptions;
using svc::ScenarioSpec;
using svc::ScenarioStatus;

/// Fresh scratch directory per test (removed on teardown).
class SvcDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("airshed_svc_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// Small, fast job mix: TEST dataset, short episodes.
JobMixOptions tiny_mix(int scenarios) {
  JobMixOptions mix;
  mix.scenarios = scenarios;
  mix.dataset = "TEST";
  mix.hours_min = 1;
  mix.hours_max = 2;
  return mix;
}

TEST(JobMix, DeterministicInSeed) {
  const auto a = svc::make_job_mix(1234, tiny_mix(8));
  const auto b = svc::make_job_mix(1234, tiny_mix(8));
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b);

  const auto c = svc::make_job_mix(1235, tiny_mix(8));
  EXPECT_NE(a, c);

  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)].id, i);
    EXPECT_GE(a[static_cast<std::size_t>(i)].hours, 1);
    EXPECT_LE(a[static_cast<std::size_t>(i)].hours, 2);
  }
}

TEST(JobMix, BoundedParetoStaysInRangeAndIsHeavyTailed) {
  // Monotone inverse CDF within [lo, hi].
  EXPECT_DOUBLE_EQ(svc::bounded_pareto(0.0, 2.0, 8.0, 1.1), 2.0);
  double prev = 0.0;
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const double x = svc::bounded_pareto(u, 2.0, 8.0, 1.1);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 8.0 + 1e-9);
    EXPECT_GE(x, prev);
    prev = x;
  }

  // Heavy tail: most mass near the minimum.
  JobMixOptions mix;
  mix.scenarios = 200;
  mix.hours_min = 2;
  mix.hours_max = 12;
  mix.hours_alpha = 1.1;
  int at_min = 0, at_max = 0;
  for (const ScenarioSpec& s : svc::make_job_mix(99, mix)) {
    at_min += s.hours <= 3;
    at_max += s.hours >= 11;
  }
  EXPECT_GT(at_min, at_max * 2);
}

TEST(Decisions, PureInSeedScenarioAttempt) {
  ChaosOptions chaos;
  chaos.node_death = 0.2;
  chaos.straggler = 0.2;
  chaos.storage_fault = 0.2;
  chaos.numerics = 0.2;
  BatchOptions opts;
  opts.batch_seed = 77;

  for (int id = 0; id < 16; ++id) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(svc::injected_fault(77, id, attempt, chaos),
                svc::injected_fault(77, id, attempt, chaos));
      EXPECT_DOUBLE_EQ(svc::straggler_factor(77, id, attempt, chaos),
                       svc::straggler_factor(77, id, attempt, chaos));
      const double s = svc::straggler_factor(77, id, attempt, chaos);
      EXPECT_GE(s, 1.0);
      EXPECT_LE(s, chaos.straggler_cap + 1e-9);
      EXPECT_EQ(svc::death_hour(77, id, attempt, 6),
                svc::death_hour(77, id, attempt, 6));
      EXPECT_GE(svc::death_hour(77, id, attempt, 6), 0);
      EXPECT_LT(svc::death_hour(77, id, attempt, 6), 6);
    }
    for (int attempt = 1; attempt < 5; ++attempt) {
      const double b = svc::backoff_ms(77, id, attempt, opts);
      EXPECT_DOUBLE_EQ(b, svc::backoff_ms(77, id, attempt, opts));
      const double cap = std::min(
          opts.backoff_base_ms * std::ldexp(1.0, attempt - 1),
          opts.backoff_cap_ms);
      EXPECT_GE(b, 0.5 * cap);
      EXPECT_LT(b, cap);
    }
  }

  // Fault classes are mutually exclusive draws: probabilities 0 mean the
  // class never fires.
  ChaosOptions none;
  for (int id = 0; id < 32; ++id) {
    EXPECT_EQ(svc::injected_fault(1, id, 0, none), FaultClass::None);
  }
}

// ---------------------------------------------------------------------------
// Worker placement: longest-expected-first onto the least-loaded bucket.
// ---------------------------------------------------------------------------

using svc::PlacementItem;
using Buckets = std::vector<std::vector<std::size_t>>;

/// Summed item cost per bucket.
std::vector<double> bucket_loads(const std::vector<PlacementItem>& items,
                                 const Buckets& buckets) {
  std::vector<double> loads;
  for (const auto& b : buckets) {
    double sum = 0.0;
    for (std::size_t i : b) sum += items[i].cost;
    loads.push_back(sum);
  }
  return loads;
}

TEST(Placement, PureAndEveryItemPlacedOnce) {
  const std::vector<PlacementItem> items = {
      {0, 3.0}, {1, 7.0}, {2, 2.0}, {3, 7.0}, {4, 5.0}, {5, 1.0}, {6, 4.0}};
  const Buckets a = svc::place_attempts(items, 3);
  EXPECT_EQ(a, svc::place_attempts(items, 3));
  ASSERT_EQ(a.size(), 3u);
  std::vector<int> seen(items.size(), 0);
  for (const auto& b : a) {
    for (std::size_t i : b) ++seen[i];
  }
  EXPECT_EQ(seen, std::vector<int>(items.size(), 1));
  // Costs 7 (id 1), 7 (id 3), 5 open the three buckets; 4 joins the 5,
  // 3 joins bucket 0 and 2 joins bucket 1. The last item finds buckets 1
  // and 2 tied at load 9 with two items each, so the lower index wins.
  EXPECT_EQ(a, (Buckets{{1, 0}, {3, 2, 5}, {4, 6}}));
  EXPECT_EQ(bucket_loads(items, a), (std::vector<double>{10.0, 10.0, 9.0}));
}

TEST(Placement, TiesBreakByScenarioIdThenFewestItemsThenLowestIndex) {
  // Equal costs: taken in scenario-id order (not input order), one per
  // bucket, lowest bucket index first.
  const std::vector<PlacementItem> items = {{9, 2.0}, {4, 2.0}, {6, 2.0}};
  EXPECT_EQ(svc::place_attempts(items, 3), (Buckets{{1}, {2}, {0}}));
  // Equal loads with unequal item counts: the bucket holding fewer items
  // takes the next one, even at a higher index.
  const std::vector<PlacementItem> uneven = {
      {0, 4.0}, {1, 2.0}, {2, 2.0}, {3, 1.0}};
  // 4 -> b0; 2 -> b1; 2 -> b1 (load 2 < 4); b0 and b1 now both load 4 with
  // 1 and 2 items, so the last item goes to b0.
  EXPECT_EQ(svc::place_attempts(uneven, 2), (Buckets{{0, 3}, {1, 2}}));
}

TEST(Placement, FewerItemsThanWorkersLeavesTrailingBucketsEmpty) {
  const std::vector<PlacementItem> items = {{0, 1.0}, {1, 8.0}};
  const Buckets b = svc::place_attempts(items, 4);
  EXPECT_EQ(b, (Buckets{{1}, {0}, {}, {}}));
  EXPECT_EQ(svc::place_attempts({}, 3), (Buckets{{}, {}, {}}));
  EXPECT_EQ(svc::place_attempts(items, 1), (Buckets{{1, 0}}));
  EXPECT_THROW(svc::place_attempts(items, 0), Error);
}

TEST(Placement, ZeroCostsStillSpreadAcrossWorkers) {
  std::vector<PlacementItem> items;
  for (int id = 0; id < 8; ++id) items.push_back({id, 0.0});
  const Buckets b = svc::place_attempts(items, 4);
  EXPECT_EQ(b, (Buckets{{0, 4}, {1, 5}, {2, 6}, {3, 7}}));
}

/// Golden case: the reference batch's seed-1998 job mix (32 TEST scenarios,
/// 2-8 h, 119 model-hours) on 4 workers. The contiguous split it replaces
/// gave 38/24/26/31 hours.
TEST(Placement, SeedMixBalancesModelHours) {
  const auto specs = svc::make_job_mix(1998);
  ASSERT_EQ(specs.size(), 32u);
  std::vector<PlacementItem> items;
  int total = 0;
  for (const ScenarioSpec& s : specs) {
    items.push_back({s.id, static_cast<double>(s.hours) *
                               static_cast<double>(
                                   svc::scenario_target_points(s))});
    total += s.hours;
  }
  EXPECT_EQ(total, 119);

  const auto hours_of = [&](const Buckets& buckets) {
    std::vector<int> h;
    for (const auto& b : buckets) {
      int sum = 0;
      for (std::size_t i : b) sum += specs[i].hours;
      h.push_back(sum);
    }
    return h;
  };
  Buckets contiguous(4);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 32 * t / 4; i < 32 * (t + 1) / 4; ++i) {
      contiguous[t].push_back(i);
    }
  }
  EXPECT_EQ(hours_of(contiguous), (std::vector<int>{38, 24, 26, 31}));
  EXPECT_EQ(hours_of(svc::place_attempts(items, 4)),
            (std::vector<int>{30, 30, 30, 29}));
}

ChaosOptions full_chaos() {
  ChaosOptions chaos;
  chaos.node_death = 0.15;
  chaos.straggler = 0.2;
  chaos.storage_fault = 0.1;
  chaos.payload_corruption = 0.05;
  chaos.numerics = 0.1;
  chaos.hang = 0.1;
  chaos.poison_scenarios = {2};
  return chaos;
}

TEST_F(SvcDir, BatchReportByteIdenticalAcrossThreadCounts) {
  const auto specs = svc::make_job_mix(7, tiny_mix(6));

  std::string reference_report;
  std::string reference_manifest;
  for (int threads : {1, 2, 8}) {
    const std::string archive_dir =
        path("archive_t" + std::to_string(threads));
    BatchOptions opts;
    opts.batch_seed = 7;
    opts.threads = threads;
    opts.chaos = full_chaos();
    opts.archive_dir = archive_dir;

    const BatchReport report = BatchSupervisor(opts).run(specs);
    const std::string json = report.canonical_json().str();
    const std::string manifest = durable::read_file_bytes(
        BatchArchive(archive_dir).manifest_path());
    if (reference_report.empty()) {
      reference_report = json;
      reference_manifest = manifest;
      // The chaos plan must actually be doing something for this test to
      // mean anything.
      EXPECT_GT(report.retries, 0);
      EXPECT_GT(report.degraded + report.quarantined, 0);
    } else {
      EXPECT_EQ(json, reference_report) << "threads=" << threads;
      EXPECT_EQ(manifest, reference_manifest) << "threads=" << threads;
    }
  }
}

TEST_F(SvcDir, QuarantineIsolatesFailuresWithoutAbortingTheBatch) {
  auto specs = svc::make_job_mix(3, tiny_mix(4));
  BatchOptions opts;
  opts.batch_seed = 3;
  opts.threads = 2;
  opts.max_attempts = 2;
  opts.degrade = false;  // exhausted scenarios quarantine directly
  opts.chaos.poison_scenarios = {0, 2};
  opts.archive_dir = path("archive");

  const BatchReport report = BatchSupervisor(opts).run(specs);
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.quarantined, 2);
  EXPECT_EQ(report.completed, 2);

  for (int id : {0, 2}) {
    const svc::ScenarioResult& r = report.results[static_cast<std::size_t>(id)];
    EXPECT_EQ(r.status, ScenarioStatus::Quarantined);
    EXPECT_EQ(r.attempts.size(), 2u);  // max_attempts, then isolation
    // The poisoned stack trips the kernel block tripwire: a typed
    // scenario fault, not an infrastructure fault.
    EXPECT_FALSE(r.attempts.back().infra);
    EXPECT_NE(r.quarantine_reason.find("non-finite"), std::string::npos)
        << r.quarantine_reason;
  }
  for (int id : {1, 3}) {
    EXPECT_EQ(report.results[static_cast<std::size_t>(id)].status,
              ScenarioStatus::Ok);
  }
}

TEST_F(SvcDir, DegradedScenarioMatchesDirectCoarseRunBitForBit) {
  auto specs = svc::make_job_mix(11, tiny_mix(3));
  BatchOptions opts;
  opts.batch_seed = 11;
  opts.threads = 2;
  opts.max_attempts = 2;
  opts.chaos.poison_scenarios = {1};
  opts.archive_dir = path("archive");

  const BatchReport report = BatchSupervisor(opts).run(specs);
  const svc::ScenarioResult& r = report.results[1];
  ASSERT_EQ(r.status, ScenarioStatus::Degraded);
  EXPECT_TRUE(r.attempts.back().degraded_run);

  // The degraded result is the coarse uniform model on the scenario's own
  // inputs — reproducible outside the supervisor.
  ModelOptions mo;
  mo.hours = specs[1].hours;
  mo.host_threads = 1;
  const ModelRunResult direct =
      UniformAirshedModel(svc::build_degraded_dataset(specs[1], 8, 8), mo)
          .run();
  EXPECT_EQ(r.checksum, hash_hex(svc::field_digest(direct.outputs)));
}

TEST_F(SvcDir, CleanBatchChecksumsMatchFaultFreeSoloRuns) {
  const auto specs = svc::make_job_mix(21, tiny_mix(3));
  BatchOptions opts;
  opts.batch_seed = 21;
  opts.threads = 3;
  opts.archive_dir = path("archive");

  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(report.completed, 3);
  EXPECT_EQ(report.retries, 0);
  for (const svc::ScenarioResult& r : report.results) {
    ModelOptions mo;
    mo.hours = r.spec.hours;
    mo.host_threads = 1;
    const ModelRunResult solo =
        AirshedModel(svc::build_scenario_dataset(r.spec), mo).run();
    EXPECT_EQ(r.checksum, hash_hex(svc::field_digest(solo.outputs)))
        << "scenario " << r.spec.id;
  }
}

TEST_F(SvcDir, InfraFaultsRetryToTheFaultFreeResult) {
  // Infrastructure-only chaos: retried scenarios must converge to exactly
  // the fault-free checksum (the work is deterministic; only the machinery
  // flakes).
  const auto specs = svc::make_job_mix(31, tiny_mix(4));
  BatchOptions opts;
  opts.batch_seed = 31;
  opts.threads = 2;
  opts.max_attempts = 4;
  opts.chaos.node_death = 0.4;
  opts.chaos.storage_fault = 0.2;
  opts.archive_dir = path("archive");

  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_GT(report.infra_faults, 0);
  for (const svc::ScenarioResult& r : report.results) {
    if (r.status == ScenarioStatus::Quarantined) continue;
    if (r.status == ScenarioStatus::Degraded) continue;
    ModelOptions mo;
    mo.hours = r.spec.hours;
    mo.host_threads = 1;
    const ModelRunResult solo =
        AirshedModel(svc::build_scenario_dataset(r.spec), mo).run();
    EXPECT_EQ(r.checksum, hash_hex(svc::field_digest(solo.outputs)))
        << "scenario " << r.spec.id;
  }
}

TEST_F(SvcDir, CircuitBreakerTripsDeterministically) {
  const auto specs = svc::make_job_mix(5, tiny_mix(8));
  BatchOptions opts;
  opts.batch_seed = 5;
  opts.threads = 4;
  opts.max_attempts = 3;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_rounds = 1;
  opts.chaos.node_death = 0.7;  // infra-heavy: the breaker must trip
  opts.archive_dir = path("archive_a");

  const BatchReport a = BatchSupervisor(opts).run(specs);
  EXPECT_GT(a.breaker_trips, 0);
  ASSERT_FALSE(a.breaker_events.empty());
  EXPECT_EQ(a.breaker_events.front().transition, "open");

  // Same seed, different thread count and archive dir: identical breaker
  // history and identical report bytes.
  opts.threads = 1;
  opts.archive_dir = path("archive_b");
  const BatchReport b = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(a.canonical_json().str(), b.canonical_json().str());
}

TEST_F(SvcDir, DeadlineWatchdogClassifiesStragglersAsInfra) {
  const auto specs = svc::make_job_mix(13, tiny_mix(2));
  BatchOptions opts;
  opts.batch_seed = 13;
  opts.threads = 2;
  opts.max_attempts = 1;
  opts.chaos.straggler = 1.0;  // every fine-grid attempt straggles
  opts.chaos.straggler_alpha = 0.2;  // heavy tail: big slowdowns likely
  opts.deadline_factor = 0.5;  // and the deadline is tight
  opts.archive_dir = path("archive");

  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_GT(report.infra_faults, 0);
  bool saw_deadline = false;
  for (const svc::ScenarioResult& r : report.results) {
    for (const svc::AttemptRecord& a : r.attempts) {
      if (a.error.find("deadline") != std::string::npos) {
        EXPECT_TRUE(a.infra);
        saw_deadline = true;
      }
    }
    // Degradation rescues every deadline victim: the coarse grid runs
    // chaos-free.
    EXPECT_NE(r.status, ScenarioStatus::Quarantined);
  }
  EXPECT_TRUE(saw_deadline);
}

TEST_F(SvcDir, StorageChaosQuarantinesTheCorruptArtifact) {
  const auto specs = svc::make_job_mix(17, tiny_mix(2));
  BatchOptions opts;
  opts.batch_seed = 17;
  opts.threads = 1;
  opts.max_attempts = 1;
  opts.degrade = false;
  opts.chaos.storage_fault = 1.0;  // every archive write is attacked
  opts.archive_dir = path("archive");

  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(report.quarantined, 2);
  for (const svc::ScenarioResult& r : report.results) {
    EXPECT_EQ(r.status, ScenarioStatus::Quarantined);
    EXPECT_TRUE(r.attempts.back().infra);
  }
  // Detected-corrupt artifacts were renamed *.corrupt (LostRename leaves
  // nothing behind); no un-quarantined .result file may remain.
  for (const fs::directory_entry& e : fs::directory_iterator(path("archive"))) {
    const std::string name = e.path().filename().string();
    EXPECT_TRUE(name.find(".result") == std::string::npos ||
                name.find(".corrupt") != std::string::npos)
        << "corrupt artifact left in place: " << name;
  }
}

TEST_F(SvcDir, ArchiveRoundTripAndManifest) {
  BatchArchive archive(path("archive"));
  ScenarioSpec spec;
  spec.id = 4;
  spec.name = "scn-004";
  spec.dataset = "TEST";
  spec.hours = 2;
  spec.controls.nox_scale = 0.8;
  spec.emission_perturbation = 1.05;

  std::vector<HourlyStats> hourly(2);
  hourly[0].hour = 0;
  hourly[0].max_surface_o3_ppm = 0.08;
  hourly[1].hour = 1;
  hourly[1].mean_surface_no2_ppm = 0.002;

  const std::string file =
      archive.write_result(spec, "ok", 1, 0xdeadbeefULL, hourly);
  const BatchArchive::StoredResult stored = BatchArchive::read_result(file);
  EXPECT_EQ(stored.spec, spec);
  EXPECT_EQ(stored.status, "ok");
  EXPECT_EQ(stored.attempt, 1);
  EXPECT_EQ(stored.checksum, 0xdeadbeefULL);
  ASSERT_EQ(stored.hourly.size(), 2u);
  EXPECT_DOUBLE_EQ(stored.hourly[0].max_surface_o3_ppm, 0.08);
  EXPECT_DOUBLE_EQ(stored.hourly[1].mean_surface_no2_ppm, 0.002);

  archive.write_manifest(
      7, {{4, "ok", 1, 0xdeadbeefULL, "scn_004_a01.result"}});
  const BatchArchive::Manifest m = archive.read_manifest();
  EXPECT_EQ(m.batch_seed, 7u);
  ASSERT_EQ(m.entries.size(), 1u);
  EXPECT_EQ(m.entries[0].id, 4);
  EXPECT_EQ(m.entries[0].file, "scn_004_a01.result");

  // Quarantine renames; a second quarantine of the missing file is a no-op.
  const std::string q = BatchArchive::quarantine(file);
  EXPECT_EQ(q, file + ".corrupt");
  EXPECT_FALSE(fs::exists(file));
  EXPECT_TRUE(fs::exists(q));
  EXPECT_EQ(BatchArchive::quarantine(file), "");
}

TEST_F(SvcDir, MetricsPublishTheReportCounts) {
  const auto specs = svc::make_job_mix(7, tiny_mix(4));
  BatchOptions opts;
  opts.batch_seed = 7;
  opts.threads = 2;
  opts.chaos.poison_scenarios = {0};
  opts.archive_dir = path("archive");
  obs::MetricsRegistry registry;
  opts.metrics = &registry;

  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(registry.counter("svc/scenarios").value(), 4);
  EXPECT_EQ(registry.counter("svc/completed").value(), report.completed);
  EXPECT_EQ(registry.counter("svc/degraded").value(), report.degraded);
  EXPECT_EQ(registry.counter("svc/quarantined").value(), report.quarantined);
  EXPECT_EQ(registry.counter("svc/retries").value(), report.retries);
  EXPECT_EQ(registry.counter("svc/scenario_faults").value(),
            report.scenario_faults);
  EXPECT_GT(report.scenario_faults, 0);  // the poisoned scenario
}

/// Per-worker busy seconds are published as gauges but never reach the
/// canonical report, which stays byte-identical to a 1-thread run.
TEST_F(SvcDir, WorkerBusyGaugesStayOutOfTheCanonicalReport) {
  const auto specs = svc::make_job_mix(7, tiny_mix(4));
  BatchOptions opts;
  opts.batch_seed = 7;
  opts.threads = 2;
  opts.archive_dir = path("t2");
  obs::MetricsRegistry registry;
  opts.metrics = &registry;
  BatchReport report = BatchSupervisor(opts).run(specs);

  ASSERT_EQ(report.worker_busy_s.size(), 2u);
  const double busy_max = std::max(report.worker_busy_s[0],
                                   report.worker_busy_s[1]);
  EXPECT_GT(busy_max, 0.0);
  EXPECT_GE(report.worker_imbalance(), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("svc/worker_busy_max_s").value(), busy_max);
  EXPECT_DOUBLE_EQ(registry.gauge("svc/worker_imbalance").value(),
                   report.worker_imbalance());

  const std::string canonical = report.canonical_json().str();
  report.worker_busy_s = {123.0, 0.5};
  EXPECT_EQ(report.canonical_json().str(), canonical);

  opts.threads = 1;
  opts.archive_dir = path("t1");
  opts.metrics = nullptr;
  const BatchReport serial = BatchSupervisor(opts).run(specs);
  ASSERT_EQ(serial.worker_busy_s.size(), 1u);
  EXPECT_DOUBLE_EQ(serial.worker_imbalance(), 1.0);
  EXPECT_EQ(serial.canonical_json().str(), canonical);
}

/// The placement's work proxy resolves every spec up front; a dataset name
/// that does not resolve must still fail only its own scenario.
TEST_F(SvcDir, UnknownDatasetIsQuarantinedNotFatal) {
  auto specs = svc::make_job_mix(5, tiny_mix(2));
  specs[1].dataset = "NOWHERE";
  BatchOptions opts;
  opts.batch_seed = 5;
  opts.threads = 2;
  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(report.results[0].status, ScenarioStatus::Ok);
  EXPECT_EQ(report.results[1].status, ScenarioStatus::Quarantined);
  EXPECT_NE(report.results[1].quarantine_reason.find("NOWHERE"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Crash–resume: the write-ahead batch journal (PR 8 tentpole).
// ---------------------------------------------------------------------------

/// Every file in the archive dir, name -> bytes, excluding the journal
/// (whose record *rounds* legitimately differ between an uninterrupted run
/// and a resumed one — the contract is archive + manifest identity).
std::map<std::string, std::string> archive_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name == "batch.journal") continue;
    out[name] = durable::read_file_bytes(e.path().string());
  }
  return out;
}

BatchOptions journaled_opts(std::uint64_t seed, const std::string& dir) {
  BatchOptions opts;
  opts.batch_seed = seed;
  opts.threads = 1;
  opts.archive_dir = dir;
  opts.journal_path = dir + "/batch.journal";
  return opts;
}

/// The headline robustness property: SIGKILL the supervisor at EVERY
/// journal record boundary (torn mid-append and just after the fsync), then
/// resume — the final archive and manifest are byte-identical to an
/// uninterrupted run, across resume thread counts.
TEST_F(SvcDir, SigkillAtEveryJournalRecordBoundaryResumesByteIdentical) {
  const auto specs = svc::make_job_mix(7, tiny_mix(3));

  // Uninterrupted reference.
  const std::string ref_dir = path("ref");
  BatchOptions ref_opts = journaled_opts(7, ref_dir);
  ref_opts.chaos = full_chaos();
  const BatchReport ref_report = BatchSupervisor(ref_opts).run(specs);
  EXPECT_GT(ref_report.retries, 0);  // the chaos plan must bite
  const auto ref_files = archive_bytes(ref_dir);
  const std::uint64_t frames =
      svc::BatchJournal::replay(ref_dir + "/batch.journal").raw.records.size();
  ASSERT_GT(frames, 6u);

  int point = 0;
  for (std::uint64_t k = 0; k < frames; ++k) {
    for (durable::JournalKillAction action :
         {durable::JournalKillAction::KillMid,
          durable::JournalKillAction::KillAfter}) {
      const std::string dir = path("crash_" + std::to_string(point));
      const pid_t child = fork();
      ASSERT_GE(child, 0);
      if (child == 0) {
        // In the child: arm the kill point and run the batch. The armed
        // append SIGKILLs the process; anything else is a test bug.
        fault::arm_kill_point(k, action);
        BatchOptions opts = journaled_opts(7, dir);
        opts.chaos = full_chaos();
        try {
          BatchSupervisor(opts).run(specs);
        } catch (...) {
          _exit(3);
        }
        _exit(0);
      }
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "kill point " << k << " did not fire (status " << status << ")";

      // Recover: resume if the journal header survived, start fresh if the
      // crash predates a durable header. Rotate thread counts to prove the
      // resume is thread-count invariant.
      BatchOptions opts = journaled_opts(7, dir);
      opts.chaos = full_chaos();
      opts.threads = point % 3 == 0 ? 1 : (point % 3 == 1 ? 2 : 8);
      opts.resume = svc::BatchJournal::replay(dir + "/batch.journal").existed;
      const BatchReport report = BatchSupervisor(opts).run(specs);
      EXPECT_EQ(report.resumed, opts.resume);
      EXPECT_EQ(archive_bytes(dir), ref_files)
          << "kill point " << k << " action "
          << (action == durable::JournalKillAction::KillMid ? "mid" : "after")
          << " resume threads " << opts.threads;
      fs::remove_all(dir);
      ++point;
    }
  }
}

/// Resuming a sealed batch replays every commit from the journal and
/// re-executes nothing — the metrics prove completed scenarios never run
/// twice.
TEST_F(SvcDir, ResumeOfSealedBatchReplaysCommitsWithoutReexecution) {
  const auto specs = svc::make_job_mix(21, tiny_mix(3));
  BatchOptions opts = journaled_opts(21, path("a"));
  const BatchReport first = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(first.completed, 3);

  obs::MetricsRegistry registry;
  opts.resume = true;
  opts.metrics = &registry;
  const BatchReport again = BatchSupervisor(opts).run(specs);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.replayed_commits, 3);
  EXPECT_EQ(again.reexecuted, 0);
  EXPECT_EQ(again.completed, 3);
  EXPECT_EQ(registry.counter("svc/replayed_commits").value(), 3);
  EXPECT_EQ(registry.counter("svc/reexecuted").value(), 0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(again.results[i].checksum, first.results[i].checksum);
    EXPECT_EQ(again.results[i].status, ScenarioStatus::Ok);
  }
}

/// A journaled commit is a claim, not the proof: resume re-validates the
/// artifact digest, quarantines a damaged file, and re-executes the
/// scenario to a byte-identical replacement.
TEST_F(SvcDir, ResumeQuarantinesCorruptCommittedArtifactAndRewritesIt) {
  const auto specs = svc::make_job_mix(33, tiny_mix(2));
  BatchOptions opts = journaled_opts(33, path("a"));
  const BatchReport first = BatchSupervisor(opts).run(specs);
  ASSERT_EQ(first.completed, 2);

  const BatchArchive archive(path("a"));
  const BatchArchive::Manifest manifest = archive.read_manifest();
  const std::string victim = path("a/" + manifest.entries[0].file);
  std::string bytes = durable::read_file_bytes(victim);
  bytes[bytes.size() / 2] ^= 0x40;
  std::ofstream(victim, std::ios::binary | std::ios::trunc) << bytes;
  const std::string pristine = durable::read_file_bytes(
      path("a/" + manifest.entries[1].file));

  opts.resume = true;
  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(report.replay_quarantined, 1);
  EXPECT_EQ(report.replayed_commits, 1);
  EXPECT_EQ(report.reexecuted, 1);
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.results[0].checksum, first.results[0].checksum);

  // The damaged generation is preserved as evidence; the rewritten file
  // validates again, and the untouched artifact was not rewritten.
  EXPECT_TRUE(fs::exists(victim + ".corrupt"));
  EXPECT_EQ(BatchArchive::read_result(victim).checksum,
            manifest.entries[0].checksum);
  EXPECT_EQ(durable::read_file_bytes(path("a/" + manifest.entries[1].file)),
            pristine);
}

/// The virtual-time watchdog reclaims hung scenarios: a typed infra fault
/// feeds the retry ladder (and the breaker) instead of wedging the batch.
TEST_F(SvcDir, WatchdogReclaimsHungScenarios) {
  const auto specs = svc::make_job_mix(19, tiny_mix(2));
  BatchOptions opts;
  opts.batch_seed = 19;
  opts.threads = 2;
  opts.max_attempts = 2;
  opts.chaos.hang = 1.0;  // every fine-grid attempt wedges
  opts.archive_dir = path("a");

  const BatchReport report = BatchSupervisor(opts).run(specs);
  EXPECT_GE(report.watchdog_fires, 2);
  bool saw_watchdog = false;
  for (const svc::ScenarioResult& r : report.results) {
    // Degradation rescues every hang victim (the coarse grid runs
    // chaos-free).
    EXPECT_EQ(r.status, ScenarioStatus::Degraded);
    for (const svc::AttemptRecord& a : r.attempts) {
      if (!a.watchdog) continue;
      saw_watchdog = true;
      EXPECT_TRUE(a.infra);
      EXPECT_NE(a.error.find("watchdog"), std::string::npos) << a.error;
    }
  }
  EXPECT_TRUE(saw_watchdog);

  // Watchdog disabled: the same hang is only caught by the deadline (when
  // one is armed), never classified as a watchdog fire.
  opts.watchdog_budget_factor = 0.0;
  opts.archive_dir = path("b");
  const BatchReport undogged = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(undogged.watchdog_fires, 0);
}

/// Bounded admission: over-depth scenarios are shed deterministically
/// (keep-lowest-id), recorded in the report and manifest, and the in-flight
/// cap throttles without changing any result.
TEST_F(SvcDir, AdmissionShedsDeterministicallyAndInFlightCapPreservesResults) {
  const auto specs = svc::make_job_mix(9, tiny_mix(8));

  BatchOptions opts;
  opts.batch_seed = 9;
  opts.threads = 4;
  opts.max_queue_depth = 5;
  opts.archive_dir = path("a");
  const BatchReport a = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(a.shed, 3);
  EXPECT_EQ(a.completed, 5);
  for (int id = 0; id < 8; ++id) {
    const svc::ScenarioResult& r = a.results[static_cast<std::size_t>(id)];
    if (id < 5) {
      EXPECT_EQ(r.status, ScenarioStatus::Ok) << id;
    } else {
      EXPECT_EQ(r.status, ScenarioStatus::Shed) << id;
      EXPECT_NE(r.quarantine_reason.find("shed"), std::string::npos);
      EXPECT_TRUE(r.attempts.empty());  // shed work never executes
    }
  }
  const BatchArchive::Manifest m = BatchArchive(path("a")).read_manifest();
  ASSERT_EQ(m.entries.size(), 8u);
  EXPECT_EQ(m.entries[7].status, "shed");
  EXPECT_EQ(m.entries[7].attempt, -1);
  EXPECT_TRUE(m.entries[7].file.empty());

  // Same seed, different thread count: identical report bytes.
  opts.threads = 1;
  opts.archive_dir = path("b");
  const BatchReport b = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(a.canonical_json().str(), b.canonical_json().str());

  // The in-flight cap only throttles dispatch; every kept scenario still
  // completes with the identical checksum.
  opts.max_in_flight = 2;
  opts.archive_dir = path("c");
  const BatchReport c = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(c.shed, 3);
  EXPECT_EQ(c.completed, 5);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(c.results[i].status, a.results[i].status);
    EXPECT_EQ(c.results[i].checksum, a.results[i].checksum);
  }
}

/// Guard rails: a fresh run refuses to overwrite an unsealed journal, and
/// resume refuses a journal from a different batch.
TEST_F(SvcDir, JournalGuardsRefuseOverwriteAndMismatchedResume) {
  const auto specs = svc::make_job_mix(21, tiny_mix(2));
  BatchOptions opts = journaled_opts(21, path("a"));
  fs::create_directories(path("a"));

  {
    // Simulate a crashed batch: header + one start record, never sealed.
    svc::BatchJournal j(opts.journal_path, opts, specs);
    j.start(0, 0, 0, false);
  }
  EXPECT_THROW(BatchSupervisor(opts).run(specs), ConfigError);

  // Resume under a different seed (and so a different decision stream).
  BatchOptions other = opts;
  other.batch_seed = 22;
  other.resume = true;
  EXPECT_THROW(BatchSupervisor(other).run(specs), ConfigError);

  // Resume with no journal at all.
  BatchOptions missing = journaled_opts(21, path("b"));
  fs::create_directories(path("b"));
  missing.resume = true;
  EXPECT_THROW(BatchSupervisor(missing).run(specs), ConfigError);

  // The crashed batch resumes cleanly; once sealed, its journal MAY be
  // overwritten by a fresh run.
  BatchOptions cont = opts;
  cont.resume = true;
  const BatchReport done = BatchSupervisor(cont).run(specs);
  EXPECT_TRUE(done.resumed);
  EXPECT_EQ(done.completed + done.degraded + done.quarantined, 2);
  const BatchReport redo = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(redo.resumed, false);
}

/// Repeat quarantines of the same artifact path number their evidence
/// files instead of overwriting prior generations.
TEST_F(SvcDir, QuarantineNumbersRepeatedCollisions) {
  BatchArchive archive(path("a"));
  ScenarioSpec spec;
  spec.id = 1;
  spec.name = "scn-001";
  spec.dataset = "TEST";
  spec.hours = 1;

  const std::string file = archive.write_result(spec, "ok", 1, 1, {});
  EXPECT_EQ(BatchArchive::quarantine(file), file + ".corrupt");
  archive.write_result(spec, "ok", 1, 2, {});
  EXPECT_EQ(BatchArchive::quarantine(file), file + ".corrupt.1");
  archive.write_result(spec, "ok", 1, 3, {});
  EXPECT_EQ(BatchArchive::quarantine(file), file + ".corrupt.2");
  EXPECT_TRUE(fs::exists(file + ".corrupt"));
  EXPECT_TRUE(fs::exists(file + ".corrupt.1"));
  EXPECT_TRUE(fs::exists(file + ".corrupt.2"));
  EXPECT_EQ(BatchArchive::read_result(file + ".corrupt").checksum, 1u);
  EXPECT_EQ(BatchArchive::read_result(file + ".corrupt.2").checksum, 3u);
}

// ---------------------------------------------------- throughput engine

/// FNV digest over a mesh's vertex coordinates: the immutability tripwire
/// for the shared input cache.
std::uint64_t mesh_bytes_digest(const TriMesh& mesh) {
  const std::span<const Point2> pts = mesh.points();
  return fnv1a_bytes(std::string_view(
      reinterpret_cast<const char*>(pts.data()), pts.size() * sizeof(Point2)));
}

/// The tentpole invariant: input sharing, resident engines and the fair
/// schedule are throughput knobs only. Under full chaos, every combination
/// at 1, 2 and 8 threads produces byte-identical manifests — and within a
/// schedule, byte-identical canonical reports.
TEST_F(SvcDir, SharingResidencyScheduleSweepIsByteIdentical) {
  const auto specs = svc::make_job_mix(7, tiny_mix(6));

  std::map<std::string, std::string> reference_report;  // keyed by schedule
  std::string reference_manifest;
  int config = 0;
  for (bool share : {false, true}) {
    for (bool resident : {false, true}) {
      for (svc::Schedule schedule : {svc::Schedule::Fifo, svc::Schedule::Fair}) {
        for (int threads : {1, 2, 8}) {
          BatchOptions opts;
          opts.batch_seed = 7;
          opts.threads = threads;
          opts.chaos = full_chaos();
          opts.share_inputs = share;
          opts.resident = resident;
          opts.schedule = schedule;
          opts.archive_dir = path("archive_" + std::to_string(config++));

          const BatchReport report = BatchSupervisor(opts).run(specs);
          const std::string json = report.canonical_json().str();
          const std::string manifest = durable::read_file_bytes(
              BatchArchive(opts.archive_dir).manifest_path());
          const std::string key = svc::to_string(schedule);
          if (!reference_manifest.empty()) {
            EXPECT_EQ(manifest, reference_manifest)
                << "share=" << share << " resident=" << resident
                << " schedule=" << key << " threads=" << threads;
          } else {
            reference_manifest = manifest;
            EXPECT_GT(report.retries, 0);  // chaos must bite
          }
          if (reference_report.count(key)) {
            EXPECT_EQ(json, reference_report[key])
                << "share=" << share << " resident=" << resident
                << " threads=" << threads;
          } else {
            reference_report[key] = json;
          }
          // The sharing counters move with the knobs, never the science.
          if (share) {
            EXPECT_GT(report.input_cache_hits, 0);
            EXPECT_GE(report.input_cache_misses, 1);
          } else {
            EXPECT_EQ(report.input_cache_hits, 0);
            EXPECT_EQ(report.input_cache_misses, 0);
          }
          if (!resident) {
            EXPECT_EQ(report.engine_reuses, 0);
            EXPECT_EQ(report.rate_cache_shared_hits, 0);
          }
        }
      }
    }
  }
  // Fifo and fair write different canonical reports (the schedule and the
  // wait histogram are part of the contract), but the same manifests.
  EXPECT_NE(reference_report["fifo"], reference_report["fair"]);
}

/// Resident mode must actually reuse warm engines and serve rate lookups
/// from the frozen shared table once the batch spans multiple rounds.
TEST_F(SvcDir, ResidentModeReusesEnginesAndSharesRates) {
  const auto specs = svc::make_job_mix(11, tiny_mix(4));
  BatchOptions opts;
  opts.batch_seed = 11;
  opts.threads = 1;
  opts.max_in_flight = 1;  // 4 rounds: rounds 2..4 read the frozen table
  opts.resident = true;
  opts.archive_dir = path("a");
  const BatchReport warm = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(warm.completed, 4);
  EXPECT_GT(warm.engine_reuses, 0);
  EXPECT_GT(warm.rate_cache_shared_hits, 0);

  // And the counters stay out of the canonical report: a cold run matches.
  opts.resident = false;
  opts.archive_dir = path("b");
  const BatchReport cold = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(cold.engine_reuses, 0);
  EXPECT_EQ(warm.canonical_json().str(), cold.canonical_json().str());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(warm.results[i].checksum, cold.results[i].checksum);
  }
}

/// The fair schedule reorders dispatch (shortest expected work first,
/// round-robin across datasets) without changing any outcome, and its
/// report is deterministic across thread counts.
TEST_F(SvcDir, FairScheduleReordersDispatchWithoutChangingOutcomes) {
  // Two datasets with very different mesh sizes in one batch, so the
  // work-proxy sort and the dataset interleave both engage.
  auto specs = svc::make_job_mix(3, tiny_mix(4));
  auto la = svc::make_job_mix(3, [] {
    JobMixOptions mix;
    mix.scenarios = 2;
    mix.dataset = "LA";
    mix.hours_min = 1;
    mix.hours_max = 1;
    return mix;
  }());
  for (ScenarioSpec& s : la) {
    s.id += 4;
    s.name = "la-" + std::to_string(s.id);
    specs.push_back(s);
  }

  BatchOptions opts;
  opts.batch_seed = 3;
  opts.threads = 2;
  opts.max_in_flight = 2;  // the cap makes the order observable
  opts.schedule = svc::Schedule::Fair;
  opts.archive_dir = path("fair");
  const BatchReport fair = BatchSupervisor(opts).run(specs);

  opts.schedule = svc::Schedule::Fifo;
  opts.archive_dir = path("fifo");
  const BatchReport fifo = BatchSupervisor(opts).run(specs);

  ASSERT_EQ(fair.results.size(), fifo.results.size());
  for (std::size_t i = 0; i < fair.results.size(); ++i) {
    EXPECT_EQ(fair.results[i].status, fifo.results[i].status) << i;
    EXPECT_EQ(fair.results[i].checksum, fifo.results[i].checksum) << i;
  }
  // TEST scenarios are far cheaper than LA, so under the fair schedule at
  // least one TEST attempt must land in round 0 before every LA attempt.
  int first_la_round = 1 << 20, first_test_round = 1 << 20;
  for (const svc::ScenarioResult& r : fair.results) {
    const int round = r.attempts.empty() ? 1 << 20 : r.attempts.front().round;
    if (r.spec.dataset == "LA") first_la_round = std::min(first_la_round, round);
    if (r.spec.dataset == "TEST") {
      first_test_round = std::min(first_test_round, round);
    }
  }
  EXPECT_LE(first_test_round, first_la_round);

  // Thread-count determinism of the fair report, histogram included.
  opts.schedule = svc::Schedule::Fair;
  opts.threads = 8;
  opts.archive_dir = path("fair8");
  const BatchReport fair8 = BatchSupervisor(opts).run(specs);
  EXPECT_EQ(fair.canonical_json().str(), fair8.canonical_json().str());
}

/// Scenarios sharing a base digest get the SAME immutable DatasetBase
/// instance, and running the model never mutates it.
TEST_F(SvcDir, SharedInputCacheHandsOutOneImmutableBase) {
  svc::SharedInputCache cache;
  const auto specs = svc::make_job_mix(17, tiny_mix(3));
  const Dataset a = svc::build_scenario_dataset(specs[0], false, &cache);
  const Dataset b = svc::build_scenario_dataset(specs[1], false, &cache);
  const Dataset poisoned = svc::build_scenario_dataset(specs[2], true, &cache);
  EXPECT_EQ(a.base, b.base);         // identity, not just equality
  EXPECT_EQ(a.base, poisoned.base);  // poison lives in the overlay
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 2);

  const std::uint64_t before = mesh_bytes_digest(a.mesh());
  ModelOptions mo;
  mo.hours = specs[0].hours;
  mo.host_threads = 1;
  (void)AirshedModel(a, mo).run();
  EXPECT_EQ(mesh_bytes_digest(b.mesh()), before);
  EXPECT_EQ(mesh_bytes_digest(a.mesh()), before);
}

/// The journal header pins the throughput configuration: a resume under a
/// different schedule / sharing / residency refuses to run.
TEST_F(SvcDir, ResumeRefusesMismatchedThroughputConfig) {
  const auto specs = svc::make_job_mix(21, tiny_mix(2));
  BatchOptions opts = journaled_opts(21, path("a"));
  opts.resident = true;
  opts.schedule = svc::Schedule::Fair;
  fs::create_directories(path("a"));
  {
    // Crashed batch: header + one start record, never sealed.
    svc::BatchJournal j(opts.journal_path, opts, specs);
    j.start(0, 0, 0, false);
  }

  for (const auto& mutate : std::vector<std::function<void(BatchOptions&)>>{
           [](BatchOptions& o) { o.share_inputs = false; },
           [](BatchOptions& o) { o.resident = false; },
           [](BatchOptions& o) { o.schedule = svc::Schedule::Fifo; }}) {
    BatchOptions bad = opts;
    bad.resume = true;
    mutate(bad);
    EXPECT_THROW(BatchSupervisor(bad).run(specs), ConfigError);
  }

  // The matching configuration resumes cleanly.
  BatchOptions good = opts;
  good.resume = true;
  const BatchReport done = BatchSupervisor(good).run(specs);
  EXPECT_TRUE(done.resumed);
  EXPECT_EQ(done.completed, 2);
}

/// SIGKILL drill with the full throughput engine on: sharing + residency +
/// fair schedule, killed at every journal record boundary, resumes to a
/// byte-identical archive.
TEST_F(SvcDir, SigkillResumeWithThroughputEngineIsByteIdentical) {
  const auto specs = svc::make_job_mix(7, tiny_mix(3));
  const auto engine_opts = [&](const std::string& dir) {
    BatchOptions opts = journaled_opts(7, dir);
    opts.chaos = full_chaos();
    opts.share_inputs = true;
    opts.resident = true;
    opts.schedule = svc::Schedule::Fair;
    return opts;
  };

  const std::string ref_dir = path("ref");
  BatchOptions ref = engine_opts(ref_dir);
  const BatchReport ref_report = BatchSupervisor(ref).run(specs);
  EXPECT_GT(ref_report.retries, 0);
  const auto ref_files = archive_bytes(ref_dir);
  const std::uint64_t frames =
      svc::BatchJournal::replay(ref_dir + "/batch.journal").raw.records.size();
  ASSERT_GT(frames, 3u);

  int point = 0;
  for (std::uint64_t k = 0; k < frames; ++k) {
    const std::string dir = path("crash_" + std::to_string(point));
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      fault::arm_kill_point(k, durable::JournalKillAction::KillAfter);
      BatchOptions opts = engine_opts(dir);
      try {
        BatchSupervisor(opts).run(specs);
      } catch (...) {
        _exit(3);
      }
      _exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "kill point " << k << " did not fire";

    BatchOptions opts = engine_opts(dir);
    opts.threads = point % 2 == 0 ? 2 : 8;
    opts.resume = svc::BatchJournal::replay(dir + "/batch.journal").existed;
    const BatchReport report = BatchSupervisor(opts).run(specs);
    EXPECT_EQ(report.resumed, opts.resume);
    EXPECT_EQ(archive_bytes(dir), ref_files) << "kill point " << k;
    fs::remove_all(dir);
    ++point;
  }
}

}  // namespace
}  // namespace airshed
