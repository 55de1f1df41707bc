// Tests for airshed::durable — the corruption-tolerant storage layer — and
// its consumers: the framed container codec, the corruption matrix
// (truncation at every byte, single-bit flips at every offset), atomic
// writes, the checkpoint vault's newest-valid restore with quarantine, the
// storage-fault classes of FaultPlan, and vault-based model resume.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "airshed/core/executor.hpp"
#include "airshed/core/model.hpp"
#include "airshed/core/uniform_model.hpp"
#include "airshed/durable/container.hpp"
#include "airshed/durable/journal.hpp"
#include "airshed/io/dataset.hpp"
#include "airshed/io/vault.hpp"
#include "airshed/util/hash.hpp"

namespace airshed {
namespace {

namespace fs = std::filesystem;
using durable::ContainerReader;
using durable::ContainerWriter;
using durable::PayloadReader;
using durable::PayloadWriter;
using durable::StorageError;
using durable::StorageFaultKind;

/// Fresh scratch directory per test (removed on teardown).
class DurableDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("airshed_durable_" +
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

/// A small container with several typed sections (covers every codec
/// primitive), used by the corruption-matrix tests.
std::string sample_container_bytes() {
  ContainerWriter c("airshed-test", 7);
  PayloadWriter meta;
  meta.str("hello").u32(123).u64(1ull << 40).i64(-5).f64(2.75);
  c.add_section("meta", std::move(meta).take());
  PayloadWriter data;
  data.doubles(std::vector<double>{1.0, -2.5, 3.25, 0.0});
  c.add_section("data", std::move(data).take());
  c.add_section("empty", "");
  return c.encode();
}

// ------------------------------------------------------------- container

TEST_F(DurableDir, ContainerRoundTripIsLossless) {
  const std::string p = path("sample.bin");
  durable::atomic_write_file(p, sample_container_bytes());

  const ContainerReader c = ContainerReader::read_file(p, "airshed-test");
  EXPECT_EQ(c.format(), "airshed-test");
  EXPECT_EQ(c.version(), 7u);
  ASSERT_EQ(c.section_count(), 3u);
  EXPECT_EQ(c.section(0).name, "meta");
  EXPECT_EQ(c.section(2).payload.size(), 0u);

  PayloadReader meta = c.open("meta");
  EXPECT_EQ(meta.str(), "hello");
  EXPECT_EQ(meta.u32(), 123u);
  EXPECT_EQ(meta.u64(), 1ull << 40);
  EXPECT_EQ(meta.i64(), -5);
  EXPECT_DOUBLE_EQ(meta.f64(), 2.75);
  meta.expect_end();

  PayloadReader data = c.open("data");
  std::vector<double> values;
  data.doubles(values);
  EXPECT_EQ(values, (std::vector<double>{1.0, -2.5, 3.25, 0.0}));
  data.expect_end();
}

TEST_F(DurableDir, WrongFormatTagIsRejectedWithTypedError) {
  const std::string p = path("sample.bin");
  durable::atomic_write_file(p, sample_container_bytes());
  try {
    ContainerReader::read_file(p, "airshed-archive");
    FAIL() << "format mismatch accepted";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.path(), p);
    EXPECT_EQ(e.section(), "header");
  }
}

TEST(Durable, TruncationAtEveryByteIsRejected) {
  const std::string bytes = sample_container_bytes();
  // Every proper prefix — which includes every section boundary — must be
  // rejected with a typed error, never accepted and never a crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(ContainerReader::parse(bytes.substr(0, len), "trunc"),
                 StorageError)
        << "truncation to " << len << " bytes was accepted";
  }
  EXPECT_NO_THROW(ContainerReader::parse(bytes, "full"));
}

TEST(Durable, SingleBitFlipAtEveryOffsetIsRejected) {
  const std::string bytes = sample_container_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(static_cast<unsigned char>(corrupt[i]) ^
                                     (1u << bit));
      try {
        ContainerReader::parse(std::move(corrupt), "flip");
        FAIL() << "bit " << bit << " of byte " << i << " flipped unnoticed";
      } catch (const StorageError&) {
        // expected: typed rejection, whatever the offset
      }
    }
  }
}

TEST(Durable, TrailingGarbageIsRejected) {
  std::string bytes = sample_container_bytes();
  bytes += "extra";
  EXPECT_THROW(ContainerReader::parse(std::move(bytes), "garbage"),
               StorageError);
}

TEST_F(DurableDir, AtomicWriteLeavesNoTempFilesAndReplacesWhole) {
  const std::string p = path("artifact.bin");
  durable::atomic_write_file(p, "first version");
  durable::atomic_write_file(p, "second");
  EXPECT_EQ(durable::read_file_bytes(p), "second");
  int entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);  // no lingering "<path>.tmp.<pid>" files
}

/// Restores the real write(2) even if a test assertion throws.
struct WriteHookGuard {
  ~WriteHookGuard() { durable::set_atomic_write_hook({}); }
};

TEST_F(DurableDir, AtomicWriteRetriesTransientWriteFailures) {
  WriteHookGuard guard;
  const std::string p = path("artifact.bin");
  const std::string content = "transient-but-eventually-complete";

  // Three EINTRs up front, then the kernel dribbles one byte per call.
  // Both are transient: progress (or a recoverable errno) resets the
  // retry budget, so the write must still land intact.
  int eintrs = 0;
  int calls = 0;
  durable::set_atomic_write_hook(
      [&](int fd, const void* buf, std::size_t len) -> long {
        ++calls;
        if (eintrs < 3) {
          ++eintrs;
          errno = EINTR;
          return -1;
        }
        return static_cast<long>(
            ::write(fd, buf, len == 0 ? 0 : 1));
      });
  durable::atomic_write_file(p, content);
  durable::set_atomic_write_hook({});

  EXPECT_EQ(durable::read_file_bytes(p), content);
  EXPECT_EQ(calls, 3 + static_cast<int>(content.size()));
  int entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);  // temp file renamed away, nothing lingers
}

TEST_F(DurableDir, AtomicWritePersistentFailureIsBoundedAndTyped) {
  WriteHookGuard guard;
  const std::string p = path("artifact.bin");
  durable::atomic_write_file(p, "previous generation");

  // A device that never makes progress: the retry loop must give up
  // after kMaxWriteRetries attempts, surface a typed StorageError, clean
  // up its temp file, and leave the previous generation untouched.
  int calls = 0;
  durable::set_atomic_write_hook(
      [&](int, const void*, std::size_t) -> long {
        ++calls;
        errno = EINTR;
        return -1;
      });
  try {
    durable::atomic_write_file(p, "next generation");
    FAIL() << "persistent write failure was swallowed";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.path(), p);
    EXPECT_EQ(e.section(), "atomic-write");
  }
  durable::set_atomic_write_hook({});

  EXPECT_EQ(calls, durable::kMaxWriteRetries);
  EXPECT_EQ(durable::read_file_bytes(p), "previous generation");
  int entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);  // failed temp file was removed
}

TEST_F(DurableDir, InjectStorageFaultIsDeterministic) {
  const std::string a = path("a.bin");
  const std::string b = path("b.bin");
  durable::atomic_write_file(a, sample_container_bytes());
  durable::atomic_write_file(b, sample_container_bytes());
  durable::inject_storage_fault(a, StorageFaultKind::BitFlip, 99);
  durable::inject_storage_fault(b, StorageFaultKind::BitFlip, 99);
  EXPECT_EQ(durable::read_file_bytes(a), durable::read_file_bytes(b));
  EXPECT_NE(durable::read_file_bytes(a), sample_container_bytes());

  durable::inject_storage_fault(a, StorageFaultKind::TornWrite, 7);
  durable::inject_storage_fault(b, StorageFaultKind::TornWrite, 7);
  EXPECT_EQ(durable::read_file_bytes(a), durable::read_file_bytes(b));
  EXPECT_LT(fs::file_size(a), sample_container_bytes().size());

  durable::inject_storage_fault(a, StorageFaultKind::LostRename, 1);
  EXPECT_FALSE(fs::exists(a));
}

// ------------------------------------------------------- artifact formats

CheckpointRecord small_checkpoint() {
  CheckpointRecord rec;
  rec.dataset = "TEST";
  rec.next_hour = 3;
  rec.conc = Array3<double>(2, 2, 3, 0.0);
  rec.pm = Array3<double>(3, 2, 3, 0.0);
  for (std::size_t i = 0; i < rec.conc.size(); ++i) {
    rec.conc.flat()[i] = 0.25 * static_cast<double>(i) + 0.001;
  }
  for (std::size_t i = 0; i < rec.pm.size(); ++i) {
    rec.pm.flat()[i] = -0.5 * static_cast<double>(i);
  }
  return rec;
}

TEST_F(DurableDir, CheckpointRoundTripIsBitExact) {
  const CheckpointRecord rec = small_checkpoint();
  const std::string p = path("state.ckpt");
  rec.save(p);
  const CheckpointRecord back = CheckpointRecord::load(p);
  EXPECT_EQ(back.dataset, rec.dataset);
  EXPECT_EQ(back.next_hour, rec.next_hour);
  EXPECT_EQ(back.conc, rec.conc);
  EXPECT_EQ(back.pm, rec.pm);
}

TEST_F(DurableDir, CheckpointCorruptionMatrixRejectsEveryDamage) {
  const CheckpointRecord rec = small_checkpoint();
  const std::string p = path("state.ckpt");
  rec.save(p);
  const std::string bytes = durable::read_file_bytes(p);

  // Truncate at every section boundary and at sampled interior offsets.
  const ContainerReader intact = ContainerReader::parse(bytes, p);
  std::vector<std::size_t> cuts{0, 8, bytes.size() / 2, bytes.size() - 1};
  for (std::size_t i = 0; i < intact.section_count(); ++i) {
    cuts.push_back(static_cast<std::size_t>(intact.section(i).payload_offset));
  }
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    const std::string t = path("cut.ckpt");
    durable::atomic_write_file(t, bytes.substr(0, cut));
    EXPECT_THROW(CheckpointRecord::load(t), StorageError)
        << "truncation at byte " << cut << " accepted";
  }

  // Single-byte flips at a stride (every byte is covered by the
  // container-level exhaustive test above).
  for (std::size_t i = 0; i < bytes.size(); i += 13) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(static_cast<unsigned char>(corrupt[i]) ^ 0x40);
    const std::string t = path("flip.ckpt");
    durable::atomic_write_file(t, corrupt);
    EXPECT_THROW(CheckpointRecord::load(t), Error)
        << "flip at byte " << i << " accepted";
  }
}

TEST_F(DurableDir, WorkTraceRoundTripIsBitExact) {
  WorkTrace t;
  t.dataset = "TEST";
  t.species = 2;
  t.layers = 3;
  t.points = 4;
  t.transport_row_parallelism = 2;
  t.hours.resize(2);
  for (std::size_t h = 0; h < t.hours.size(); ++h) {
    HourTrace& hour = t.hours[h];
    hour.input_work = 10.0 + static_cast<double>(h);
    hour.pretrans_work = 0.5;
    hour.output_work = 1.25;
    hour.steps.resize(2);
    for (StepTrace& s : hour.steps) {
      s.aerosol_work = 3.5;
      s.transport1_layer_work = {1.0, 2.0, 3.0};
      s.transport2_layer_work = {1.5, 2.5, 3.5};
      s.chem_column_work = {4.0, 5.0, 6.0, 7.0};
    }
  }
  const auto tmp = fs::temp_directory_path() / "airshed_trace_rt.trace";
  t.save(tmp.string());
  EXPECT_EQ(WorkTrace::load(tmp.string()), t);
  fs::remove(tmp);
}

TEST_F(DurableDir, PlainTextTraceIsRejectedWithTypedError) {
  // A pre-container text trace whose counts would ask for ~10^11 elements:
  // load must reject it by its header, before reading any count.
  const std::string p = path("legacy.trace");
  {
    std::ofstream os(p);
    os << "airshed-worktrace-v2\nTEST\n";
    os << "2 99999999999 99999999999 1 99999999999\n";
    os << "10 1 2 99999999999\n";
  }
  try {
    (void)WorkTrace::load(p);
    FAIL() << "plain-text trace loaded";
  } catch (const durable::StorageError& e) {
    EXPECT_EQ(e.path(), p);
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------- vault

TEST_F(DurableDir, VaultRestoresNewestValidAndQuarantinesCorrupt) {
  CheckpointVault vault(path("vault"));
  EXPECT_TRUE(vault.empty());
  CheckpointRecord rec = small_checkpoint();
  for (int hour = 1; hour <= 3; ++hour) {
    rec.next_hour = hour;
    EXPECT_EQ(vault.append(rec), hour);  // generations number from 1
  }

  // Intact chain: newest wins.
  {
    CheckpointVault::RestoreResult r = vault.restore_newest_valid();
    EXPECT_EQ(r.generation, 3);
    EXPECT_EQ(r.record.next_hour, 3);
    EXPECT_EQ(r.scanned, 1);
    EXPECT_TRUE(r.quarantined.empty());
  }

  // Corrupt the newest generation: restore falls back and quarantines.
  durable::inject_storage_fault(vault.generation_path(3),
                                StorageFaultKind::BitFlip, 17);
  {
    CheckpointVault::RestoreResult r = vault.restore_newest_valid();
    EXPECT_EQ(r.generation, 2);
    EXPECT_EQ(r.record.next_hour, 2);
    EXPECT_EQ(r.scanned, 2);
    ASSERT_EQ(r.quarantined.size(), 1u);
    EXPECT_TRUE(fs::exists(r.quarantined[0]));
    EXPECT_FALSE(fs::exists(vault.generation_path(3)));
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors[0].find(vault.generation_path(3)), std::string::npos);
  }

  // A lost rename (file missing) behaves like any other corruption.
  durable::inject_storage_fault(vault.generation_path(2),
                                StorageFaultKind::LostRename, 0);
  EXPECT_EQ(vault.restore_newest_valid().generation, 1);
}

TEST_F(DurableDir, VaultSurvivesManifestLossAndDamage) {
  CheckpointVault vault(path("vault"));
  CheckpointRecord rec = small_checkpoint();
  vault.append(rec);
  vault.append(rec);

  // Manifest deleted: the directory scan recovers the chain.
  fs::remove(path("vault") + "/ckpt.manifest");
  EXPECT_EQ(vault.generations(), (std::vector<int>{1, 2}));
  EXPECT_EQ(vault.restore_newest_valid().generation, 2);

  // Manifest corrupted: same degradation.
  vault.append(rec);  // rewrites the manifest
  durable::inject_storage_fault(path("vault") + "/ckpt.manifest",
                                StorageFaultKind::TornWrite, 5);
  EXPECT_EQ(vault.generations(), (std::vector<int>{1, 2, 3}));
}

TEST_F(DurableDir, VaultThrowsTypedErrorWhenNothingValidates) {
  CheckpointVault vault(path("vault"));
  CheckpointRecord rec = small_checkpoint();
  vault.append(rec);
  durable::inject_storage_fault(vault.generation_path(1),
                                StorageFaultKind::TornWrite, 3);
  EXPECT_THROW(vault.restore_newest_valid(), StorageError);
  // Empty vault: also a typed error.
  CheckpointVault empty(path("empty_vault"));
  EXPECT_THROW(empty.restore_newest_valid(), StorageError);
}

// ------------------------------------------------- vault-based model resume

std::uint64_t field_digest(const RunOutputs& out) {
  std::uint64_t h = fnv1a_bytes(std::string_view(
      reinterpret_cast<const char*>(out.conc.flat().data()),
      out.conc.size() * sizeof(double)));
  return fnv1a_bytes(
      std::string_view(reinterpret_cast<const char*>(out.pm.flat().data()),
                       out.pm.size() * sizeof(double)),
      h);
}

TEST_F(DurableDir, ModelResumesBitIdenticallyFromNewestValidGeneration) {
  Dataset ds = test_basin_dataset();
  ModelOptions opts;
  opts.hours = 4;
  AirshedModel model(ds, opts);

  CheckpointVault vault(path("vault"));
  const ModelRunResult full = model.run_with_checkpoints(
      [&](const CheckpointRecord& rec) { vault.append(rec); });
  ASSERT_EQ(vault.generations().size(), 4u);

  // Corrupt the two newest generations; resume must restore generation 2
  // (hour boundary 2) and still reproduce the uninterrupted run bit for bit.
  durable::inject_storage_fault(vault.generation_path(4),
                                StorageFaultKind::BitFlip, 11);
  durable::inject_storage_fault(vault.generation_path(3),
                                StorageFaultKind::TornWrite, 12);

  CheckpointVault::RestoreResult info;
  const ModelRunResult resumed = model.resume(vault, &info);
  EXPECT_EQ(info.generation, 2);
  EXPECT_EQ(info.scanned, 3);
  EXPECT_EQ(info.quarantined.size(), 2u);
  ASSERT_EQ(resumed.outputs.hourly.size(), 2u);  // hours 2 and 3 replayed
  EXPECT_EQ(field_digest(resumed.outputs), field_digest(full.outputs));
  for (std::size_t i = 0; i < resumed.outputs.hourly.size(); ++i) {
    EXPECT_EQ(resumed.outputs.hourly[i].max_surface_o3_ppm,
              full.outputs.hourly[i + 2].max_surface_o3_ppm);
  }
}

TEST(UniformModelCheckpoint, ResumeMatchesUninterruptedRun) {
  UniformDataset ds = build_uniform_dataset(test_basin_spec(), 6, 6);
  ModelOptions opts;
  opts.hours = 3;
  UniformAirshedModel model(ds, opts);

  std::vector<CheckpointRecord> ckpts;
  const ModelRunResult full = model.run_with_checkpoints(
      [&](const CheckpointRecord& rec) { ckpts.push_back(rec); });
  ASSERT_EQ(ckpts.size(), 3u);

  const ModelRunResult resumed = model.resume(ckpts[0]);
  ASSERT_EQ(resumed.outputs.hourly.size(), 2u);
  EXPECT_EQ(resumed.outputs.conc, full.outputs.conc);  // bitwise
  EXPECT_EQ(resumed.outputs.pm, full.outputs.pm);
  EXPECT_THROW(
      {
        CheckpointRecord bad = ckpts[0];
        bad.dataset = "other";
        model.resume(bad);
      },
      ConfigError);
}

// -------------------------------------------------- FaultPlan storage class

TEST(StorageFaults, DrawsAreStatelessAndSeedDeterministic) {
  FaultModelOptions f;
  f.storage_fault_probability = 0.5;
  f.payload_corruption_probability = 0.3;
  const FaultPlan a = FaultPlan::make(5, 8, 12, f);
  const FaultPlan b = FaultPlan::make(5, 8, 12, f);
  bool hit = false, none = false;
  for (int hour = 0; hour < 12; ++hour) {
    for (long long artifact = 0; artifact < 16; ++artifact) {
      const StorageFaultKind kind = a.storage_fault(hour, artifact);
      EXPECT_EQ(kind, b.storage_fault(hour, artifact));
      EXPECT_EQ(kind, a.storage_fault(hour, artifact));  // stateless
      EXPECT_EQ(a.storage_fault_seed(hour, artifact),
                b.storage_fault_seed(hour, artifact));
      (kind == StorageFaultKind::None ? none : hit) = true;
    }
    EXPECT_EQ(a.payload_corruptions(hour, 0), b.payload_corruptions(hour, 0));
    EXPECT_LE(a.payload_corruptions(hour, 0), f.max_drops_per_phase);
  }
  EXPECT_TRUE(hit);
  EXPECT_TRUE(none);
  // Distinct artifacts at the same hour get independent draws (the reason
  // the executor's artifact counter is monotonic, never reused).
  bool differs = false;
  for (long long artifact = 1; artifact < 64 && !differs; ++artifact) {
    differs = a.storage_fault(0, artifact) != a.storage_fault(0, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(StorageFaults, PlanEmptinessCoversNewClasses) {
  FaultModelOptions f;
  f.storage_fault_probability = 0.2;
  EXPECT_FALSE(FaultPlan::make(1, 4, 4, f).empty());
  f.storage_fault_probability = 0.0;
  f.payload_corruption_probability = 0.2;
  EXPECT_FALSE(FaultPlan::make(1, 4, 4, f).empty());
  EXPECT_TRUE(FaultPlan::make(1, 4, 4, FaultModelOptions{}).empty());
  EXPECT_FALSE(FaultPlan{}.has_storage_faults());
  EXPECT_EQ(FaultPlan{}.storage_fault(0, 0), StorageFaultKind::None);
  EXPECT_EQ(FaultPlan{}.payload_corruptions(0, 0), 0);
}

// ------------------------------------------------- executor storage faults

const WorkTrace& shared_trace() {
  static const WorkTrace trace = [] {
    Dataset ds = test_basin_dataset();
    ModelOptions opts;
    opts.hours = 6;
    return AirshedModel(ds, opts).run().trace;
  }();
  return trace;
}

ExecutionConfig faulty_config(std::uint64_t seed, double storage_p,
                              double payload_p) {
  ExecutionConfig cfg;
  cfg.machine = machine_by_name("paragon");
  cfg.nodes = 16;
  FaultModelOptions f;
  f.node_mtbf_hours = 30.0;
  f.storage_fault_probability = storage_p;
  f.payload_corruption_probability = payload_p;
  cfg.faults = FaultPlan::make(seed, cfg.nodes, 6, f);
  return cfg;
}

TEST(ExecutorStorageFaults, LedgerStillDecomposesTotalExactly) {
  const WorkTrace& t = shared_trace();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ExecutionConfig cfg = faulty_config(seed, 0.6, 0.1);
    if (!cfg.faults.has_failures()) continue;
    const RunReport r = simulate_execution(t, cfg);
    EXPECT_NEAR(r.ledger.total_seconds(), r.total_seconds,
                1e-9 * r.total_seconds);
    EXPECT_NEAR(r.ledger.category_seconds(PhaseCategory::Recovery),
                r.recovery.total_overhead_s(),
                1e-9 * (1.0 + r.recovery.total_overhead_s()));
  }
}

TEST(ExecutorStorageFaults, CorruptionTriggersFallbackAccounting) {
  const WorkTrace& t = shared_trace();
  bool saw_fallback = false;
  for (std::uint64_t seed = 1; seed <= 60 && !saw_fallback; ++seed) {
    const ExecutionConfig cfg = faulty_config(seed, 0.7, 0.0);
    if (!cfg.faults.has_failures()) continue;
    const RunReport r = simulate_execution(t, cfg);
    if (r.recovery.corrupt_checkpoints > 0 && r.recovery.fallback_hours > 0) {
      saw_fallback = true;
      EXPECT_GT(r.recovery.fallback_s, 0.0);
      EXPECT_GT(r.recovery.verify_s, 0.0);
    }
  }
  EXPECT_TRUE(saw_fallback) << "no seed in 60 produced a checkpoint fallback";
}

TEST(ExecutorStorageFaults, ZeroProbabilityIsByteIdenticalToBaseline) {
  const WorkTrace& t = shared_trace();
  const std::uint64_t seed = [&] {
    for (std::uint64_t s = 1; s < 100; ++s) {
      if (faulty_config(s, 0.0, 0.0).faults.has_failures()) return s;
    }
    return std::uint64_t{1};
  }();
  const RunReport base = simulate_execution(t, faulty_config(seed, 0.0, 0.0));
  // Storage faults at probability zero change nothing, bit for bit.
  EXPECT_EQ(base.total_seconds,
            simulate_execution(t, faulty_config(seed, 0.0, 0.0)).total_seconds);
  EXPECT_EQ(base.recovery.corrupt_checkpoints, 0);
  EXPECT_DOUBLE_EQ(base.recovery.fallback_hours, 0.0);
  EXPECT_DOUBLE_EQ(base.recovery.verify_s, 0.0);
  EXPECT_DOUBLE_EQ(base.recovery.fallback_s, 0.0);
}

TEST(ExecutorStorageFaults, PayloadCorruptionChargesVerifyAndRetransmit) {
  const WorkTrace& t = shared_trace();
  ExecutionConfig clean;
  clean.machine = machine_by_name("paragon");
  clean.nodes = 16;
  const RunReport base = simulate_execution(t, clean);

  ExecutionConfig cfg = clean;
  FaultModelOptions f;
  f.payload_corruption_probability = 0.2;
  cfg.faults = FaultPlan::make(3, cfg.nodes, 6, f);
  const RunReport r = simulate_execution(t, cfg);
  EXPECT_GT(r.recovery.verify_s, 0.0);
  EXPECT_GT(r.recovery.retransmissions, 0);
  EXPECT_GT(r.total_seconds, base.total_seconds);
  EXPECT_NEAR(r.ledger.category_seconds(PhaseCategory::Recovery),
              r.recovery.total_overhead_s(),
              1e-9 * r.recovery.total_overhead_s());
  // Determinism of the whole report.
  EXPECT_EQ(r.total_seconds, simulate_execution(t, cfg).total_seconds);
}

// --------------------------------------------------------------- journal

TEST_F(DurableDir, JournalAppendAndReplayRoundTrip) {
  const std::string p = path("wal.journal");
  {
    durable::JournalWriter w(p, "airshed-test-journal", 3);
    w.append("alpha");
    w.append(std::string("\x00\x01\x02", 3));  // binary-safe payloads
    w.append("");                              // empty record is legal
    EXPECT_EQ(w.appended(), 3u);
  }
  const durable::JournalReplay r =
      durable::replay_journal(p, "airshed-test-journal");
  EXPECT_TRUE(r.existed);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.format, "airshed-test-journal");
  EXPECT_EQ(r.version, 3u);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0], "alpha");
  EXPECT_EQ(r.records[1], std::string("\x00\x01\x02", 3));
  EXPECT_EQ(r.records[2], "");
  EXPECT_EQ(r.valid_bytes, fs::file_size(p));
}

TEST_F(DurableDir, JournalMissingFileAndWrongFormat) {
  EXPECT_FALSE(durable::replay_journal(path("absent.journal")).existed);
  durable::JournalWriter w(path("wal.journal"), "airshed-test-journal", 1);
  w.append("x");
  EXPECT_THROW(durable::replay_journal(path("wal.journal"), "other-format"),
               StorageError);
}

TEST_F(DurableDir, JournalTornTailIsTruncatedAtEveryCutPoint) {
  const std::string p = path("wal.journal");
  {
    durable::JournalWriter w(p, "airshed-test-journal", 1);
    w.append("first record");
    w.append("second record");
  }
  const durable::JournalReplay full = durable::replay_journal(p);
  const std::string bytes = durable::read_file_bytes(p);
  ASSERT_EQ(full.valid_bytes, bytes.size());

  // Every truncation point inside the SECOND record's frame must replay to
  // exactly the first record plus a reported torn tail; a resuming writer
  // must then restore a fully valid two-record journal.
  const std::uint64_t first_end =
      full.valid_bytes - (4 + std::string("second record").size() + 4);
  for (std::uint64_t cut = first_end + 1; cut < bytes.size(); ++cut) {
    durable::atomic_write_file(p, std::string_view(bytes).substr(0, cut));
    const durable::JournalReplay torn = durable::replay_journal(p);
    EXPECT_TRUE(torn.existed);
    EXPECT_TRUE(torn.torn_tail) << "cut at " << cut;
    ASSERT_EQ(torn.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(torn.records[0], "first record");
    EXPECT_EQ(torn.valid_bytes, first_end);

    durable::JournalWriter resume(p, torn);
    resume.append("second record");
    const durable::JournalReplay healed = durable::replay_journal(p);
    ASSERT_EQ(healed.records.size(), 2u);
    EXPECT_EQ(healed.records[1], "second record");
    EXPECT_FALSE(healed.torn_tail);
  }
}

TEST_F(DurableDir, JournalBitFlipInCommittedRecordEndsValidPrefix) {
  const std::string p = path("wal.journal");
  {
    durable::JournalWriter w(p, "airshed-test-journal", 1);
    w.append("first record");
    w.append("second record");
  }
  std::string bytes = durable::read_file_bytes(p);
  // Flip one payload bit of the second record (its CRC must catch it, and
  // the valid prefix must stop at the first record).
  bytes[bytes.size() - 4 - 3] ^= 0x10;
  durable::atomic_write_file(p, bytes);
  const durable::JournalReplay r = durable::replay_journal(p);
  EXPECT_TRUE(r.existed);
  EXPECT_TRUE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], "first record");
}

TEST_F(DurableDir, JournalIncompleteHeaderReadsAsNonexistent) {
  const std::string p = path("wal.journal");
  { durable::JournalWriter w(p, "airshed-test-journal", 1); }
  const std::string bytes = durable::read_file_bytes(p);
  for (std::uint64_t cut = 0; cut < bytes.size(); ++cut) {
    durable::atomic_write_file(p, std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(durable::replay_journal(p).existed) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace airshed
