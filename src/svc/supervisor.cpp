#include "airshed/svc/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "airshed/chem/youngboris.hpp"
#include "airshed/core/uniform_model.hpp"
#include "airshed/durable/container.hpp"
#include "airshed/par/pool.hpp"
#include "airshed/svc/input_cache.hpp"
#include "airshed/svc/journal.hpp"
#include "airshed/util/hash.hpp"
#include "airshed/util/rng.hpp"

namespace airshed::svc {

namespace {

/// Hash-derived stream for one (batch_seed, scenario, attempt, salt) tuple:
/// the draw for any attempt never depends on any other attempt's draws.
Rng decision_stream(std::uint64_t batch_seed, int scenario_id, int attempt,
                    const char* salt) {
  std::uint64_t h = fnv1a_bytes(salt);
  h = h * kFnvPrime ^ batch_seed;
  h = h * kFnvPrime ^ static_cast<std::uint64_t>(scenario_id);
  h = h * kFnvPrime ^ static_cast<std::uint64_t>(attempt);
  return Rng(h);
}

std::string_view double_bytes(std::span<const double> v) {
  return {reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double)};
}

}  // namespace

const char* to_string(FaultClass fault) {
  switch (fault) {
    case FaultClass::None: return "none";
    case FaultClass::NodeDeath: return "node-death";
    case FaultClass::Straggler: return "straggler";
    case FaultClass::StorageFault: return "storage-fault";
    case FaultClass::PayloadCorruption: return "payload-corruption";
    case FaultClass::Numerics: return "numerics";
    case FaultClass::Hang: return "hang";
  }
  return "unknown";
}

const char* to_string(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::Ok: return "ok";
    case ScenarioStatus::Degraded: return "degraded";
    case ScenarioStatus::Quarantined: return "quarantined";
    case ScenarioStatus::Shed: return "shed";
  }
  return "unknown";
}

const char* to_string(Schedule schedule) {
  switch (schedule) {
    case Schedule::Fifo: return "fifo";
    case Schedule::Fair: return "fair";
  }
  return "unknown";
}

FaultClass injected_fault(std::uint64_t batch_seed, int scenario_id,
                          int attempt, const ChaosOptions& chaos) {
  Rng rng = decision_stream(batch_seed, scenario_id, attempt, "svc-fault");
  const double u = rng.uniform();
  double edge = chaos.node_death;
  if (u < edge) return FaultClass::NodeDeath;
  edge += chaos.straggler;
  if (u < edge) return FaultClass::Straggler;
  edge += chaos.storage_fault;
  if (u < edge) return FaultClass::StorageFault;
  edge += chaos.payload_corruption;
  if (u < edge) return FaultClass::PayloadCorruption;
  edge += chaos.numerics;
  if (u < edge) return FaultClass::Numerics;
  edge += chaos.hang;
  if (u < edge) return FaultClass::Hang;
  return FaultClass::None;
}

double straggler_factor(std::uint64_t batch_seed, int scenario_id, int attempt,
                        const ChaosOptions& chaos) {
  Rng rng = decision_stream(batch_seed, scenario_id, attempt, "svc-straggler");
  return bounded_pareto(rng.uniform(), 1.0, chaos.straggler_cap,
                        chaos.straggler_alpha);
}

int death_hour(std::uint64_t batch_seed, int scenario_id, int attempt,
               int hours) {
  Rng rng = decision_stream(batch_seed, scenario_id, attempt, "svc-death");
  return static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(std::max(1, hours))));
}

int hang_hour(std::uint64_t batch_seed, int scenario_id, int attempt,
              int hours) {
  Rng rng = decision_stream(batch_seed, scenario_id, attempt, "svc-hang");
  return static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(std::max(1, hours))));
}

double backoff_ms(std::uint64_t batch_seed, int scenario_id, int attempt,
                  const BatchOptions& opts) {
  AIRSHED_REQUIRE(attempt >= 1, "backoff precedes a retry attempt");
  const double exp =
      opts.backoff_base_ms * std::ldexp(1.0, std::min(attempt - 1, 30));
  const double capped = std::min(exp, opts.backoff_cap_ms);
  Rng rng = decision_stream(batch_seed, scenario_id, attempt, "svc-backoff");
  return capped * (0.5 + 0.5 * rng.uniform());
}

std::uint64_t field_digest(const RunOutputs& outputs) {
  std::uint64_t h = fnv1a_bytes(double_bytes(outputs.conc.flat()));
  return fnv1a_bytes(double_bytes(outputs.pm.flat()), h);
}

std::vector<std::vector<std::size_t>> place_attempts(
    const std::vector<PlacementItem>& items, int workers) {
  AIRSHED_REQUIRE(workers >= 1, "place_attempts: workers must be >= 1");
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (items[a].cost != items[b].cost) return items[a].cost > items[b].cost;
    return items[a].scenario_id < items[b].scenario_id;
  });
  const std::size_t nb = static_cast<std::size_t>(workers);
  std::vector<std::vector<std::size_t>> buckets(nb);
  std::vector<double> load(nb, 0.0);
  for (std::size_t i : order) {
    std::size_t best = 0;
    for (std::size_t b = 1; b < nb; ++b) {
      if (load[b] < load[best] ||
          (load[b] == load[best] && buckets[b].size() < buckets[best].size())) {
        best = b;
      }
    }
    buckets[best].push_back(i);
    load[best] += items[i].cost;
  }
  return buckets;
}

void record_metrics(obs::MetricsRegistry& reg, const BatchReport& report) {
  const auto set = [&reg](const char* name, long long v, const char* help) {
    reg.counter(name, help).inc(v);
  };
  set("svc/scenarios", static_cast<long long>(report.results.size()),
      "scenarios in the batch");
  set("svc/completed", report.completed, "scenarios finished on the fine grid");
  set("svc/degraded", report.degraded,
      "scenarios downgraded to the coarse uniform grid");
  set("svc/quarantined", report.quarantined,
      "scenarios isolated after exhausting retries and degradation");
  set("svc/retries", report.retries, "attempts beyond each scenario's first");
  set("svc/infra_faults", report.infra_faults,
      "attempt failures classified as infrastructure");
  set("svc/scenario_faults", report.scenario_faults,
      "attempt failures classified as scenario-inherent");
  set("svc/breaker_trips", report.breaker_trips,
      "circuit-breaker open transitions");
  set("svc/rounds", report.rounds, "supervisor dispatch rounds");
  set("svc/shed", report.shed, "scenarios rejected by bounded admission");
  set("svc/watchdog_fires", report.watchdog_fires,
      "attempts reclaimed by the hung-scenario watchdog");
  set("svc/resumed", report.resumed ? 1 : 0,
      "1 when this run resumed a crashed batch from its journal");
  set("svc/replayed_commits", report.replayed_commits,
      "scenarios skipped on resume: journal commit verified by digest");
  set("svc/replayed_failures", report.replayed_failures,
      "failed attempts reconstructed from the journal on resume");
  set("svc/replay_quarantined", report.replay_quarantined,
      "committed artifacts found corrupt during resume verification");
  set("svc/reexecuted", report.reexecuted,
      "scenarios (re)executed after journal replay");
  set("svc/journal_torn_tail", report.journal_torn_tail ? 1 : 0,
      "1 when resume truncated a torn journal append");
  obs::Histogram& attempts = reg.histogram(
      "svc/attempts", {1.0, 2.0, 3.0, 4.0, 6.0, 8.0},
      "attempts per scenario (fine + degraded)");
  for (const ScenarioResult& r : report.results) {
    attempts.observe(static_cast<double>(r.attempts.size()));
  }

  // Throughput-engine counters (PR 9): input-base sharing, the frozen
  // batch rate table, warm-engine reuse, setup wall time and queue waits.
  set("svc/input_cache_hits", report.input_cache_hits,
      "shared dataset-base requests served from the input cache");
  set("svc/input_cache_misses", report.input_cache_misses,
      "distinct dataset bases built (input-cache misses)");
  set("svc/rate_cache_shared_hits", report.rate_cache_shared_hits,
      "rate lookups served by the frozen batch-scoped table");
  set("svc/engine_reuses", report.engine_reuses,
      "attempts that reused a warm resident engine");
  reg.gauge("svc/setup_s", "wall seconds in dataset build + solver setup")
      .set(report.setup_s);
  const double busy_max =
      report.worker_busy_s.empty()
          ? 0.0
          : *std::max_element(report.worker_busy_s.begin(),
                              report.worker_busy_s.end());
  reg.gauge("svc/worker_busy_max_s",
            "CPU seconds of the busiest worker running attempts")
      .set(busy_max);
  reg.gauge("svc/worker_imbalance", "busiest worker / mean worker busy time")
      .set(report.worker_imbalance());
  obs::Histogram& wait = reg.histogram(
      "svc/queue_wait_rounds", {0.0, 1.0, 2.0, 4.0, 8.0},
      "rounds each attempt waited after becoming dispatchable");
  for (const ScenarioResult& r : report.results) {
    for (const AttemptRecord& a : r.attempts) {
      wait.observe(static_cast<double>(a.wait_rounds));
    }
  }
}

double BatchReport::worker_imbalance() const {
  if (worker_busy_s.empty()) return 1.0;
  const double sum =
      std::accumulate(worker_busy_s.begin(), worker_busy_s.end(), 0.0);
  if (sum <= 0.0) return 1.0;
  const double mean = sum / static_cast<double>(worker_busy_s.size());
  return *std::max_element(worker_busy_s.begin(), worker_busy_s.end()) / mean;
}

obs::JsonWriter BatchReport::canonical_json() const {
  obs::JsonWriter j;
  j.begin_object();
  j.key("schema").value("airshed-batch-report-v3");
  j.key("batch_seed").value(static_cast<long long>(batch_seed));
  j.key("rounds").value(rounds);
  j.key("totals").begin_object();
  j.key("scenarios").value(results.size());
  j.key("completed").value(completed);
  j.key("degraded").value(degraded);
  j.key("quarantined").value(quarantined);
  j.key("shed").value(shed);
  j.key("retries").value(retries);
  j.key("infra_faults").value(infra_faults);
  j.key("scenario_faults").value(scenario_faults);
  j.key("breaker_trips").value(breaker_trips);
  j.key("watchdog_fires").value(watchdog_fires);
  j.end_object();
  j.key("resume").begin_object();
  j.key("resumed").value(resumed);
  j.key("replayed_commits").value(replayed_commits);
  j.key("replayed_failures").value(replayed_failures);
  j.key("replay_quarantined").value(replay_quarantined);
  j.key("reexecuted").value(reexecuted);
  j.key("journal_torn_tail").value(journal_torn_tail);
  j.end_object();
  // Deterministic throughput facts only: the schedule is an option and the
  // wait histogram follows from it. Sharing / resident counters stay out —
  // canonical bytes are invariant to share_inputs and resident.
  j.key("throughput").begin_object();
  j.key("schedule").value(to_string(schedule));
  j.key("queue_wait_rounds").begin_array();
  for (long long c : queue_wait_rounds) j.value(c);
  j.end_array();
  j.end_object();
  j.key("breaker_events").begin_array();
  for (const BreakerEvent& e : breaker_events) {
    j.begin_object();
    j.key("round").value(e.round);
    j.key("transition").value(e.transition);
    j.key("consecutive_infra").value(e.consecutive_infra);
    j.end_object();
  }
  j.end_array();
  j.key("scenarios").begin_array();
  for (const ScenarioResult& r : results) {
    j.begin_object();
    j.key("id").value(r.spec.id);
    j.key("name").value(r.spec.name);
    j.key("dataset").value(r.spec.dataset);
    j.key("hours").value(r.spec.hours);
    j.key("status").value(to_string(r.status));
    j.key("checksum").value(r.checksum);
    j.key("archive_file").value(r.archive_file);
    j.key("quarantine_reason").value(r.quarantine_reason);
    j.key("attempts").begin_array();
    for (const AttemptRecord& a : r.attempts) {
      j.begin_object();
      j.key("attempt").value(a.attempt);
      j.key("round").value(a.round);
      j.key("wait_rounds").value(a.wait_rounds);
      j.key("fault").value(to_string(a.injected));
      j.key("degraded_run").value(a.degraded_run);
      j.key("ok").value(a.ok);
      j.key("infra").value(a.infra);
      j.key("watchdog").value(a.watchdog);
      j.key("slowdown").value(a.slowdown);
      j.key("backoff_ms").value(a.backoff_ms);
      j.key("error").value(a.error);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j;
}

namespace {

/// Per-scenario mutable state. Outcome fields are written only by the one
/// pool thread executing this scenario's attempt in the current round and
/// read serially after the barrier.
struct Slot {
  ScenarioSpec spec;
  int attempt = 0;             ///< next attempt number
  bool degrade_mode = false;   ///< next attempt runs the coarse grid
  /// Round since which the next attempt has been dispatchable (queue-wait
  /// accounting; reset by the serial decision pass).
  int ready_round = 0;
  std::optional<Dataset> clean_ds;  ///< cached fine-grid inputs
  ScenarioResult result;

  // Outcome of the attempt just executed.
  FaultClass fault = FaultClass::None;
  bool ok = false;
  bool infra = false;
  bool watchdog = false;
  double slowdown = 1.0;
  std::string error;
  std::uint64_t checksum = 0;
  std::vector<HourlyStats> hourly;
  std::string archive_file;
  double setup_s = 0.0;        ///< dataset build + solver setup wall seconds
  long long shared_hits = 0;   ///< frozen-table rate lookups this attempt
};

enum class BreakerState { Closed, Open, HalfOpen };

/// Flips one seeded bit of an encoded container (in-flight payload
/// corruption; the read-back validation must reject it).
void corrupt_bytes(std::string& bytes, std::uint64_t batch_seed,
                   int scenario_id, int attempt) {
  if (bytes.empty()) return;
  Rng rng = decision_stream(batch_seed, scenario_id, attempt, "svc-corrupt");
  const std::size_t pos =
      static_cast<std::size_t>(rng.uniform_index(bytes.size()));
  bytes[pos] = static_cast<char>(
      static_cast<unsigned char>(bytes[pos]) ^
      static_cast<unsigned char>(1u << rng.uniform_index(8)));
}

durable::StorageFaultKind storage_fault_kind(std::uint64_t batch_seed,
                                             int scenario_id, int attempt) {
  Rng rng = decision_stream(batch_seed, scenario_id, attempt, "svc-storage");
  switch (rng.uniform_index(3)) {
    case 0: return durable::StorageFaultKind::TornWrite;
    case 1: return durable::StorageFaultKind::BitFlip;
    default: return durable::StorageFaultKind::LostRename;
  }
}

}  // namespace

BatchSupervisor::BatchSupervisor(BatchOptions opts) : opts_(std::move(opts)) {
  AIRSHED_REQUIRE(opts_.max_attempts >= 1,
                  "BatchOptions::max_attempts must be >= 1");
  AIRSHED_REQUIRE(opts_.deadline_factor > 0.0,
                  "BatchOptions::deadline_factor must be > 0");
}

BatchReport BatchSupervisor::run(const std::vector<ScenarioSpec>& specs) {
  const BatchOptions& o = opts_;
  if (o.resume && o.journal_path.empty()) {
    throw ConfigError("BatchOptions::resume requires a journal_path");
  }
  std::optional<BatchArchive> archive;
  if (!o.archive_dir.empty()) archive.emplace(o.archive_dir);

  std::vector<Slot> slots(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    slots[i].spec = specs[i];
    slots[i].result.spec = specs[i];
  }

  BatchReport report;
  report.batch_seed = o.batch_seed;

  // Bounded admission, before any dispatch or journaling: keep the lowest
  // scenario ids up to the queue depth, shed the rest. Pure in the options
  // and spec list, so a resumed run re-derives the identical shed set — it
  // is deliberately never journaled.
  std::vector<char> done(slots.size(), 0);
  if (o.max_queue_depth > 0 &&
      slots.size() > static_cast<std::size_t>(o.max_queue_depth)) {
    std::vector<std::size_t> order(slots.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return slots[a].spec.id < slots[b].spec.id;
                     });
    for (std::size_t k = static_cast<std::size_t>(o.max_queue_depth);
         k < order.size(); ++k) {
      Slot& slot = slots[order[k]];
      slot.result.status = ScenarioStatus::Shed;
      slot.result.quarantine_reason =
          "shed: admission queue depth " + std::to_string(o.max_queue_depth) +
          " exceeded";
      ++report.shed;
      done[order[k]] = 1;
    }
  }

  // Write-ahead journal: fresh header, or replay + resume. Replay first
  // reconstructs every durably recorded decision, then verifies each
  // journaled commit against the artifact actually on disk — a commit
  // record is a claim, the digest check is the proof.
  std::optional<BatchJournal> journal;
  bool sealed_replay = false;
  int start_round = 0;
  if (!o.journal_path.empty()) {
    if (!o.resume) {
      BatchJournal::Replay prior = BatchJournal::replay(o.journal_path);
      if (prior.existed && !prior.sealed) {
        throw ConfigError("journal " + o.journal_path +
                          " holds an unsealed batch; resume it instead of "
                          "overwriting its history");
      }
      journal.emplace(o.journal_path, o, specs);
    } else {
      BatchJournal::Replay rep = BatchJournal::replay(o.journal_path);
      if (!rep.existed) {
        throw ConfigError("resume requested but journal " + o.journal_path +
                          " has no intact batch header");
      }
      if (rep.batch_seed != o.batch_seed ||
          rep.options_digest != BatchJournal::options_digest(o, specs)) {
        throw ConfigError(
            "resume refused: journal " + o.journal_path +
            " was written by a batch with different seed, options or "
            "scenarios");
      }
      report.resumed = true;
      report.journal_torn_tail = rep.torn_tail;
      sealed_replay = rep.sealed;

      std::unordered_map<int, std::size_t> by_id;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        by_id[slots[i].spec.id] = i;
      }
      std::vector<std::optional<BatchJournal::Record>> committed(slots.size());
      for (const BatchJournal::Record& rec : rep.records) {
        const auto it = by_id.find(rec.id);
        if (it == by_id.end()) continue;  // digest-matched: cannot happen
        start_round = std::max(start_round, rec.round + 1);
        Slot& slot = slots[it->second];
        if (rec.type == BatchJournal::RecordType::Start) continue;
        if (rec.type == BatchJournal::RecordType::Commit) {
          committed[it->second] = rec;
          continue;
        }
        // Failed: reconstruct the attempt and re-apply the recorded
        // decision, landing the scenario exactly where the ladder left it.
        AttemptRecord a;
        a.attempt = rec.attempt;
        a.round = rec.round;
        a.wait_rounds = rec.wait;
        a.injected = rec.fault;
        a.degraded_run = rec.degraded;
        a.ok = false;
        a.infra = rec.infra;
        a.watchdog = rec.watchdog;
        a.slowdown = rec.slowdown;
        a.backoff_ms = rec.backoff_ms;
        a.error = rec.error;
        slot.result.attempts.push_back(std::move(a));
        ++report.replayed_failures;
        if (rec.infra) {
          ++report.infra_faults;
        } else {
          ++report.scenario_faults;
        }
        if (rec.watchdog) ++report.watchdog_fires;
        switch (rec.decision) {
          case BatchJournal::FailDecision::Retry:
            slot.attempt = rec.attempt + 1;
            ++report.retries;
            break;
          case BatchJournal::FailDecision::Degrade:
            slot.attempt = rec.attempt + 1;
            slot.degrade_mode = true;
            ++report.retries;
            break;
          case BatchJournal::FailDecision::Quarantine:
            slot.result.status = ScenarioStatus::Quarantined;
            slot.result.quarantine_reason = rec.error;
            ++report.quarantined;
            done[it->second] = 1;
            break;
        }
      }
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!committed[i]) continue;
        const BatchJournal::Record& rec = *committed[i];
        Slot& slot = slots[i];
        bool good = true;
        if (archive && !rec.file.empty()) {
          const std::string path =
              (std::filesystem::path(o.archive_dir) / rec.file).string();
          try {
            good = BatchArchive::read_result(path).checksum == rec.checksum;
          } catch (const durable::StorageError&) {
            good = false;
          }
          if (!good) BatchArchive::quarantine(path);
        }
        if (good) {
          AttemptRecord a;
          a.attempt = rec.attempt;
          a.round = rec.round;
          a.wait_rounds = rec.wait;
          a.injected = rec.fault;
          a.degraded_run = rec.degraded;
          a.ok = true;
          a.slowdown = rec.slowdown;
          slot.result.attempts.push_back(std::move(a));
          slot.result.status = rec.degraded ? ScenarioStatus::Degraded
                                            : ScenarioStatus::Ok;
          slot.result.checksum = hash_hex(rec.checksum);
          slot.result.archive_file = rec.file;
          if (rec.degraded) {
            ++report.degraded;
          } else {
            ++report.completed;
          }
          ++report.replayed_commits;
          done[i] = 1;
        } else {
          // Committed but the artifact is damaged or gone: the evidence is
          // quarantined above; re-execute the committed attempt from
          // scratch (pure decisions rewrite byte-identical results).
          ++report.replay_quarantined;
          slot.attempt = rec.attempt;
          slot.degrade_mode = rec.degraded;
        }
      }
      // Scrub debris of the attempt that was in flight when the process
      // died: its side effects (an uncommitted artifact, or a quarantined
      // *.corrupt generation) may have landed before the Failed record
      // did. Re-execution rewrites them deterministically; left in place,
      // a repeated quarantine would shift to a numbered suffix and the
      // archive would no longer match an uninterrupted run byte for byte.
      // Commit-verified slots are excluded: their artifact is the record.
      if (archive) {
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (done[i] || committed[i]) continue;
          const std::string stale =
              archive->result_path(slots[i].spec.id, slots[i].attempt);
          std::filesystem::remove(stale);
          std::filesystem::remove(stale + ".corrupt");
          for (int n = 1;
               std::filesystem::remove(stale + ".corrupt." + std::to_string(n));
               ++n) {
          }
        }
      }
      journal.emplace(o.journal_path, rep);
    }
  }

  // Keep the canonical report independent of where the archive lives:
  // artifact references are relative to the archive dir, and error texts
  // (which embed paths via StorageError) have the dir replaced by a stable
  // token. Two runs of the same batch into different directories then
  // produce byte-identical reports.
  const auto sanitize = [&](std::string text) {
    if (o.archive_dir.empty()) return text;
    const std::string prefix = o.archive_dir + "/";
    std::size_t pos = 0;
    while ((pos = text.find(prefix, pos)) != std::string::npos) {
      text.replace(pos, prefix.size(), "<archive>/");
      pos += 10;
    }
    return text;
  };

  // Throughput engine (PR 9): one content-addressed cache of immutable
  // dataset bases for the whole batch, one frozen batch-scoped rate table
  // seeded by the first dispatched attempt (resident mode), and one warm
  // ResidentEngine per pool thread. Results are bit-identical with every
  // combination on or off; only wall time and the obs counters move.
  SharedInputCache input_cache;
  SharedRateTable rate_table;
  par::WorkerPool pool(o.threads);
  if (o.trace) pool.set_observer(o.trace);
  std::vector<ResidentEngine> engines(
      static_cast<std::size_t>(pool.threads()));

  // Executes one attempt of `slot` on pool thread `t`, catching everything:
  // a scenario failure must never escape into the pool (which would rethrow
  // it after the barrier and abort the batch). `warm` marks the batch's
  // rate-table seeding attempt (resident mode, pre-freeze).
  const auto run_attempt = [&](Slot& slot, int t, bool warm) {
    const int id = slot.spec.id;
    const int attempt = slot.attempt;
    obs::ObsSpan span(o.trace, t, "scenario attempt", PhaseCategory::Recovery,
                      attempt, id);

    slot.ok = false;
    slot.infra = false;
    slot.watchdog = false;
    slot.error.clear();
    slot.archive_file.clear();
    slot.slowdown = 1.0;
    slot.setup_s = 0.0;
    slot.shared_hits = 0;
    // Degrade attempts run chaos-free: the fallback must not inherit the
    // failure modes it exists to escape.
    slot.fault = slot.degrade_mode
                     ? FaultClass::None
                     : injected_fault(o.batch_seed, id, attempt, o.chaos);

    if (attempt > 0 && o.backoff_scale > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          o.backoff_scale * backoff_ms(o.batch_seed, id, attempt, o)));
    }

    try {
      ModelOptions mo;
      mo.hours = slot.spec.hours;
      mo.host_threads = 1;  // scenario-level parallelism only: no nested pools
      HostProfile attempt_prof;
      mo.profile = &attempt_prof;
      if (o.resident) {
        mo.engine = &engines[static_cast<std::size_t>(t)];
        // The table is written only by the warm attempt and consulted only
        // once frozen (a pool barrier separates the two), so readers never
        // race the writer.
        mo.shared_rates = rate_table.frozen() ? &rate_table : nullptr;
        mo.capture_rates = warm && !rate_table.frozen() ? &rate_table : nullptr;
      }

      std::uint64_t digest = 0;
      std::vector<HourlyStats> hourly;
      std::string status;
      if (slot.degrade_mode) {
        const auto build_t0 = std::chrono::steady_clock::now();
        UniformDataset coarse =
            build_degraded_dataset(slot.spec, o.degrade_nx, o.degrade_ny);
        slot.setup_s += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - build_t0)
                            .count();
        ModelRunResult r = UniformAirshedModel(coarse, mo).run();
        digest = field_digest(r.outputs);
        hourly = std::move(r.outputs.hourly);
        status = "degraded";
      } else {
        const bool poison =
            slot.fault == FaultClass::Numerics ||
            std::find(o.chaos.poison_scenarios.begin(),
                      o.chaos.poison_scenarios.end(),
                      id) != o.chaos.poison_scenarios.end();
        SharedInputCache* cache = o.share_inputs ? &input_cache : nullptr;
        const Dataset* ds = nullptr;
        std::optional<Dataset> poisoned;
        const auto build_t0 = std::chrono::steady_clock::now();
        if (poison) {
          poisoned.emplace(build_scenario_dataset(slot.spec, true, cache));
          ds = &*poisoned;
        } else {
          if (!slot.clean_ds) {
            slot.clean_ds.emplace(
                build_scenario_dataset(slot.spec, false, cache));
          }
          ds = &*slot.clean_ds;
        }
        slot.setup_s += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - build_t0)
                            .count();

        if (slot.fault == FaultClass::Straggler) {
          slot.slowdown = straggler_factor(o.batch_seed, id, attempt, o.chaos);
        }
        const int death = slot.fault == FaultClass::NodeDeath
                              ? death_hour(o.batch_seed, id, attempt,
                                           slot.spec.hours)
                              : -1;
        const int hang = slot.fault == FaultClass::Hang
                             ? hang_hour(o.batch_seed, id, attempt,
                                         slot.spec.hours)
                             : -1;

        int hours_done = 0;
        const HourCallback hour_guard = [&](const HourlyStats&,
                                            const ConcentrationField&) {
          ++hours_done;
          if (death >= 0 && hours_done > death) {
            throw InfraError("node executing scenario " + std::to_string(id) +
                             " died after hour " + std::to_string(death));
          }
          if (hang >= 0 && hours_done > hang) {
            // The attempt stops completing hours here and sits on its
            // executor. With the watchdog armed it is reclaimed after the
            // virtual per-attempt budget; without it the hang surfaces as
            // a deadline blowout once the budget-free clock runs out.
            const double budget =
                o.watchdog_budget_factor * static_cast<double>(slot.spec.hours);
            if (o.watchdog_budget_factor > 0.0) {
              throw WatchdogError(
                  "scenario " + std::to_string(id) + " hung after hour " +
                  std::to_string(hang) + ": watchdog reclaimed it after " +
                  std::to_string(budget) + " virtual hours");
            }
            throw DeadlineError("scenario " + std::to_string(id) +
                                " hung after hour " + std::to_string(hang) +
                                " with no watchdog armed: deadline blown");
          }
          if (static_cast<double>(hours_done) * slot.slowdown >
              o.deadline_factor * static_cast<double>(slot.spec.hours)) {
            throw DeadlineError(
                "scenario " + std::to_string(id) + " missed its deadline: " +
                std::to_string(hours_done) + " h at slowdown " +
                std::to_string(slot.slowdown));
          }
        };

        ModelRunResult r = AirshedModel(*ds, mo).run(hour_guard);
        digest = field_digest(r.outputs);
        hourly = std::move(r.outputs.hourly);
        status = "ok";
      }
      // Harvest the attempt's engine-side counters (wall-clock only — the
      // canonical report never sees them).
      slot.setup_s += attempt_prof.setup_s;
      slot.shared_hits = attempt_prof.rate_cache_shared_hits;

      // Commit: encode the durable artifact, let the chaos plan attack it,
      // and accept the result only after read-back validation — a corrupt
      // artifact is an infrastructure fault, not a success.
      std::string bytes = BatchArchive::encode_result(slot.spec, status,
                                                      attempt, digest, hourly);
      if (slot.fault == FaultClass::PayloadCorruption) {
        corrupt_bytes(bytes, o.batch_seed, id, attempt);
      }
      if (archive) {
        const std::string path = archive->result_path(id, attempt);
        durable::atomic_write_file(path, bytes);
        if (slot.fault == FaultClass::StorageFault) {
          durable::inject_storage_fault(
              path, storage_fault_kind(o.batch_seed, id, attempt),
              o.batch_seed ^ static_cast<std::uint64_t>(id));
        }
        try {
          (void)BatchArchive::read_result(path);
        } catch (const durable::StorageError&) {
          BatchArchive::quarantine(path);
          throw;
        }
        slot.archive_file = path;
      } else {
        // No archive directory: validate the in-memory encoding so the
        // payload/storage fault classes still bite identically.
        if (slot.fault == FaultClass::StorageFault) {
          corrupt_bytes(bytes, o.batch_seed, id, attempt);
        }
        (void)durable::ContainerReader::parse(bytes, "<memory>",
                                              BatchArchive::kResultFormat);
      }

      slot.checksum = digest;
      slot.hourly = std::move(hourly);
      slot.ok = true;
    } catch (const durable::StorageError& e) {
      slot.infra = true;
      slot.error = sanitize(e.what());
    } catch (const WatchdogError& e) {
      slot.infra = true;
      slot.watchdog = true;
      slot.error = e.what();
    } catch (const InfraError& e) {  // includes DeadlineError
      slot.infra = true;
      slot.error = e.what();
    } catch (const std::exception& e) {
      // NumericsError, NumericalError, ConfigError, anything else: the
      // scenario itself is at fault.
      slot.infra = false;
      slot.error = e.what();
    }
  };

  std::vector<std::size_t> pending;
  pending.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }
  if (report.resumed) report.reexecuted = static_cast<int>(pending.size());
  report.rounds = start_round;
  for (std::size_t i : pending) slots[i].ready_round = start_round;

  // A deterministic work proxy per scenario — requested hours x grid size,
  // both known before any build — feeds worker placement on every
  // schedule: the dataset's target mesh points for a fine attempt, the
  // coarse grid's cells for a degrade attempt. A dataset that fails to
  // resolve gets no fine-grid work; its attempt reports the error itself.
  // The fair schedule also needs a group per distinct dataset name,
  // numbered by first appearance in spec order so the interleave is
  // input-order-stable.
  std::vector<double> expected_work(slots.size(), 0.0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const ScenarioSpec& s = slots[i].spec;
    try {
      expected_work[i] = static_cast<double>(s.hours) *
                         static_cast<double>(scenario_target_points(s));
    } catch (const ConfigError&) {
    }
  }
  const double degraded_cells =
      static_cast<double>(o.degrade_nx) * static_cast<double>(o.degrade_ny);
  const auto attempt_work = [&](std::size_t idx) {
    const Slot& s = slots[idx];
    return s.degrade_mode ? static_cast<double>(s.spec.hours) * degraded_cells
                          : expected_work[idx];
  };
  std::vector<std::size_t> ds_group(slots.size(), 0);
  std::size_t n_groups = 0;
  if (o.schedule == Schedule::Fair) {
    std::vector<std::string> group_names;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::string& dataset = slots[i].spec.dataset;
      const auto it =
          std::find(group_names.begin(), group_names.end(), dataset);
      ds_group[i] = static_cast<std::size_t>(it - group_names.begin());
      if (it == group_names.end()) group_names.push_back(dataset);
    }
    n_groups = group_names.size();
  }

  // Dispatch order for one round. Fifo preserves pending (scenario-id)
  // order; Fair sorts by (expected work, id) — shortest first — then
  // round-robins across dataset groups so one dataset's long scenarios
  // cannot starve another's. Pure in (specs, schedule): identical at any
  // thread count, and only observable when max_in_flight (or a breaker
  // probe) truncates the round.
  const auto dispatch_order =
      [&](const std::vector<std::size_t>& pend) -> std::vector<std::size_t> {
    if (o.schedule == Schedule::Fifo) return pend;
    std::vector<std::size_t> by_work = pend;
    std::stable_sort(by_work.begin(), by_work.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (expected_work[a] != expected_work[b]) {
                         return expected_work[a] < expected_work[b];
                       }
                       return slots[a].spec.id < slots[b].spec.id;
                     });
    std::vector<std::vector<std::size_t>> buckets(n_groups);
    for (std::size_t idx : by_work) buckets[ds_group[idx]].push_back(idx);
    std::vector<std::size_t> order;
    order.reserve(pend.size());
    for (std::size_t pos = 0; order.size() < pend.size(); ++pos) {
      for (const std::vector<std::size_t>& b : buckets) {
        if (pos < b.size()) order.push_back(b[pos]);
      }
    }
    return order;
  };

  BreakerState breaker = BreakerState::Closed;
  int consecutive_infra = 0;
  int cooldown = 0;

  const auto breaker_event = [&](const char* transition, int round) {
    report.breaker_events.push_back(
        BreakerEvent{round, transition, consecutive_infra});
    obs::ObsSpan span(o.trace, 0, "svc breaker", PhaseCategory::Recovery,
                      round);
  };

  while (!pending.empty()) {
    const int round = report.rounds++;

    // Dispatch set for this round, by breaker state. Half-open probes with
    // the schedule's front-of-queue attempt.
    const std::vector<std::size_t> order = dispatch_order(pending);
    std::vector<std::size_t> runnable;
    if (breaker == BreakerState::Open) {
      if (--cooldown > 0) continue;  // burn a cooldown round, dispatch nothing
      breaker = BreakerState::HalfOpen;
      breaker_event("half-open", round);
      runnable.push_back(order.front());
    } else if (breaker == BreakerState::HalfOpen) {
      runnable.push_back(order.front());
    } else {
      runnable = order;
      // In-flight cap: dispatch the schedule's head, queue the rest for
      // the next round. A throttle only — it reshapes rounds, not outcomes.
      if (o.max_in_flight > 0 &&
          runnable.size() > static_cast<std::size_t>(o.max_in_flight)) {
        runnable.resize(static_cast<std::size_t>(o.max_in_flight));
      }
    }

    // Start records land (fsync'd) before any attempt byte executes: after
    // a crash, replay knows exactly which scenarios may have uncommitted
    // artifacts in the archive. Appended serially in scenario-id order so
    // the journal bytes are thread-count-invariant (and schedule-stable
    // within a round).
    if (journal) {
      std::vector<std::size_t> started = runnable;
      std::sort(started.begin(), started.end());
      for (std::size_t idx : started) {
        journal->start(slots[idx].spec.id, slots[idx].attempt, round,
                       slots[idx].degrade_mode);
      }
    }

    // Worker placement: longest expected work first onto the least-loaded
    // worker, bucket t on pool thread t. Pure in (runnable set, threads),
    // and outcomes never depend on the thread an attempt ran on.
    std::vector<PlacementItem> items;
    items.reserve(runnable.size());
    for (std::size_t idx : runnable) {
      items.push_back({slots[idx].spec.id, attempt_work(idx)});
    }
    const std::vector<std::vector<std::size_t>> buckets =
        place_attempts(items, pool.threads());
    // Resident warm round: exactly one attempt — the schedule's head — gets
    // the capture handle; the table freezes behind this round's barrier, so
    // every later round reads an immutable table.
    const bool warm_round = o.resident && !rate_table.frozen();
    pool.set_phase("svc attempt", PhaseCategory::Recovery, round);
    pool.for_blocks(buckets.size(),
                    [&](int t, std::size_t begin, std::size_t end) {
                      for (std::size_t b = begin; b < end; ++b) {
                        for (std::size_t k : buckets[b]) {
                          run_attempt(slots[runnable[k]], t,
                                      warm_round && k == 0);
                        }
                      }
                    });
    if (warm_round) rate_table.freeze();

    // Serial decision pass in scenario-id order: breaker accounting and
    // retry / degrade / quarantine transitions are execution-order-free.
    std::vector<std::size_t> still_pending;
    const bool probing = breaker == BreakerState::HalfOpen;
    for (std::size_t idx : pending) {
      Slot& slot = slots[idx];
      const bool ran =
          std::find(runnable.begin(), runnable.end(), idx) != runnable.end();
      if (!ran) {
        still_pending.push_back(idx);
        continue;
      }

      AttemptRecord rec;
      rec.attempt = slot.attempt;
      rec.round = round;
      rec.wait_rounds = round - slot.ready_round;
      rec.injected = slot.fault;
      rec.degraded_run = slot.degrade_mode;
      rec.ok = slot.ok;
      rec.infra = !slot.ok && slot.infra;
      rec.watchdog = !slot.ok && slot.watchdog;
      rec.slowdown = slot.slowdown;
      rec.error = slot.error;
      report.setup_s += slot.setup_s;
      report.rate_cache_shared_hits += slot.shared_hits;
      if (rec.watchdog) ++report.watchdog_fires;
      BatchJournal::FailDecision jdecision =
          BatchJournal::FailDecision::Quarantine;

      if (slot.ok) {
        consecutive_infra = 0;
        slot.result.status = slot.degrade_mode ? ScenarioStatus::Degraded
                                               : ScenarioStatus::Ok;
        slot.result.checksum = hash_hex(slot.checksum);
        slot.result.archive_file =
            slot.archive_file.empty()
                ? std::string()
                : std::filesystem::path(slot.archive_file).filename().string();
        if (slot.degrade_mode) {
          ++report.degraded;
        } else {
          ++report.completed;
        }
        if (journal) {
          // The artifact is durable and read-back-validated; only now does
          // the commit record make it replay-trustworthy.
          BatchJournal::Record jr;
          jr.id = slot.spec.id;
          jr.attempt = rec.attempt;
          jr.round = round;
          jr.degraded = slot.degrade_mode;
          jr.fault = slot.fault;
          jr.slowdown = slot.slowdown;
          jr.wait = rec.wait_rounds;
          jr.checksum = slot.checksum;
          jr.file = slot.result.archive_file;
          journal->commit(jr);
        }
      } else {
        if (rec.infra) {
          ++report.infra_faults;
          ++consecutive_infra;
        } else {
          ++report.scenario_faults;
          consecutive_infra = 0;
        }

        if (slot.degrade_mode) {
          // The chaos-free fallback failed too: isolate the scenario.
          slot.result.status = ScenarioStatus::Quarantined;
          slot.result.quarantine_reason = slot.error;
          ++report.quarantined;
          obs::ObsSpan span(o.trace, 0, "svc quarantine",
                            PhaseCategory::Recovery, round, slot.spec.id);
        } else if (slot.attempt + 1 < o.max_attempts) {
          rec.backoff_ms =
              backoff_ms(o.batch_seed, slot.spec.id, slot.attempt + 1, o);
          ++slot.attempt;
          slot.ready_round = round + 1;
          ++report.retries;
          still_pending.push_back(idx);
          jdecision = BatchJournal::FailDecision::Retry;
          obs::ObsSpan span(o.trace, 0, "svc retry", PhaseCategory::Recovery,
                            round, slot.spec.id);
        } else if (o.degrade) {
          slot.degrade_mode = true;
          ++slot.attempt;
          slot.ready_round = round + 1;
          ++report.retries;
          still_pending.push_back(idx);
          jdecision = BatchJournal::FailDecision::Degrade;
          obs::ObsSpan span(o.trace, 0, "svc degrade", PhaseCategory::Recovery,
                            round, slot.spec.id);
        } else {
          slot.result.status = ScenarioStatus::Quarantined;
          slot.result.quarantine_reason = slot.error;
          ++report.quarantined;
          obs::ObsSpan span(o.trace, 0, "svc quarantine",
                            PhaseCategory::Recovery, round, slot.spec.id);
        }
        if (journal) {
          // Failed record lands before the decision's side effect (the
          // next-round retry / degrade run), so a crash between them only
          // ever re-executes work, never forgets a decision.
          BatchJournal::Record jr;
          jr.id = slot.spec.id;
          jr.attempt = rec.attempt;
          jr.round = round;
          jr.degraded = rec.degraded_run;
          jr.fault = rec.injected;
          jr.slowdown = slot.slowdown;
          jr.wait = rec.wait_rounds;
          jr.infra = rec.infra;
          jr.watchdog = rec.watchdog;
          jr.error = rec.error;
          jr.decision = jdecision;
          jr.backoff_ms = rec.backoff_ms;
          journal->failed(jr);
        }
      }
      const bool attempt_infra = rec.infra;
      slot.result.attempts.push_back(std::move(rec));

      if (probing) {
        // Half-open verdict comes from the probe attempt alone.
        if (attempt_infra) {
          breaker = BreakerState::Open;
          cooldown = std::max(1, o.breaker_cooldown_rounds);
          breaker_event("reopen", round);
        } else {
          breaker = BreakerState::Closed;
          breaker_event("close", round);
        }
      } else if (breaker == BreakerState::Closed && o.breaker_threshold > 0 &&
                 consecutive_infra >= o.breaker_threshold) {
        breaker = BreakerState::Open;
        cooldown = std::max(1, o.breaker_cooldown_rounds);
        ++report.breaker_trips;
        breaker_event("open", round);
      }
    }
    pending = std::move(still_pending);
  }

  report.schedule = o.schedule;
  report.input_cache_hits = input_cache.hits();
  report.input_cache_misses = input_cache.misses();
  for (const ResidentEngine& e : engines) report.engine_reuses += e.reuses();
  report.worker_busy_s = pool.busy_seconds();

  report.results.reserve(slots.size());
  for (Slot& slot : slots) report.results.push_back(std::move(slot.result));

  // Queue-wait histogram over every attempt in the final report (replayed
  // ones included, via the journal's wait field): deterministic given the
  // options, so it belongs in the canonical report.
  for (const ScenarioResult& r : report.results) {
    for (const AttemptRecord& a : r.attempts) {
      const std::size_t bucket =
          std::min(static_cast<std::size_t>(std::max(a.wait_rounds, 0)),
                   report.queue_wait_rounds.size() - 1);
      ++report.queue_wait_rounds[bucket];
    }
  }

  if (archive) {
    std::vector<BatchArchive::ManifestEntry> entries;
    entries.reserve(report.results.size());
    for (const ScenarioResult& r : report.results) {
      BatchArchive::ManifestEntry e;
      e.id = r.spec.id;
      e.status = to_string(r.status);
      const bool committed = r.status == ScenarioStatus::Ok ||
                             r.status == ScenarioStatus::Degraded;
      e.attempt = committed && !r.attempts.empty()
                      ? r.attempts.back().attempt
                      : -1;
      e.checksum = 0;
      if (committed && !r.checksum.empty()) {
        e.checksum = std::strtoull(r.checksum.c_str(), nullptr, 16);
      }
      if (!r.archive_file.empty()) {
        e.file = std::filesystem::path(r.archive_file).filename().string();
      }
      entries.push_back(std::move(e));
    }
    archive->write_manifest(o.batch_seed, entries);
  }

  // Seal only after the manifest landed: an unsealed journal is the
  // durable signal that a crash interrupted the batch.
  if (journal && !sealed_replay) {
    journal->seal(report.completed, report.degraded, report.quarantined,
                  report.shed);
  }

  if (o.metrics) record_metrics(*o.metrics, report);
  return report;
}

}  // namespace airshed::svc
