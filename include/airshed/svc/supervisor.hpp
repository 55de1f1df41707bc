// airshed::svc — resilient multi-scenario batch supervisor.
//
// Runs a seeded job queue of scenario simulations concurrently over the
// worker pool, fault-first: a scenario that throws, produces non-finite
// fields, or hits a corrupt artifact is isolated — retried with seeded
// exponential backoff, degraded to the coarse uniform grid, or quarantined
// — and NEVER aborts the batch. Repeated *infrastructure* faults (storage
// errors, node deaths, deadline blowouts — as opposed to scenario faults
// like bad numerics) trip a circuit breaker that pauses dispatch for a
// cooldown, then probes with a single scenario before reopening the gates
// (the ParalleX-style reschedule-instead-of-abort discipline,
// arXiv:1109.5201).
//
// Determinism contract: execution is round-structured. Each round runs one
// attempt for every dispatchable scenario under a pool barrier, placed on
// workers longest-expected-first (place_attempts: it moves wall clock
// only); retry / degrade / quarantine / breaker decisions are then taken
// serially in scenario-id order. Every injected fault, backoff jitter,
// straggler factor and death hour is pure in (batch_seed, scenario_id,
// attempt) —
// so the batch report (BatchReport::canonical_json) is bit-identical at
// every thread count, including which scenarios were degraded or
// quarantined and when the breaker tripped.
//
// Crash-resume contract (PR 8): with BatchOptions::journal_path set, every
// supervision step is written ahead to a durable record journal
// (svc/journal.hpp) and fsync'd before the side effect it covers. SIGKILL
// the supervisor at ANY instant, then rerun with resume = true: committed
// scenarios are verified by digest and skipped (exactly-once — never
// re-executed), corrupt artifacts are quarantined and re-run, in-flight
// attempts re-execute under the same pure decisions, and the final archive
// + manifest are byte-identical to an uninterrupted run at any thread
// count. Two resident-service guards ride on the journal: a hung-scenario
// watchdog (virtual per-attempt budget -> WatchdogError, an infrastructure
// fault the breaker sees) and bounded admission (queue-depth shed +
// per-round in-flight cap, both deterministic and recorded in the report).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "airshed/core/model.hpp"
#include "airshed/obs/json.hpp"
#include "airshed/obs/metrics.hpp"
#include "airshed/obs/trace.hpp"
#include "airshed/svc/archive.hpp"
#include "airshed/svc/scenario.hpp"
#include "airshed/util/error.hpp"

namespace airshed::svc {

/// Infrastructure failure (node death, resource loss): the work was fine,
/// the machinery failed. Feeds the circuit breaker; retried with backoff.
class InfraError : public Error {
 public:
  explicit InfraError(const std::string& what) : Error(what) {}
};

/// A scenario exceeded its virtual-time deadline (straggler detection).
/// Classified as an infrastructure fault: stragglers are a property of the
/// machine, not of the scenario's inputs.
class DeadlineError : public InfraError {
 public:
  explicit DeadlineError(const std::string& what) : InfraError(what) {}
};

/// The hung-scenario watchdog fired: an attempt stopped making progress
/// (no hour completed) and sat on its executor until the per-attempt
/// virtual budget ran out. Distinct from DeadlineError — a straggler is
/// slow but advancing; a hang advances never — and, like it, classified
/// as infrastructure: hangs come from the machinery, not the inputs. The
/// burned budget is charged to the attempt in the journal.
class WatchdogError : public InfraError {
 public:
  explicit WatchdogError(const std::string& what) : InfraError(what) {}
};

/// The fault class injected into one (scenario, attempt) execution.
enum class FaultClass {
  None,
  NodeDeath,          ///< the executing node dies mid-run (infra)
  Straggler,          ///< bounded-Pareto slowdown; may blow the deadline (infra)
  StorageFault,       ///< archive write corrupted on disk (infra)
  PayloadCorruption,  ///< result payload corrupted in flight (infra)
  Numerics,           ///< poisoned inputs -> non-finite fields (scenario)
  Hang,               ///< the attempt stalls forever; watchdog fires (infra)
};

const char* to_string(FaultClass fault);

/// Per-attempt fault-injection probabilities. Draws are mutually exclusive
/// (one uniform per attempt walks the cumulative distribution) and pure in
/// (batch_seed, scenario_id, attempt).
struct ChaosOptions {
  double node_death = 0.0;
  double straggler = 0.0;
  double storage_fault = 0.0;
  double payload_corruption = 0.0;
  double numerics = 0.0;
  /// The attempt hangs (stops completing hours) at a seeded hour; only the
  /// hung-scenario watchdog can reclaim the executor.
  double hang = 0.0;
  /// Straggler slowdown distribution: bounded Pareto on [1, cap], tail
  /// index alpha (the FaultPlan straggler model).
  double straggler_alpha = 1.5;
  double straggler_cap = 8.0;
  /// Scenarios whose fine-grid inputs are poisoned on EVERY attempt (a
  /// persistent NaN stack emission): retries cannot save them, so they
  /// exercise the degrade -> quarantine ladder end to end.
  std::vector<int> poison_scenarios;

  bool any() const {
    return node_death > 0 || straggler > 0 || storage_fault > 0 ||
           payload_corruption > 0 || numerics > 0 || hang > 0 ||
           !poison_scenarios.empty();
  }
};

/// Dispatch-order policy for the per-round runnable set. Only observable
/// when max_in_flight caps a round: every runnable scenario still runs
/// every round otherwise, and outcomes are schedule-independent either
/// way (decisions stay pure per scenario). The schedule decides WHICH
/// attempts a round runs; which worker runs each is place_attempts' job.
enum class Schedule {
  /// Dispatch in scenario-id order (the historical policy).
  Fifo,
  /// Deterministic fair share: round-robin across datasets (so one huge
  /// dataset cannot starve the others' scenarios), shortest expected work
  /// first within a dataset (hours x target grid points), ids as the tie
  /// break. Pure in the spec list — no load feedback, no wall clock.
  Fair,
};

const char* to_string(Schedule schedule);

struct BatchOptions {
  std::uint64_t batch_seed = 42;
  /// Worker-pool size for scenario-level parallelism (0 = AIRSHED_THREADS
  /// or hardware). Scenario model runs are pinned to host_threads = 1, so
  /// this is the only parallelism knob.
  int threads = 0;
  /// Fine-grid attempts per scenario before degradation / quarantine.
  int max_attempts = 3;
  /// Seeded exponential backoff between fine-grid attempts:
  /// min(cap, base * 2^(attempt-1)) * jitter, jitter uniform in [0.5, 1).
  double backoff_base_ms = 100.0;
  double backoff_cap_ms = 5000.0;
  /// Fraction of the computed backoff actually slept (0 = record only —
  /// the default, so tests and benches never wait on wall clock).
  double backoff_scale = 0.0;
  /// Virtual-time deadline: an attempt is aborted when
  /// completed_hours * slowdown exceeds deadline_factor * scenario hours.
  double deadline_factor = 2.0;
  /// Breaker trips after this many consecutive infra faults (scenario-id
  /// order across rounds); <= 0 disables the breaker.
  int breaker_threshold = 4;
  /// Rounds the breaker stays open before half-open probing.
  int breaker_cooldown_rounds = 2;
  /// Rerun exhausted scenarios on the coarse uniform grid (tagged
  /// "degraded") instead of quarantining outright.
  bool degrade = true;
  std::size_t degrade_nx = 8;
  std::size_t degrade_ny = 8;
  /// Hung-scenario watchdog: an attempt that stops completing hours is
  /// reclaimed after `watchdog_budget_factor * scenario hours` of virtual
  /// time with a typed WatchdogError (infrastructure fault). <= 0 disables
  /// the watchdog; a hang then surfaces as a deadline blowout instead.
  double watchdog_budget_factor = 4.0;
  /// Bounded admission: at most this many scenarios are admitted into the
  /// batch queue; the rest are shed deterministically (highest scenario
  /// ids first — the keep-lowest-id policy) and reported with status Shed.
  /// 0 = unbounded.
  int max_queue_depth = 0;
  /// At most this many scenarios dispatch per round (in-flight cap,
  /// lowest pending ids first). 0 = unbounded. Purely a throttle: it
  /// changes round structure, never outcomes.
  int max_in_flight = 0;
  /// Dispatch-order policy under the in-flight cap (see Schedule).
  Schedule schedule = Schedule::Fifo;
  /// Share immutable dataset bases (mesh + meteorology + layers) across
  /// scenarios through a content-addressed SharedInputCache: scenarios
  /// differing only in emission controls build the base once. Results are
  /// bit-identical with sharing on or off (the base build is pure in the
  /// spec); off rebuilds every base per scenario (the historical cost).
  bool share_inputs = true;
  /// Resident-engine mode: workers keep warm per-thread solver instances
  /// across attempts (core ResidentEngine) and consult a batch-scoped
  /// frozen rate-constant table seeded by the first attempt of the batch
  /// (chem SharedRateTable). Results are bit-identical on or off.
  bool resident = false;
  ChaosOptions chaos;
  /// Durable archive directory; empty = no on-disk archive (payload /
  /// storage chaos is then simulated on the in-memory encoding).
  std::string archive_dir;
  /// Write-ahead batch journal file; empty = no journal (and no resume).
  /// With a journal, every supervision step is fsync'd before the side
  /// effect it covers, so the batch survives SIGKILL at any instant.
  std::string journal_path;
  /// Replay `journal_path`, verify committed artifacts by digest, skip the
  /// verified work and re-execute only in-flight/missing scenarios. The
  /// final archive + manifest are byte-identical to an uninterrupted run.
  /// Throws ConfigError when the journal is missing or belongs to a batch
  /// with a different (options, specs) digest.
  bool resume = false;
  /// Optional host-span recorder. Needs at least as many lanes as the
  /// resolved thread count. Purely observational.
  obs::TraceRecorder* trace = nullptr;
  /// Optional metrics sink: retry/degrade/quarantine/breaker counters
  /// (see record_metrics) are published here after the run.
  obs::MetricsRegistry* metrics = nullptr;
};

enum class ScenarioStatus { Ok, Degraded, Quarantined, Shed };

const char* to_string(ScenarioStatus status);

/// One executed attempt of one scenario.
struct AttemptRecord {
  int attempt = 0;      ///< 0-based; degrade attempts keep counting
  int round = 0;        ///< supervisor round that ran it
  /// Rounds this attempt waited in the queue after becoming dispatchable
  /// (0 = ran the round it became ready; >0 only under max_in_flight or
  /// an open breaker). Deterministic given the options.
  int wait_rounds = 0;
  FaultClass injected = FaultClass::None;
  bool degraded_run = false;  ///< coarse-grid fallback attempt
  bool ok = false;
  bool infra = false;   ///< failure classified as infrastructure
  bool watchdog = false;  ///< the hung-scenario watchdog reclaimed it
  double slowdown = 1.0;
  /// Backoff scheduled before the NEXT attempt (0 when terminal).
  double backoff_ms = 0.0;
  std::string error;    ///< exception text ("" on success)
};

struct ScenarioResult {
  ScenarioSpec spec;
  ScenarioStatus status = ScenarioStatus::Quarantined;
  std::vector<AttemptRecord> attempts;
  /// FNV-1a field digest (hex) of the committed result ("" if quarantined).
  std::string checksum;
  std::string archive_file;       ///< committed artifact ("" without archive)
  std::string quarantine_reason;  ///< last error ("" unless quarantined)

  int retries() const {
    return attempts.empty() ? 0 : static_cast<int>(attempts.size()) - 1;
  }
};

/// One circuit-breaker state transition.
struct BreakerEvent {
  int round = 0;
  std::string transition;  ///< "open" | "half-open" | "close" | "reopen"
  int consecutive_infra = 0;
};

struct BatchReport {
  std::uint64_t batch_seed = 0;
  int rounds = 0;
  int completed = 0;    ///< status Ok
  int degraded = 0;
  int quarantined = 0;
  int shed = 0;         ///< rejected by bounded admission (status Shed)
  int retries = 0;      ///< attempts beyond the first, summed
  int infra_faults = 0;
  int scenario_faults = 0;
  int breaker_trips = 0;
  int watchdog_fires = 0;  ///< attempts reclaimed by the hung watchdog
  // Crash-resume accounting (all zero for a fresh run).
  bool resumed = false;
  int replayed_commits = 0;    ///< scenarios skipped: journal commit verified
  int replayed_failures = 0;   ///< failed attempts reconstructed from journal
  int replay_quarantined = 0;  ///< committed artifacts found corrupt, re-run
  int reexecuted = 0;          ///< scenarios (re)executed after the replay
  bool journal_torn_tail = false;  ///< resume truncated a torn append

  // Throughput accounting. `schedule` and the queue-wait histogram are
  // deterministic given (batch_seed, specs, options) and go into
  // canonical_json; the sharing/engine counters and setup seconds below
  // them depend on share_inputs / resident / wall clock and are reported
  // ONLY here and through record_metrics — canonical_json stays
  // byte-identical with sharing and residency on or off.
  Schedule schedule = Schedule::Fifo;
  /// Histogram of AttemptRecord::wait_rounds over all executed attempts,
  /// bucket i = attempts that waited exactly i rounds (last bucket: >=).
  std::vector<long long> queue_wait_rounds{0, 0, 0, 0, 0};

  long long input_cache_hits = 0;    ///< shared-base requests served warm
  long long input_cache_misses = 0;  ///< distinct bases built
  long long rate_cache_shared_hits = 0;  ///< frozen-table rate lookups
  long long engine_reuses = 0;  ///< attempts that reused a warm engine
  double setup_s = 0.0;  ///< wall seconds in dataset build + solver setup
  /// CPU seconds each pool worker spent running attempts (index = pool
  /// thread). Depends on the thread count and the machine, so it stays
  /// out of canonical_json like the counters above.
  std::vector<double> worker_busy_s;

  /// Busiest worker over the mean worker (>= 1; 1 when nothing ran).
  double worker_imbalance() const;

  std::vector<ScenarioResult> results;  ///< scenario-id order
  std::vector<BreakerEvent> breaker_events;

  /// Thread-count-invariant JSON ("airshed-batch-report-v3"): everything
  /// above except the sharing/engine counters (see the field comments),
  /// no wall-clock and no thread count — byte-identical for the same
  /// (batch_seed, specs, options) at 1, 2 or N threads, with input
  /// sharing and resident engines on or off.
  obs::JsonWriter canonical_json() const;
};

// ---------------------------------------------------------------------------
// Pure decision functions (exposed for tests: every one is a function of
// its arguments only).
// ---------------------------------------------------------------------------

/// Fault class injected into (scenario, attempt). One uniform draw walks
/// the cumulative class probabilities, so classes are mutually exclusive.
FaultClass injected_fault(std::uint64_t batch_seed, int scenario_id,
                          int attempt, const ChaosOptions& chaos);

/// Straggler slowdown factor >= 1 (bounded Pareto).
double straggler_factor(std::uint64_t batch_seed, int scenario_id, int attempt,
                        const ChaosOptions& chaos);

/// Hour after which a NodeDeath attempt dies, in [0, hours).
int death_hour(std::uint64_t batch_seed, int scenario_id, int attempt,
               int hours);

/// Hour after which a Hang attempt stops progressing, in [0, hours).
int hang_hour(std::uint64_t batch_seed, int scenario_id, int attempt,
              int hours);

/// Backoff before `attempt` (>= 1): exponential with seeded jitter.
double backoff_ms(std::uint64_t batch_seed, int scenario_id, int attempt,
                  const BatchOptions& opts);

/// Bit-exact digest over a run's final fields (conc then pm, raw bytes).
std::uint64_t field_digest(const RunOutputs& outputs);

/// One attempt of a round, as the worker placement sees it.
struct PlacementItem {
  int scenario_id = 0;
  /// Expected work: episode hours x grid size (the fine attempt's target
  /// mesh points, or the degraded grid's nx x ny cells).
  double cost = 0.0;
};

/// Longest-expected-first (LPT) placement of one round's attempts onto
/// `workers` fixed-ownership buckets: items are taken in (cost descending,
/// scenario id ascending) order and each goes to the bucket with the least
/// placed cost — ties to the bucket holding fewer items, then to the lowest
/// index, so zero-cost items still spread. Returns exactly `workers`
/// buckets of indices into `items`, each in placement order; with fewer
/// items than workers the trailing buckets are empty.
std::vector<std::vector<std::size_t>> place_attempts(
    const std::vector<PlacementItem>& items, int workers);

/// Publishes the report's counts into `reg` under the "svc/" namespace.
void record_metrics(obs::MetricsRegistry& reg, const BatchReport& report);

/// The supervisor. One instance runs one batch.
class BatchSupervisor {
 public:
  explicit BatchSupervisor(BatchOptions opts = {});

  const BatchOptions& options() const { return opts_; }

  /// Executes every scenario to a terminal status. Never throws for
  /// scenario-level failures (that is the point); throws only on
  /// supervisor-level misconfiguration (e.g. unwritable archive dir, a
  /// pre-existing unsealed journal without resume, or a resume against a
  /// journal whose (options, specs) digest does not match).
  BatchReport run(const std::vector<ScenarioSpec>& specs);

 private:
  BatchOptions opts_;
};

}  // namespace airshed::svc
