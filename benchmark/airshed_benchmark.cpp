// airshed_benchmark — runs one benchmark workload through the public API.
//
//   airshed_benchmark --workload <name> [--seed N] [--threads N]
//                     [--work-dir DIR] [--trace-dir DIR] [--smoke]
//                     [--setup-only]
//
// Each process is one operation of a closed loop with one client: one model
// run, or one batch of scenarios submitted together. The process starts
// cold, as an airshed_cli invocation does; benchmark/run.py launches the
// next process when this one has ended. The set-up (dataset, city or
// job-mix construction plus model or supervisor construction) is timed on
// the calling thread before the operation. --setup-only stops after it.
//
// --seed only generates inputs (emission knobs, city salts, the job mix);
// the library sees nothing but those inputs.
//
// With --trace-dir the operation runs with the library's recorders
// (ModelOptions::trace, BatchOptions::trace, HostProfile) and
// benchmark-side spans attached. Its Chrome trace goes to
// DIR/<workload>.trace.json and its per-layer numbers to "layers".
//
// stdout carries exactly one JSON document: the timings, the outputs the
// correctness gate needs, and provenance. benchmark/run.py checks and
// reduces it.
#include <sys/resource.h>

#include <airshed/airshed.h>
#include <airshed/util/rng.hpp>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#ifndef AIRSHED_BENCH_BUILD_TYPE
#define AIRSHED_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace airshed;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this program. VmHWM restarts at exec, unlike
/// ru_maxrss, which keeps the launching process's peak.
long long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<long long>(ru.ru_maxrss);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Input { LA, NE, LAUniform, City, Batch };

struct Workload {
  const char* name;
  Input input;
  int hours;  ///< simulated hours per model run (batch: per-scenario mix)
};

// Why each exists is recorded in benchmark/README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"la_day", Input::LA, 24},
    {"ne_morning", Input::NE, 6},
    {"la_uniform", Input::LAUniform, 6},
    {"city_core", Input::City, 4},
    {"batch_mix", Input::Batch, 0},
};

// The most core-concentrated generated city; the seed only salts its roads
// and diurnal profile, which leaves the dataset base (mesh) unchanged.
constexpr const char* kCityBase = "city:seed=2";
constexpr int kBatchScenarios = 32;
constexpr int kSmokeBatchScenarios = 4;
// The batch's episode lengths (heavy-tailed in [2, 8] h, 119 model-hours)
// always come from this seed's job mix, so every --seed submits the same
// work and only the emission knobs and perturbations change.
constexpr std::uint64_t kHoursProfileSeed = 1998;

/// Per-group emission knobs drawn in [0.8, 1.2]; the mesh does not change.
ControlScenario seeded_controls(std::uint64_t seed) {
  Rng rng(seed);
  ControlScenario c;
  c.nox_scale = rng.uniform(0.8, 1.2);
  c.voc_scale = rng.uniform(0.8, 1.2);
  c.co_scale = rng.uniform(0.8, 1.2);
  c.so2_scale = rng.uniform(0.8, 1.2);
  c.nh3_scale = rng.uniform(0.8, 1.2);
  return c;
}

std::vector<svc::ScenarioSpec> batch_specs(std::uint64_t seed, int scenarios) {
  svc::JobMixOptions mix;
  mix.scenarios = scenarios;
  std::vector<svc::ScenarioSpec> specs = svc::make_job_mix(seed, mix);
  const std::vector<svc::ScenarioSpec> profile =
      svc::make_job_mix(kHoursProfileSeed, mix);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].hours = profile[i].hours;
  }
  return specs;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1998;
  int threads = 0;
  std::string work_dir = "build-bench/work";
  std::string trace_dir;
  bool smoke = false;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.threads = std::min(4, par::hardware_threads());
  std::string name;
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* f) {
      return std::strcmp(argv[i], f) == 0 && i + 1 < argc;
    };
    if (flag("--workload")) {
      name = argv[++i];
    } else if (flag("--seed")) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag("--threads")) {
      a.threads = std::atoi(argv[++i]);
    } else if (flag("--work-dir")) {
      a.work_dir = argv[++i];
    } else if (flag("--trace-dir")) {
      a.trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      a.smoke = true;
    } else if (std::strcmp(argv[i], "--setup-only") == 0) {
      a.setup_only = true;
    } else {
      throw ConfigError(std::string("unknown flag or missing value: ") +
                        argv[i]);
    }
  }
  for (const Workload& w : kWorkloads) {
    if (name == w.name) a.workload = &w;
  }
  if (!a.workload) throw ConfigError("unknown workload: '" + name + "'");
  if (a.threads < 1) throw ConfigError("--threads must be >= 1");
  return a;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

void write_hourly(obs::JsonWriter& j, const std::vector<HourlyStats>& hourly) {
  j.begin_array();
  for (const HourlyStats& h : hourly) {
    j.begin_array()
        .value(h.hour)
        .value(h.mean_surface_o3_ppm)
        .value(h.mean_surface_no2_ppm)
        .value(h.mean_surface_co_ppm)
        .value(h.max_surface_o3_ppm)
        .end_array();
  }
  j.end_array();
}

bool finite_nonnegative(const RunOutputs& out) {
  const auto ok = [](std::span<const double> v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x) && x >= 0.0; });
  };
  return ok(out.conc.flat()) && ok(out.pm.flat());
}

// ---------------------------------------------------------------------------
// Span accounting
// ---------------------------------------------------------------------------

struct SpanStats {
  long long count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct SpanSummary {
  std::map<std::string, SpanStats> by_name;  ///< every lane
  std::vector<double> hour_s;                ///< "bench hour" durations
  double in_hour_self_s = 0.0;  ///< self time of spans nested in an hour
  /// Per lane: summed "scenario attempt" spans (the batch's worker busy).
  std::vector<double> attempt_busy_s;
};

/// A span's self time is its duration minus the part its child spans
/// cover. Spans nest per lane (each lane is one thread), so a stack over
/// (start asc, end desc) order recovers the tree.
SpanSummary summarize_spans(const obs::TraceSession& recorded) {
  SpanSummary out;
  out.attempt_busy_s.assign(static_cast<std::size_t>(recorded.host_threads),
                            0.0);
  std::map<int, std::vector<const obs::CompletedSpan*>> lanes;
  for (const obs::CompletedSpan& s : recorded.host) {
    lanes[s.thread].push_back(&s);
  }
  for (auto& [thread, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->end_ns > b->end_ns;
    });
    const std::size_t n = spans.size();
    std::vector<double> covered(n, 0.0);
    std::vector<bool> in_hour(n, false);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < n; ++i) {
      const obs::CompletedSpan& s = *spans[i];
      while (!stack.empty() && spans[stack.back()]->end_ns < s.end_ns) {
        stack.pop_back();
      }
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (!stack.empty()) {
        const std::size_t parent = stack.back();
        covered[parent] += dur;
        in_hour[i] = in_hour[parent] || spans[parent]->name == "bench hour";
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const obs::CompletedSpan& s = *spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      SpanStats& st = out.by_name[s.name];
      ++st.count;
      st.total_s += dur;
      st.self_s += dur - covered[i];
      if (s.name == "bench hour") out.hour_s.push_back(dur);
      if (in_hour[i]) out.in_hour_self_s += dur - covered[i];
      if (s.name == "scenario attempt" && thread >= 0 &&
          thread < recorded.host_threads) {
        out.attempt_busy_s[static_cast<std::size_t>(thread)] += dur;
      }
    }
  }
  return out;
}

/// Benchmark-side span on lane 0 (the calling thread, which is also the
/// library pools' thread 0). PhaseCategory has no umbrella category, so the
/// benchmark's own spans are filed under IoProcessing.
void record_span(obs::TraceRecorder& rec, const char* name, std::uint64_t start,
                 std::uint64_t end, int hour = -1, int node = -1) {
  rec.record(0, obs::SpanEvent{.name = name,
                               .category = PhaseCategory::IoProcessing,
                               .hour = hour,
                               .node = node,
                               .start_ns = start,
                               .end_ns = end});
}

/// HourCallback emitting one "bench hour" span per simulated hour (from the
/// previous hour's end, or the run's start, to the callback).
struct HourSpans {
  obs::TraceRecorder* rec;
  int node;
  std::uint64_t last_ns;
  int hour = 0;

  void operator()(const HourlyStats&, const ConcentrationField&) {
    const std::uint64_t now = rec->now_ns();
    record_span(*rec, "bench hour", last_ns, now, hour++, node);
    last_ns = now;
  }
};

using Layers = std::map<std::string, double>;

/// Per-layer numbers of one traced model run (model layers only).
void model_layers(Layers& L, const SpanSummary& sp, const HostProfile& prof,
                  const ModelRunResult& run, int hours, double dataset_build_s,
                  double model_build_s) {
  const auto span = [&](const char* name) {
    const auto it = sp.by_name.find(name);
    return it == sp.by_name.end() ? SpanStats{} : it->second;
  };
  const double steps = static_cast<double>(run.trace.total_steps());
  const double cell_steps = static_cast<double>(run.trace.points) *
                            static_cast<double>(run.trace.layers) * steps;
  const double substeps = static_cast<double>(prof.chem_substeps);
  const double lookups = static_cast<double>(
      prof.rate_cache_hits + prof.rate_cache_shared_hits + prof.rate_evals);
  std::vector<double> hour_s = sp.hour_s;
  L["core.hours"] = hours;
  L["core.steps"] = steps;
  L["core.hour_s_p50"] = median(hour_s);
  L["core.hour_s_max"] =
      hour_s.empty() ? 0.0 : *std::max_element(hour_s.begin(), hour_s.end());
  L["core.model_build_s"] = model_build_s;
  L["core.unattributed_s"] = span("bench hour").self_s;
  L["io.dataset_build_s"] = dataset_build_s;
  L["io.inputhour_s"] = span("inputhour").total_s;
  L["transport.lxy_s"] = prof.transport_s;
  L["transport.busy_s"] = span("transport layer").total_s;
  L["transport.calls"] = static_cast<double>(span("transport layer").count);
  L["chem.lcz_s"] = prof.chemistry_s;
  L["chem.busy_s"] = span("chem block").total_s;
  L["chem.blocks"] = static_cast<double>(span("chem block").count);
  L["chem.substeps"] = substeps;
  L["chem.substeps_per_cell_step"] = cell_steps > 0 ? substeps / cell_steps : 0;
  L["chem.ns_per_substep"] =
      substeps > 0 ? span("chem block").total_s * 1e9 / substeps : 0.0;
  L["chem.rate_evals"] = static_cast<double>(prof.rate_evals);
  L["chem.rate_hit_ratio"] =
      lookups > 0 ? 1.0 - static_cast<double>(prof.rate_evals) / lookups : 0.0;
  L["chem.block_rounds"] = static_cast<double>(prof.block_rounds);
  L["chem.lane_occupancy"] =
      prof.lane_evals_dense > 0 ? static_cast<double>(prof.lane_evals_live) /
                                      static_cast<double>(prof.lane_evals_dense)
                                : 0.0;
  L["aerosol.busy_s"] = prof.aerosol_s;
}

/// Worker-pool numbers from per-thread busy seconds over a timed section.
void par_layers(Layers& L, const std::vector<double>& busy, double phase_wall_s,
                double wall_s, double cpu_s) {
  double sum = 0.0, mx = 0.0;
  for (double b : busy) {
    sum += b;
    mx = std::max(mx, b);
  }
  const double threads = static_cast<double>(busy.size());
  const double mean = threads > 0 ? sum / threads : 0.0;
  L["par.threads"] = threads;
  L["par.busy_max_s"] = mx;
  L["par.busy_mean_s"] = mean;
  L["par.imbalance"] = mean > 0 ? mx / mean : 0.0;
  L["par.barrier_wait_s"] = threads * phase_wall_s - sum;
  L["par.efficiency"] = wall_s > 0 ? sum / (threads * wall_s) : 0.0;
  L["par.cpu_s"] = cpu_s;
}

// ---------------------------------------------------------------------------
// Durable layer sizing: the archive and journal calls the supervisor makes,
// repeated on finished results in a scratch directory (inside the batch
// they run within scenario attempts, where no span separates them).
// ---------------------------------------------------------------------------

void durable_layers(Layers& L, obs::TraceRecorder& rec,
                    const std::vector<svc::BatchArchive::StoredResult>& results,
                    const svc::BatchOptions& opts, const std::string& dir) {
  const std::uint64_t span_start = rec.now_ns();
  fs::remove_all(dir);
  const svc::BatchArchive archive(dir);
  std::vector<svc::ScenarioSpec> specs;
  double encode_s = 0.0, write_s = 0.0, read_s = 0.0;
  long long bytes = 0;
  std::vector<std::string> paths;
  for (const svc::BatchArchive::StoredResult& r : results) {
    specs.push_back(r.spec);
    auto t0 = Clock::now();
    bytes += static_cast<long long>(
        svc::BatchArchive::encode_result(r.spec, r.status, r.attempt,
                                         r.checksum, r.hourly)
            .size());
    encode_s += seconds_since(t0);
    t0 = Clock::now();
    paths.push_back(archive.write_result(r.spec, r.status, r.attempt,
                                         r.checksum, r.hourly));
    write_s += seconds_since(t0);
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto t0 = Clock::now();
    const svc::BatchArchive::StoredResult back =
        svc::BatchArchive::read_result(paths[i]);
    read_s += seconds_since(t0);
    AIRSHED_REQUIRE(back.checksum == results[i].checksum,
                    "durable sizing: read-back checksum mismatch");
  }

  const std::string journal_path = dir + "/bench.journal";
  auto t0 = Clock::now();
  std::uint64_t records = 0;
  {
    svc::BatchJournal journal(journal_path, opts, specs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      journal.start(results[i].spec.id, 0, 0, false);
      svc::BatchJournal::Record c;
      c.id = results[i].spec.id;
      c.checksum = results[i].checksum;
      c.file = fs::path(paths[i]).filename().string();
      journal.commit(c);
    }
    journal.seal(static_cast<int>(results.size()), 0, 0, 0);
    records = journal.appended();
  }
  const double append_s = seconds_since(t0);
  t0 = Clock::now();
  const svc::BatchJournal::Replay replay =
      svc::BatchJournal::replay(journal_path);
  const double replay_s = seconds_since(t0);
  AIRSHED_REQUIRE(replay.sealed,
                  "durable sizing: journal did not replay sealed");
  record_span(rec, "bench durable", span_start, rec.now_ns());

  L["durable.encode_s"] = encode_s;
  L["durable.write_s"] = write_s;
  L["durable.read_verify_s"] = read_s;
  L["durable.journal_append_s"] = append_s;
  L["durable.journal_replay_s"] = replay_s;
  L["durable.journal_records"] = static_cast<double>(records);
  L["durable.archive_bytes"] = static_cast<double>(bytes);
}

void write_trace_outputs(obs::JsonWriter& j, const Args& a,
                         const obs::TraceSession& recorded,
                         const SpanSummary& sp, Layers& L) {
  L["obs.host_spans"] = static_cast<double>(recorded.host.size());
  L["obs.dropped_spans"] = static_cast<double>(recorded.dropped);
  fs::create_directories(a.trace_dir);
  obs::write_chrome_trace(
      a.trace_dir + "/" + a.workload->name + ".trace.json", recorded);

  j.key("layers").begin_object();
  for (const auto& [name, v] : L) j.key(name).value(v);
  j.end_object();
  j.key("spans").begin_object();
  for (const auto& [name, st] : sp.by_name) {
    j.key(name).begin_object();
    j.key("count").value(st.count);
    j.key("total_s").value(st.total_s);
    j.key("self_s").value(st.self_s);
    j.end_object();
  }
  j.end_object();
  double hours_total = 0.0;
  for (double h : sp.hour_s) hours_total += h;
  j.key("closure").begin_object();
  j.key("bench_hour_s").value(hours_total);
  j.key("unattributed_s").value(L["core.unattributed_s"]);
  j.key("phase_self_s").value(sp.in_hour_self_s);
  j.end_object();
}

/// The timings every operation reports.
void write_timings(obs::JsonWriter& j, int hours, int scenarios_per_op,
                   double wall_s) {
  j.key("hours").value(hours);
  j.key("scenarios_per_op").value(scenarios_per_op);
  j.key("wall_s").value(wall_s);
  j.key("peak_rss_kb").value(peak_rss_kb());
}

// ---------------------------------------------------------------------------
// Model workloads
// ---------------------------------------------------------------------------

/// One set-up model: a dataset plus the model bound to it. Never copied or
/// moved — the model keeps a pointer to the dataset.
struct ModelSetup {
  ModelSetup() = default;
  ModelSetup(const ModelSetup&) = delete;
  ModelSetup& operator=(const ModelSetup&) = delete;

  std::optional<Dataset> ds;
  std::optional<UniformDataset> uds;
  std::optional<AirshedModel> model;
  std::optional<UniformAirshedModel> umodel;
  double dataset_build_s = 0.0;
  double model_build_s = 0.0;

  ModelRunResult run(const HourCallback& on_hour) {
    return umodel ? umodel->run(on_hour) : model->run(on_hour);
  }
};

std::unique_ptr<ModelSetup> set_up_model(const Workload& w, std::uint64_t seed,
                                         const ModelOptions& opts) {
  auto s = std::make_unique<ModelSetup>();
  auto t0 = Clock::now();
  const ControlScenario controls = seeded_controls(seed);
  switch (w.input) {
    case Input::LA:
      s->ds.emplace(build_dataset(la_basin_spec(controls)));
      break;
    case Input::NE:
      s->ds.emplace(build_dataset(northeast_spec(controls)));
      break;
    case Input::LAUniform:
      s->uds.emplace(la_uniform_dataset(controls));
      break;
    case Input::City: {
      city::CityOptions o = city::parse_city_spec(kCityBase);
      o.road_salt = seed;
      o.diurnal_salt = seed;
      s->ds.emplace(build_dataset(city::city_dataset_spec(o)));
      break;
    }
    case Input::Batch:
      throw ConfigError("batch_mix is not a single model run");
  }
  s->dataset_build_s = seconds_since(t0);
  t0 = Clock::now();
  if (s->uds) {
    s->umodel.emplace(*s->uds, opts);
  } else {
    s->model.emplace(*s->ds, opts);
  }
  s->model_build_s = seconds_since(t0);
  return s;
}

void run_model_workload(const Args& a, obs::JsonWriter& j) {
  const Workload& w = *a.workload;
  const bool traced = !a.trace_dir.empty();
  ModelOptions opts;
  opts.hours = a.smoke ? 1 : w.hours;
  opts.host_threads = a.threads;
  std::optional<obs::TraceRecorder> rec;
  HostProfile prof;
  if (traced) {
    rec.emplace(a.threads);
    opts.trace = &*rec;
    opts.profile = &prof;
  }
  const auto now = [&] { return rec ? rec->now_ns() : 0; };

  std::uint64_t t = now();
  auto t0 = Clock::now();
  const std::unique_ptr<ModelSetup> setup = set_up_model(w, a.seed, opts);
  j.key("setup_s").value(seconds_since(t0));
  if (a.setup_only) return;
  if (rec) record_span(*rec, "bench setup", t, now());

  t = now();
  HourCallback on_hour;
  if (rec) on_hour = HourSpans{&*rec, -1, t};
  const double cpu0 = cpu_seconds();
  t0 = Clock::now();
  const ModelRunResult r = setup->run(on_hour);
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  write_timings(j, opts.hours, 1, wall);

  if (rec) {
    record_span(*rec, "bench run", t, now());
    const obs::TraceSession recorded = rec->drain();
    const SpanSummary sp = summarize_spans(recorded);
    Layers L;
    model_layers(L, sp, prof, r, opts.hours, setup->dataset_build_s,
                 setup->model_build_s);
    L["core.scenario_setup_s"] = setup->dataset_build_s + prof.setup_s;
    par_layers(L, prof.thread_busy_s, prof.transport_s + prof.chemistry_s,
               wall, cpu);
    // A model run does no batch work: its svc and durable layers are empty.
    for (const char* k :
         {"svc.rounds", "svc.attempts", "svc.input_cache_hits",
          "svc.input_cache_misses", "svc.engine_reuses", "durable.encode_s",
          "durable.write_s", "durable.read_verify_s",
          "durable.journal_append_s", "durable.journal_replay_s",
          "durable.journal_records", "durable.archive_bytes"}) {
      L[k] = 0.0;
    }
    write_trace_outputs(j, a, recorded, sp, L);
  }

  j.key("outputs").begin_object();
  j.key("digest").value(hash_hex(svc::field_digest(r.outputs)));
  j.key("finite_nonneg").value(finite_nonnegative(r.outputs));
  j.key("hourly");
  write_hourly(j, r.outputs.hourly);
  j.end_object();
}

// ---------------------------------------------------------------------------
// Batch workload
// ---------------------------------------------------------------------------

/// Read-back of one finished batch: every scenario must be Ok, every
/// artifact must validate with the reported checksum, and the journal must
/// replay sealed.
struct BatchCheck {
  int failed = 0;
  bool sealed = false;
  std::string digest;
  std::vector<svc::BatchArchive::StoredResult> stored;
  std::vector<bool> readback;
};

BatchCheck check_batch(const svc::BatchReport& report,
                       const svc::BatchOptions& opts) {
  BatchCheck c;
  std::uint64_t digest = kFnvOffset;
  for (const svc::ScenarioResult& r : report.results) {
    bool ok = r.status == svc::ScenarioStatus::Ok && !r.archive_file.empty();
    svc::BatchArchive::StoredResult stored;
    stored.spec = r.spec;
    if (ok) {
      try {
        stored = svc::BatchArchive::read_result(opts.archive_dir + "/" +
                                                r.archive_file);
        ok = hash_hex(stored.checksum) == r.checksum;
      } catch (const Error&) {
        ok = false;
      }
    }
    digest = fnv1a(stored.checksum, digest);
    c.failed += ok ? 0 : 1;
    c.readback.push_back(ok);
    c.stored.push_back(std::move(stored));
  }
  c.digest = hash_hex(digest);
  try {
    c.sealed = svc::BatchJournal::replay(opts.journal_path).sealed;
  } catch (const Error&) {
    c.sealed = false;
  }
  return c;
}

void run_batch_workload(const Args& a, obs::JsonWriter& j) {
  const bool traced = !a.trace_dir.empty();
  const int scenarios = a.smoke ? kSmokeBatchScenarios : kBatchScenarios;
  svc::BatchOptions opts;
  opts.batch_seed = a.seed;
  opts.threads = a.threads;
  const std::string dir = a.work_dir + "/batch";
  opts.archive_dir = dir + "/archive";
  opts.journal_path = dir + "/batch.journal";
  std::optional<obs::TraceRecorder> rec;
  svc::BatchOptions run_opts = opts;
  if (traced) {
    rec.emplace(a.threads);
    run_opts.trace = &*rec;
  }
  const auto now = [&] { return rec ? rec->now_ns() : 0; };

  std::uint64_t t = now();
  auto t0 = Clock::now();
  const std::vector<svc::ScenarioSpec> specs = batch_specs(a.seed, scenarios);
  svc::BatchSupervisor supervisor(run_opts);
  j.key("setup_s").value(seconds_since(t0));
  if (a.setup_only) return;
  if (rec) record_span(*rec, "bench setup", t, now());

  // A batch refuses to start over a previous batch's journal.
  fs::remove_all(dir);
  fs::create_directories(dir);
  t = now();
  const double cpu0 = cpu_seconds();
  t0 = Clock::now();
  const svc::BatchReport report = supervisor.run(specs);
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  int model_hours = 0;
  for (const svc::ScenarioSpec& s : specs) model_hours += s.hours;
  write_timings(j, model_hours, scenarios, wall);
  const BatchCheck check = check_batch(report, opts);

  if (rec) {
    record_span(*rec, "bench batch", t, now());
    Layers L;
    durable_layers(L, *rec, check.stored, opts, a.work_dir + "/durable");

    // Supervised attempts are opaque to the model recorder, so the model
    // layers come from a traced run of the batch's longest scenario under
    // the supervisor's pinning (host_threads = 1).
    const svc::ScenarioSpec& longest = *std::max_element(
        specs.begin(), specs.end(),
        [](const auto& x, const auto& y) { return x.hours < y.hours; });
    t = now();
    auto b0 = Clock::now();
    const Dataset ds = svc::build_scenario_dataset(longest);
    const double dataset_build_s = seconds_since(b0);
    HostProfile prof;
    ModelOptions mo;
    mo.hours = longest.hours;
    mo.host_threads = 1;
    mo.trace = &*rec;
    mo.profile = &prof;
    b0 = Clock::now();
    AirshedModel probe(ds, mo);
    const double model_build_s = seconds_since(b0);
    record_span(*rec, "bench setup", t, now(), -1, longest.id);
    t = now();
    const ModelRunResult r = probe.run(HourSpans{&*rec, longest.id, t});
    record_span(*rec, "bench run", t, now(), -1, longest.id);

    const obs::TraceSession recorded = rec->drain();
    const SpanSummary sp = summarize_spans(recorded);
    model_layers(L, sp, prof, r, longest.hours, dataset_build_s, model_build_s);
    L["core.scenario_setup_s"] = report.setup_s;
    par_layers(L, sp.attempt_busy_s, wall, wall, cpu);
    long long attempts = 0;
    for (const svc::ScenarioResult& res : report.results) {
      attempts += static_cast<long long>(res.attempts.size());
    }
    L["svc.rounds"] = report.rounds;
    L["svc.attempts"] = static_cast<double>(attempts);
    L["svc.input_cache_hits"] = static_cast<double>(report.input_cache_hits);
    L["svc.input_cache_misses"] =
        static_cast<double>(report.input_cache_misses);
    L["svc.engine_reuses"] = static_cast<double>(report.engine_reuses);
    write_trace_outputs(j, a, recorded, sp, L);
  }

  j.key("outputs").begin_object();
  j.key("digest").value(check.digest);
  j.key("failed").value(check.failed);
  j.key("journal_sealed").value(check.sealed);
  j.key("scenarios").begin_array();
  for (std::size_t i = 0; i < check.stored.size(); ++i) {
    const svc::BatchArchive::StoredResult& s = check.stored[i];
    j.begin_object();
    j.key("id").value(s.spec.id);
    j.key("hours").value(s.spec.hours);
    j.key("readback").value(static_cast<bool>(check.readback[i]));
    j.key("checksum").value(hash_hex(s.checksum));
    j.key("hourly");
    write_hourly(j, s.hourly);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    obs::JsonWriter j;
    j.begin_object();
    j.key("workload").value(a.workload->name);
    j.key("seed").value(static_cast<long long>(a.seed));
    j.key("threads").value(a.threads);
    j.key("smoke").value(a.smoke);
    j.key("build_type").value(AIRSHED_BENCH_BUILD_TYPE);
#ifdef __VERSION__
    j.key("compiler").value(__VERSION__);
#endif
    if (a.workload->input == Input::Batch) {
      run_batch_workload(a, j);
    } else {
      run_model_workload(a, j);
    }
    j.end_object();
    std::printf("%s\n", j.str().c_str());
    return 0;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
