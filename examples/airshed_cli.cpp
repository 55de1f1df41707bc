// airshed_cli: command-line driver around the library.
//
//   airshed_cli run <dataset> [hours] [--archive file] [--trace file]
//       Run the physics, print hourly statistics, optionally archive the
//       hourly fields and/or save the work trace.
//   airshed_cli city <city:spec> [--run] [--hours N] [--archive file]
//       Generate a procedural city (airshed::city) from a seeded spec
//       string, print its canonical spec + summary (land use, roads,
//       traffic, refinement cores, stacks, dataset base digest), and
//       optionally run the physics on it. The printed canonical spec is
//       what you feed to `run`, `trace` or `batch` as the dataset.
//   airshed_cli simulate <trace> <machine> [--nodes a,b,c] [--task-parallel]
//       Replay a saved trace on a simulated machine.
//   airshed_cli series <archive>
//       Print the per-hour ozone series of a saved archive.
//   airshed_cli verify <file>
//       Validate a durable artifact end to end (framing, section CRCs,
//       footer digest) and print its layout. Exit 0 = intact, 1 = corrupt.
//   airshed_cli verify --dir <dir>
//       Validate every framed container under a batch output tree
//       (recursively, quarantined *.corrupt files skipped). Exit 0 when
//       all are intact, 1 naming the first corrupt artifact.
//   airshed_cli batch <dataset> [--scenarios N] [--seed S] [--threads N]
//                     [--max-attempts N] [--out dir] [--no-degrade]
//                     [--no-journal] [--watchdog-budget F] [--queue-depth N]
//                     [--max-in-flight N] [--no-share-inputs] [--resident]
//                     [--schedule fifo|fair] [--chaos-node-death P]
//                     [--chaos-straggler P] [--chaos-storage P]
//                     [--chaos-payload P] [--chaos-numerics P]
//                     [--chaos-hang P] [--poison id,id,...]
//       Run a seeded scenario batch under the resilient supervisor:
//       per-scenario isolation, retry/backoff, deadlines, circuit breaker,
//       coarse-grid degradation, hung-scenario watchdog, bounded admission.
//       Throughput engine: shared immutable inputs (on by default; opt out
//       with --no-share-inputs), warm resident solvers + batch rate table
//       (--resident), fair-share scheduling (--schedule fair). All three
//       are bit-identity-preserving; they are pinned in the journal header
//       so a resume refuses a mismatched configuration.
//       Writes <out>/archive/ (durable results + manifest), batch.journal
//       (crash-resume write-ahead log), batch_report.json and metrics.json.
//   airshed_cli batch --resume <dir> [--threads N]
//       Resume a crashed batch from <dir>/batch.journal: replay the
//       journal, verify committed artifacts by digest, re-execute only
//       unfinished scenarios. The final archive and manifest are
//       byte-identical to an uninterrupted run.
//   airshed_cli trace <dataset> [hours] [--machine m] [--nodes P]
//                     [--threads N] [--out dir]
//       Run the physics with the observability layer attached, simulate the
//       run on a machine, and write trace.json (Chrome trace-event JSON,
//       Perfetto-loadable), metrics.json (airshed-metrics-v1) and trace.obs
//       (durable container) into the output directory.
//
// Datasets: TEST, LA, NE, LA-uniform, or a procedural "city:..." spec
// (run / trace / batch / city). Machines: paragon, t3d, t3e.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <airshed/airshed.h>

namespace {

using namespace airshed;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  airshed_cli run <TEST|LA|NE|LA-uniform|city:...> [hours]"
               " [--archive file] [--trace file]\n"
               "  airshed_cli city <city:spec> [--run] [--hours N]"
               " [--archive file]\n"
               "  airshed_cli simulate <trace> <paragon|t3d|t3e>"
               " [--nodes a,b,c] [--task-parallel] [--cyclic]\n"
               "  airshed_cli series <archive>\n"
               "  airshed_cli verify <checkpoint|archive|trace|manifest>\n"
               "  airshed_cli verify --dir <batch-output-dir>\n"
               "  airshed_cli batch <TEST|LA|NE|city:...> [--scenarios N]"
               " [--seed S] [--threads N]\n"
               "               [--max-attempts N] [--out dir] [--no-degrade]"
               " [--poison id,...]\n"
               "               [--no-journal] [--watchdog-budget F]"
               " [--queue-depth N] [--max-in-flight N]\n"
               "               [--no-share-inputs] [--resident]"
               " [--schedule fifo|fair]\n"
               "               [--chaos-node-death|--chaos-straggler|"
               "--chaos-storage|\n"
               "                --chaos-payload|--chaos-numerics|"
               "--chaos-hang P]\n"
               "  airshed_cli batch --resume <batch-output-dir> [--threads N]\n"
               "  airshed_cli trace <TEST|LA|NE|LA-uniform|city:...> [hours]"
               " [--machine paragon|t3d|t3e]\n"
               "               [--nodes P] [--threads N] [--out dir]\n");
  return 2;
}

/// Named unknown-flag diagnosis: every subcommand funnels unrecognized
/// arguments here so the error says WHICH flag was wrong, not just "usage:".
/// (A value-taking flag at the end of the line lands here too — the flag is
/// recognized but its value is missing.)
int unknown_flag(const char* subcommand, const char* arg) {
  std::fprintf(stderr, "error: %s: unknown flag or missing value: %s\n",
               subcommand, arg);
  return usage();
}

/// Resolves a multiscale dataset name — a fixed paper dataset or a
/// procedural "city:..." spec — into a built Dataset. Throws ConfigError
/// (reported as "error: ..." by main) for anything else instead of silently
/// substituting TEST.
Dataset build_named_dataset(const std::string& name) {
  if (name == "TEST") return test_basin_dataset();
  if (name == "LA") return la_basin_dataset();
  if (name == "NE") return northeast_dataset();
  if (city::is_city_spec(name)) {
    return build_dataset(city::city_dataset_spec(city::parse_city_spec(name)));
  }
  throw ConfigError("unknown dataset: " + name +
                    " (expected TEST, LA, NE, LA-uniform or city:...)");
}

std::vector<int> parse_nodes(const std::string& arg) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int cmd_run(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string name = argv[0];
  int hours = 6;
  std::string archive_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--archive") == 0 && i + 1 < argc) {
      archive_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return unknown_flag("run", argv[i]);
    } else {
      hours = std::atoi(argv[i]);
      if (hours < 1) return usage();
    }
  }

  ModelOptions opts;
  opts.hours = hours;
  ModelRunResult run;
  std::unique_ptr<RunArchive> archive;
  const HourCallback on_hour = [&](const HourlyStats& st,
                                   const ConcentrationField& conc) {
    std::printf("hour %02d: max O3 %.4f ppm at (%.0f, %.0f), mean O3 %.4f, "
                "mean NO2 %.5f\n",
                st.hour, st.max_surface_o3_ppm, st.max_o3_location.x,
                st.max_o3_location.y, st.mean_surface_o3_ppm,
                st.mean_surface_no2_ppm);
    if (archive) archive->append(st, conc);
  };

  if (name == "LA-uniform") {
    UniformDataset ds = la_uniform_dataset();
    std::printf("running %s: %zu cells, %d layers, %d hours\n",
                ds.name.c_str(), ds.points(), ds.layers, hours);
    if (!archive_path.empty()) {
      archive = std::make_unique<RunArchive>(ds.name, kSpeciesCount,
                                             ds.layers, ds.points());
    }
    run = UniformAirshedModel(ds, opts).run(on_hour);
  } else {
    Dataset ds = build_named_dataset(name);
    std::printf("running %s: %zu points, %d layers, %d hours\n",
                ds.name().c_str(), ds.points(), ds.layers(), hours);
    if (!archive_path.empty()) {
      archive = std::make_unique<RunArchive>(ds.name(), kSpeciesCount,
                                             ds.layers(), ds.points());
    }
    run = AirshedModel(ds, opts).run(on_hour);
  }

  if (archive) {
    archive->save(archive_path);
    std::printf("archived %zu hours to %s\n", archive->hour_count(),
                archive_path.c_str());
  }
  if (!trace_path.empty()) {
    run.trace.save(trace_path);
    std::printf("work trace saved to %s\n", trace_path.c_str());
  }
  return 0;
}

int cmd_city(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string spec_arg = argv[0];
  bool run_physics = false;
  int hours = 6;
  std::string archive_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--run") == 0) {
      run_physics = true;
    } else if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      hours = std::atoi(argv[++i]);
      if (hours < 1) return usage();
    } else if (std::strcmp(argv[i], "--archive") == 0 && i + 1 < argc) {
      archive_path = argv[++i];
      run_physics = true;
    } else {
      return unknown_flag("city", argv[i]);
    }
  }

  const city::CityOptions options = city::parse_city_spec(spec_arg);
  const city::CityModel model = city::generate_city(options);
  const city::CitySummary s = city::summarize(model);
  const DatasetSpec spec = city::city_dataset_spec(options);

  const auto pct = [&](std::size_t n) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(s.blocks);
  };
  std::printf("city %s\n", options.resolved_name().c_str());
  std::printf("  spec      %s\n", city::format_city_spec(options).c_str());
  std::printf("  domain    %.0f x %.0f km (%d x %d blocks of %.2f km)\n",
              model.domain.width(), model.domain.height(), options.blocks_x,
              options.blocks_y, options.block_km);
  std::printf("  land use  industrial %zu (%.0f%%), commercial %zu (%.0f%%), "
              "residential %zu (%.0f%%), park %zu (%.0f%%)\n",
              s.industrial_blocks, pct(s.industrial_blocks),
              s.commercial_blocks, pct(s.commercial_blocks),
              s.residential_blocks, pct(s.residential_blocks), s.park_blocks,
              pct(s.park_blocks));
  std::printf("  roads     %zu highway + %zu arterial segment(s), total flow "
              "%.1f, peak block %.2f\n",
              s.highway_segments, s.arterial_segments, s.total_traffic,
              s.peak_block_traffic);
  for (const CitySpec& c : model.cores) {
    std::printf("  core      (%.1f, %.1f) km, radius %.1f km, strength %.2f\n",
                c.center.x, c.center.y, c.radius_km, c.strength);
  }
  std::printf("  stacks    %zu elevated source(s)\n", s.stacks);
  std::printf("  emissions NOx flux at morning rush %.4f ppm*m/min "
              "(domain sum)\n", s.nox_flux_rush);
  std::printf("  dataset   target %zu points, %d layers, base digest %s\n",
              spec.target_points, spec.layers,
              hash_hex(dataset_base_digest(spec)).c_str());

  if (!run_physics) return 0;

  Dataset ds = build_dataset(spec);
  std::printf("running %s: %zu points, %d layers, %d hours\n",
              ds.name().c_str(), ds.points(), ds.layers(), hours);
  std::unique_ptr<RunArchive> archive;
  if (!archive_path.empty()) {
    archive = std::make_unique<RunArchive>(ds.name(), kSpeciesCount,
                                           ds.layers(), ds.points());
  }
  ModelOptions opts;
  opts.hours = hours;
  AirshedModel(ds, opts).run([&](const HourlyStats& st,
                                 const ConcentrationField& conc) {
    std::printf("hour %02d: max O3 %.4f ppm at (%.0f, %.0f), mean O3 %.4f, "
                "mean NO2 %.5f\n",
                st.hour, st.max_surface_o3_ppm, st.max_o3_location.x,
                st.max_o3_location.y, st.mean_surface_o3_ppm,
                st.mean_surface_no2_ppm);
    if (archive) archive->append(st, conc);
  });
  if (archive) {
    archive->save(archive_path);
    std::printf("archived %zu hours to %s\n", archive->hour_count(),
                archive_path.c_str());
  }
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 2) return usage();
  const WorkTrace trace = WorkTrace::load(argv[0]);
  const MachineModel machine = machine_by_name(argv[1]);
  std::vector<int> nodes = {4, 8, 16, 32, 64, 128};
  Strategy strategy = Strategy::DataParallel;
  DimDist chem_dist = DimDist::Block;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = parse_nodes(argv[++i]);
    } else if (std::strcmp(argv[i], "--task-parallel") == 0) {
      strategy = Strategy::TaskAndDataParallel;
    } else if (std::strcmp(argv[i], "--cyclic") == 0) {
      chem_dist = DimDist::Cyclic;
    } else {
      return unknown_flag("simulate", argv[i]);
    }
  }

  std::printf("trace: %s — %zu points, %zu layers, %lld steps, %zu hours\n",
              trace.dataset.c_str(), trace.points, trace.layers,
              trace.total_steps(), trace.hours.size());
  for (int p : nodes) {
    ExecutionConfig cfg{machine, p, strategy};
    cfg.chemistry_dist = chem_dist;
    const RunReport rep = simulate_execution(trace, cfg);
    std::printf("%s\n", summarize_report(rep).c_str());
  }
  return 0;
}

int cmd_series(int argc, char** argv) {
  if (argc < 1) return usage();
  const RunArchive archive = RunArchive::load(argv[0]);
  std::printf("archive %s: %zu hours\n", archive.dataset_name().c_str(),
              archive.hour_count());
  const std::vector<double> max_o3 = archive.series_max_o3();
  const std::vector<double> mean_o3 = archive.series_mean_o3();
  for (std::size_t h = 0; h < archive.hour_count(); ++h) {
    std::printf("hour %02d: max O3 %.4f, mean O3 %.4f\n",
                archive.hour(h).stats.hour, max_o3[h], mean_o3[h]);
  }
  return 0;
}

int verify_one(const std::string& path);

/// Recursively validates every framed container under `dir` (sorted path
/// order, so the "first corrupt artifact" is deterministic). Quarantined
/// *.corrupt files and in-flight *.tmp.* files are skipped; non-container
/// files (reports, metrics JSON) are ignored.
int cmd_verify_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    std::fprintf(stderr, "verify --dir: not a directory: %s\n", dir.c_str());
    return 2;
  }
  std::vector<std::string> files;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string p = e.path().string();
    const std::string name = e.path().filename().string();
    if (name.find(".corrupt") != std::string::npos) {
      continue;  // quarantined (*.corrupt, *.corrupt.N) — the recorded state
    }
    if (name.find(".tmp.") != std::string::npos) continue;
    if (!durable::looks_like_container(p)) continue;
    files.push_back(p);
  }
  std::sort(files.begin(), files.end());

  std::size_t checked = 0;
  for (const std::string& p : files) {
    try {
      const durable::ContainerReader c = durable::ContainerReader::read_file(p);
      ++checked;
      std::printf("  %-52s %s v%u  intact\n", p.c_str(), c.format().c_str(),
                  c.version());
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: CORRUPT — %s\n", p.c_str(), e.what());
      std::fprintf(stderr, "verify --dir %s: FAILED after %zu intact file(s)\n",
                   dir.c_str(), checked);
      return 1;
    }
  }
  std::printf("verify --dir %s: %zu container(s) intact\n", dir.c_str(),
              checked);
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 1) return usage();
  if (std::strcmp(argv[0], "--dir") == 0) {
    if (argc < 2) return usage();
    return cmd_verify_dir(argv[1]);
  }
  const std::string path = argv[0];
  return verify_one(path);
}

int verify_one(const std::string& path) {
  try {
    const durable::ContainerReader c = durable::ContainerReader::read_file(path);
    std::printf("%s: %s v%u — %zu sections, footer digest %016llx\n",
                path.c_str(), c.format().c_str(), c.version(),
                c.section_count(),
                static_cast<unsigned long long>(c.footer_digest()));
    for (std::size_t i = 0; i < c.section_count(); ++i) {
      const durable::SectionView& s = c.section(i);
      std::printf("  section %-12s %10zu bytes  crc32c %08x  @%llu\n",
                  s.name.c_str(), s.payload.size(), s.crc,
                  static_cast<unsigned long long>(s.payload_offset));
    }
    if (c.format() == "airshed-checkpoint") {
      const CheckpointRecord rec = CheckpointRecord::load(path);
      std::printf("  checkpoint of %s, restartable from hour %d\n",
                  rec.dataset.c_str(), rec.next_hour);
    } else if (c.format() == "airshed-ckpt-manifest") {
      durable::PayloadReader p = c.open("generations");
      const std::uint64_t n = p.u64();
      std::printf("  manifest of %llu generation(s):",
                  static_cast<unsigned long long>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        std::printf(" %lld", static_cast<long long>(p.i64()));
      }
      std::printf("\n");
    }
    std::printf("intact\n");
    return 0;
  } catch (const durable::StorageError& e) {
    std::fprintf(stderr, "%s: CORRUPT — %s\n", path.c_str(), e.what());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: CORRUPT — %s\n", path.c_str(), e.what());
    return 1;
  }
}

int cmd_batch(int argc, char** argv) {
  if (argc < 1) return usage();

  svc::JobMixOptions mix;
  svc::BatchOptions opts;
  std::string out_dir = "batch_out";
  std::string dataset;
  bool journal = true;
  std::vector<svc::ScenarioSpec> specs;

  if (std::strcmp(argv[0], "--resume") == 0) {
    // batch --resume <dir> [--threads N]: everything else — seed, options,
    // scenario specs — comes out of the journal header, so a resume cannot
    // silently run a different batch than the one that crashed.
    if (argc < 2) return usage();
    out_dir = argv[1];
    opts.journal_path = out_dir + "/batch.journal";
    svc::BatchJournal::Replay replay;
    try {
      replay = svc::BatchJournal::replay(opts.journal_path);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: cannot replay %s: %s\n",
                   opts.journal_path.c_str(), e.what());
      return 2;
    }
    if (!replay.existed) {
      std::fprintf(stderr, "error: no resumable journal at %s\n",
                   opts.journal_path.c_str());
      return 2;
    }
    const std::string journal_path = opts.journal_path;
    opts = replay.options;
    opts.journal_path = journal_path;
    opts.resume = true;
    specs = replay.specs;
    dataset = specs.empty() ? std::string("TEST") : specs.front().dataset;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        opts.threads = std::atoi(argv[++i]);
      } else {
        return unknown_flag("batch --resume", argv[i]);
      }
    }
  } else {
    dataset = argv[0];
    if (city::is_city_spec(dataset)) {
      // Validate the spec up front (fail fast on a malformed key) and pin
      // the canonical form so the journal header and resume-config check
      // never see two spellings of the same city.
      try {
        dataset = city::format_city_spec(city::parse_city_spec(dataset));
      } catch (const ConfigError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (dataset != "TEST" && dataset != "LA" && dataset != "NE") {
      // Fail fast on a typo'd dataset instead of quarantining every
      // scenario with the same ConfigError and exiting 0.
      std::fprintf(stderr, "error: unknown batch dataset: %s "
                   "(expected TEST, LA, NE or city:...)\n",
                   dataset.c_str());
      return 2;
    }
    mix.dataset = dataset;
    for (int i = 1; i < argc; ++i) {
      const auto flag = [&](const char* name) {
        return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
      };
      if (flag("--scenarios")) {
        mix.scenarios = std::atoi(argv[++i]);
        if (mix.scenarios < 1) return usage();
      } else if (flag("--seed")) {
        opts.batch_seed = std::strtoull(argv[++i], nullptr, 10);
      } else if (flag("--threads")) {
        opts.threads = std::atoi(argv[++i]);
      } else if (flag("--max-attempts")) {
        opts.max_attempts = std::atoi(argv[++i]);
        if (opts.max_attempts < 1) return usage();
      } else if (flag("--out")) {
        out_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--no-degrade") == 0) {
        opts.degrade = false;
      } else if (std::strcmp(argv[i], "--no-journal") == 0) {
        journal = false;
      } else if (flag("--watchdog-budget")) {
        opts.watchdog_budget_factor = std::atof(argv[++i]);
      } else if (flag("--queue-depth")) {
        opts.max_queue_depth = std::atoi(argv[++i]);
      } else if (flag("--max-in-flight")) {
        opts.max_in_flight = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--no-share-inputs") == 0) {
        opts.share_inputs = false;
      } else if (std::strcmp(argv[i], "--resident") == 0) {
        opts.resident = true;
      } else if (flag("--schedule")) {
        const char* s = argv[++i];
        if (std::strcmp(s, "fifo") == 0) {
          opts.schedule = svc::Schedule::Fifo;
        } else if (std::strcmp(s, "fair") == 0) {
          opts.schedule = svc::Schedule::Fair;
        } else {
          std::fprintf(stderr, "error: unknown schedule: %s\n", s);
          return 2;
        }
      } else if (flag("--chaos-node-death")) {
        opts.chaos.node_death = std::atof(argv[++i]);
      } else if (flag("--chaos-straggler")) {
        opts.chaos.straggler = std::atof(argv[++i]);
      } else if (flag("--chaos-storage")) {
        opts.chaos.storage_fault = std::atof(argv[++i]);
      } else if (flag("--chaos-payload")) {
        opts.chaos.payload_corruption = std::atof(argv[++i]);
      } else if (flag("--chaos-numerics")) {
        opts.chaos.numerics = std::atof(argv[++i]);
      } else if (flag("--chaos-hang")) {
        opts.chaos.hang = std::atof(argv[++i]);
      } else if (flag("--poison")) {
        for (int id : parse_nodes(argv[++i])) {
          opts.chaos.poison_scenarios.push_back(id);
        }
      } else {
        return unknown_flag("batch", argv[i]);
      }
    }
    specs = svc::make_job_mix(opts.batch_seed, mix);
    if (journal) opts.journal_path = out_dir + "/batch.journal";
  }

  std::filesystem::create_directories(out_dir);
  opts.archive_dir = out_dir + "/archive";
  const int threads = par::resolve_threads(opts.threads);
  opts.threads = threads;
  obs::TraceRecorder recorder(threads);
  obs::MetricsRegistry registry;
  opts.trace = &recorder;
  opts.metrics = &registry;

  // CI crash harness: AIRSHED_KILL_RECORD / AIRSHED_KILL_PHASE SIGKILL this
  // process at the chosen journal append; a wrapper then re-runs with
  // --resume and asserts the archive is byte-identical.
  if (fault::arm_kill_point_from_env()) {
    std::printf("kill point armed from environment\n");
  }

  std::printf("batch: %zu %s scenario(s), seed %llu, %d thread(s), chaos %s%s\n",
              specs.size(), dataset.c_str(),
              static_cast<unsigned long long>(opts.batch_seed), threads,
              opts.chaos.any() ? "on" : "off",
              opts.resume ? ", resuming" : "");

  svc::BatchSupervisor supervisor(opts);
  svc::BatchReport report;
  try {
    report = supervisor.run(specs);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  for (const svc::ScenarioResult& r : report.results) {
    std::printf("  %-8s %2dh  %-11s attempts %zu  checksum %s\n",
                r.spec.name.c_str(), r.spec.hours, to_string(r.status),
                r.attempts.size(),
                r.checksum.empty() ? "-" : r.checksum.c_str());
  }
  std::printf("rounds %d: %d ok, %d degraded, %d quarantined, %d shed; "
              "%d retries, %d infra / %d scenario faults, %d breaker trip(s), "
              "%d watchdog fire(s)\n",
              report.rounds, report.completed, report.degraded,
              report.quarantined, report.shed, report.retries,
              report.infra_faults, report.scenario_faults,
              report.breaker_trips, report.watchdog_fires);
  std::printf("throughput: schedule %s, input cache %lld hit(s) / %lld "
              "miss(es), %lld shared rate hit(s), %lld engine reuse(s), "
              "setup %.3f s, worker imbalance %.2f\n",
              svc::to_string(report.schedule), report.input_cache_hits,
              report.input_cache_misses, report.rate_cache_shared_hits,
              report.engine_reuses, report.setup_s,
              report.worker_imbalance());
  if (report.resumed) {
    std::printf("resume: %d commit(s) verified+skipped, %d failure(s) "
                "replayed, %d artifact(s) quarantined, %d re-executed%s\n",
                report.replayed_commits, report.replayed_failures,
                report.replay_quarantined, report.reexecuted,
                report.journal_torn_tail ? ", torn tail truncated" : "");
  }

  const std::string report_path = out_dir + "/batch_report.json";
  const std::string metrics_path = out_dir + "/metrics.json";
  obs::write_json_file(report_path, report.canonical_json());
  obs::write_json_file(metrics_path,
                       registry.to_json(dataset + "-batch"));
  std::printf("wrote %s, %s, archive in %s\n", report_path.c_str(),
              metrics_path.c_str(), opts.archive_dir.c_str());
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string name = argv[0];
  int hours = 6;
  int nodes = 16;
  int threads = 0;
  std::string machine_name = "paragon";
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
      machine_name = argv[++i];
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
      if (nodes < 1) return usage();
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (argv[i][0] == '-') {
      return unknown_flag("trace", argv[i]);
    } else {
      hours = std::atoi(argv[i]);
      if (hours < 1) return usage();
    }
  }
  if (out_dir.empty()) {
    const char* env = std::getenv("AIRSHED_TRACE_DIR");
    out_dir = (env && *env) ? env : ".";
  }
  std::filesystem::create_directories(out_dir);

  const MachineModel machine = machine_by_name(machine_name);
  const int host_threads = par::resolve_threads(threads);
  obs::TraceRecorder recorder(host_threads);
  HostProfile profile;

  ModelOptions opts;
  opts.hours = hours;
  opts.host_threads = host_threads;
  opts.trace = &recorder;
  opts.profile = &profile;

  std::printf("tracing %s: %d hours, %d host threads\n", name.c_str(), hours,
              host_threads);
  ModelRunResult run;
  if (name == "LA-uniform") {
    run = UniformAirshedModel(la_uniform_dataset(), opts).run();
  } else {
    const Dataset ds = build_named_dataset(name);
    run = AirshedModel(ds, opts).run();
  }
  obs::TraceSession session = recorder.drain();

  // Replay the recorded work on the simulated machine, building the
  // virtual half of the trace (barrier phases + per-node busy tracks).
  obs::VirtualTimeline timeline;
  ExecutionConfig cfg{machine, nodes, Strategy::DataParallel};
  cfg.host_threads = host_threads;
  cfg.timeline = &timeline;
  const RunReport report = simulate_execution(run.trace, cfg);
  session.virt = timeline.take();

  obs::MetricsRegistry registry;
  record_metrics(registry, report);
  record_metrics(registry, profile);
  registry.counter("obs/host_spans", "host spans recorded")
      .inc(static_cast<long long>(session.host.size()));
  registry.counter("obs/virtual_spans", "virtual spans recorded")
      .inc(static_cast<long long>(session.virt.size()));
  registry.counter("obs/dropped_spans", "host spans lost to full lanes")
      .inc(static_cast<long long>(session.dropped));
  obs::Histogram& span_ms = registry.histogram(
      "obs/host_span_ms", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0},
      "host span durations in milliseconds");
  for (const obs::CompletedSpan& s : session.host) {
    span_ms.observe(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }

  const std::string run_name =
      name + "-" + machine_name + "-p" + std::to_string(nodes);
  const std::string trace_path = out_dir + "/trace.json";
  const std::string metrics_path = out_dir + "/metrics.json";
  const std::string container_path = out_dir + "/trace.obs";
  obs::write_chrome_trace(trace_path, session);
  obs::write_metrics_json(metrics_path, registry, run_name);
  obs::save_trace_container(container_path, session);

  std::printf("%s\n", summarize_report(report).c_str());
  std::printf("host spans %zu (dropped %llu), virtual spans %zu\n",
              session.host.size(),
              static_cast<unsigned long long>(session.dropped),
              session.virt.size());
  std::printf("wrote %s, %s, %s\n", trace_path.c_str(), metrics_path.c_str(),
              container_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "run") == 0) {
      return cmd_run(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "city") == 0) {
      return cmd_city(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "simulate") == 0) {
      return cmd_simulate(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "series") == 0) {
      return cmd_series(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "verify") == 0) {
      return cmd_verify(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "trace") == 0) {
      return cmd_trace(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "batch") == 0) {
      return cmd_batch(argc - 2, argv + 2);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
