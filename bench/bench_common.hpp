// Shared helpers for the figure-reproduction benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <airshed/airshed.h>

namespace airshed::bench {

/// Default episode length (hours). The paper's LA/NE episodes are full-day
/// runs; override with AIRSHED_BENCH_HOURS for quick checks.
inline constexpr int kDefaultHours = 24;

inline int env_hours() {
  if (const char* e = std::getenv("AIRSHED_BENCH_HOURS")) {
    const int h = std::atoi(e);
    if (h >= 1) return h;
  }
  return kDefaultHours;
}

inline const int kHours = env_hours();

/// Node counts swept by the paper's figures.
inline const std::vector<int> kNodeCounts = {4, 8, 16, 32, 64, 128};

/// Trace cache directory: AIRSHED_TRACE_DIR or ./traces.
inline std::string trace_dir() {
  if (const char* e = std::getenv("AIRSHED_TRACE_DIR")) return e;
  return "traces";
}

inline std::string trace_path(const std::string& dir, const std::string& name,
                              int hours) {
  return dir + "/" + name + "_" + std::to_string(hours) + "h.trace";
}

/// Runs the physics for the named dataset ("LA" or "NE") and returns the
/// trace.
inline WorkTrace generate_trace(const std::string& name, int hours) {
  const Dataset ds = name == "NE" ? northeast_dataset() : la_basin_dataset();
  ModelOptions opts;
  opts.hours = hours;
  AirshedModel model(ds, opts);
  return model.run().trace;
}

/// Loads the cached trace, generating (and caching) it if missing.
inline WorkTrace load_trace(const std::string& name, int hours = kHours) {
  const std::string dir = trace_dir();
  std::filesystem::create_directories(dir);
  return WorkTrace::cached(trace_path(dir, name, hours),
                           [&] { return generate_trace(name, hours); });
}

/// The BENCH_*.json artifacts use the project's shared schema writer
/// (airshed/obs/json.hpp): insertion-ordered keys, shortest round-trip
/// doubles with non-finite -> null, fully escaped strings. See
/// docs/BENCHMARKS.md for the per-bench field reference.
using JsonWriter = obs::JsonWriter;

/// Wall-clock measurement of one bench configuration: `warmup` untimed runs
/// followed by `repeats` timed runs of `fn`. Median and min are the robust
/// summary statistics (mean is polluted by one-off scheduler noise).
struct WallStats {
  double median_s = 0.0;
  double min_s = 0.0;
  std::vector<double> samples_s;  ///< raw timed samples, run order
};

inline WallStats measure_wall(int warmup, int repeats,
                              const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  WallStats stats;
  for (int i = 0; i < warmup; ++i) fn();
  stats.samples_s.reserve(static_cast<std::size_t>(std::max(repeats, 0)));
  for (int i = 0; i < repeats; ++i) {
    const clock::time_point t0 = clock::now();
    fn();
    stats.samples_s.push_back(
        std::chrono::duration<double>(clock::now() - t0).count());
  }
  if (stats.samples_s.empty()) return stats;
  std::vector<double> sorted = stats.samples_s;
  std::sort(sorted.begin(), sorted.end());
  stats.min_s = sorted.front();
  const std::size_t n = sorted.size();
  stats.median_s = n % 2 == 1 ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return stats;
}

/// Normalizes a wall time to nanoseconds per processed cell (the kernel
/// engine's figure of merit: cells = grid points x layers x steps).
inline double ns_per_cell(double seconds, double cells) {
  return cells > 0.0 ? seconds * 1e9 / cells : 0.0;
}

/// The cores this process may run on: its CPU affinity mask where the
/// host reports one, else the hardware concurrency.
inline int usable_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  return par::hardware_threads();
}

/// The CPU model name from /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t first = line.find_first_not_of(" \t", colon + 1);
    return first == std::string::npos ? "unknown" : line.substr(first);
  }
  return "unknown";
}

/// Writes the `host` object of a BENCH_*.json artifact: the CPU model, the
/// cores this process may use and the build type it was compiled as, so a
/// committed number names the machine and build that produced it.
inline void host_fingerprint(JsonWriter& json) {
#ifdef AIRSHED_BUILD_TYPE
  const char* build_type = AIRSHED_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  json.key("host").begin_object();
  json.key("cpu_model").value(cpu_model());
  json.key("usable_cores").value(usable_cores());
  json.key("build_type").value(build_type);
  json.end_object();
}

/// Writes a bench artifact `BENCH_<name>.json` into the current directory
/// (run benches from the repo root to land them there).
inline void write_bench_json(const std::string& name, const JsonWriter& json) {
  const std::string path = "BENCH_" + name + ".json";
  if (!obs::write_json_file(path, json)) {
    std::printf("FAILED to write %s\n", path.c_str());
    return;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), json.str().size() + 1);
}

}  // namespace airshed::bench
