// Host-parallel execution engine: a fixed-size worker pool with a
// deterministic parallel-for.
//
// The simulated Fx runtime executes every virtual node's real numerics
// (SUPG transport layers, Young-Boris chemistry columns, redistribution
// pack/unpack) on host threads. Determinism is a hard contract:
//
//   * Fixed block ownership — the iteration space [0, n) is split into
//     exactly `threads` contiguous blocks; block t always belongs to
//     thread t. No work stealing, no dynamic scheduling.
//   * Per-item independence — callers give every item its own output slot
//     and per-thread scratch (solvers, buffers), so each item's
//     floating-point results depend only on its inputs, never on which
//     thread ran it or in what order blocks finished.
//   * Ordered reduction — callers merge per-item/per-block results on the
//     calling thread in index order after the barrier.
//
// Under these rules a run is bit-identical for every thread count,
// including 1 (which executes inline on the calling thread with no worker
// threads at all).
//
// Thread count resolution: an explicit request wins; otherwise the
// AIRSHED_THREADS environment variable; otherwise hardware concurrency.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "airshed/obs/trace.hpp"

namespace airshed::par {

/// Hardware concurrency, at least 1.
int hardware_threads();

/// AIRSHED_THREADS environment override (0 when unset or invalid).
int env_threads();

/// Resolves a requested thread count: `requested` > 0 wins, then
/// AIRSHED_THREADS, then hardware concurrency. Always >= 1.
int resolve_threads(int requested);

/// Chunk borders splitting [0, weights.size()) into `parts` contiguous
/// ranges of near-equal total weight: part t is [cuts[t], cuts[t + 1]),
/// cuts.front() == 0, cuts.back() == weights.size(), never decreasing
/// (a part may be empty). Border t sits at the prefix sum nearest to
/// t/parts of the total (ties go to the lower index). Empty, all-zero,
/// negative or non-finite weights fall back to equal counts, the split
/// for_blocks uses. Pure: the same weights always give the same cuts.
std::vector<std::size_t> balanced_cuts(std::span<const double> weights,
                                       int parts);

/// Fixed-size pool of host worker threads with a deterministic
/// blocked parallel-for. The calling thread participates as thread 0;
/// `threads - 1` workers are spawned on construction and joined on
/// destruction. A pool of 1 thread runs everything inline.
class WorkerPool {
 public:
  /// `threads` <= 0 resolves via resolve_threads(0).
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  /// fn(thread, begin, end): thread t processes the contiguous block
  /// [begin, end) of [0, n). Block boundaries depend only on (n, threads).
  /// Blocks run concurrently; the call returns after all blocks complete.
  /// If blocks throw, the exception of the lowest block index is rethrown
  /// (with contiguous ascending blocks this is the exception the serial
  /// loop would have hit first).
  using BlockFn = std::function<void(int thread, std::size_t begin,
                                     std::size_t end)>;
  void for_blocks(std::size_t n, const BlockFn& fn);

  /// Per-index convenience: fn(thread, i) for every i in [0, n).
  template <typename Fn>
  void for_each(std::size_t n, Fn&& fn) {
    for_blocks(n, [&fn](int t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(t, i);
    });
  }

  /// CPU seconds each thread has spent inside pool blocks since the last
  /// reset (thread CPU time, so oversubscribed hosts report true compute
  /// cost, not scheduler wait). Index 0 is the calling thread.
  std::vector<double> busy_seconds() const;
  void reset_busy();

  /// Process-wide shared pool sized by resolve_threads(0); used by code
  /// paths without an explicit thread-count configuration (e.g. the
  /// redistribution engine).
  static WorkerPool& shared();

  /// Attaches (or detaches, with nullptr) a trace recorder: every block a
  /// thread executes becomes one host span in the recorder, labelled by
  /// the current phase (set_phase). The recorder must have at least
  /// threads() lanes and must outlive the pool or be detached first.
  /// Call only between parallel regions (for_blocks is not reentrant).
  void set_observer(obs::TraceRecorder* rec) { obs_ = rec; }

  /// Labels the spans of subsequent blocks. Call before each for_blocks /
  /// for_each; `name` must have static storage duration.
  void set_phase(const char* name, PhaseCategory cat, int hour = -1) {
    phase_name_ = name;
    phase_cat_ = cat;
    phase_hour_ = hour;
  }

 private:
  void worker_main(int thread);
  void run_block(int thread, std::size_t n, const BlockFn& fn);

  int threads_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per for_blocks call
  int pending_ = 0;               // workers still running the current job
  std::size_t job_n_ = 0;
  const BlockFn* job_fn_ = nullptr;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // per thread, current job
  std::vector<double> busy_s_;              // per thread, accumulated

  // Observation (written between parallel regions, read inside them).
  obs::TraceRecorder* obs_ = nullptr;
  const char* phase_name_ = "pool";
  PhaseCategory phase_cat_ = PhaseCategory::Communication;
  int phase_hour_ = -1;
};

/// Scoped wall-clock timer: accumulates the scope's duration into `*sink`
/// on destruction (no-op when sink is null). Pure instrumentation.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink) : sink_(sink) {
    if (sink_) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (sink_) {
      *sink_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

/// One default-constructed-from-factory instance of T per pool thread.
/// The canonical pattern for stateful kernels (YoungBorisSolver,
/// SupgTransport, VerticalTransport): scratch is reused across items on
/// the same thread but never shared between threads.
template <typename T>
class PerThread {
 public:
  template <typename Factory>
  PerThread(int threads, Factory&& make) {
    items_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) items_.push_back(make());
  }

  T& operator[](int thread) { return items_[static_cast<std::size_t>(thread)]; }
  const T& operator[](int thread) const {
    return items_[static_cast<std::size_t>(thread)];
  }
  int size() const { return static_cast<int>(items_.size()); }

  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }

 private:
  std::vector<T> items_;
};

}  // namespace airshed::par
