#include "airshed/par/pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>

#include "airshed/util/error.hpp"

namespace airshed::par {

namespace {

/// CPU time of the calling thread in seconds (falls back to 0 where the
/// clock is unavailable; busy accounting is instrumentation, not logic).
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int env_threads() {
  if (const char* e = std::getenv("AIRSHED_THREADS")) {
    const int t = std::atoi(e);
    if (t >= 1) return t;
  }
  return 0;
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const int e = env_threads(); e > 0) return e;
  return hardware_threads();
}

std::vector<std::size_t> balanced_cuts(std::span<const double> weights,
                                       int parts) {
  AIRSHED_REQUIRE(parts >= 1, "balanced_cuts needs at least one part");
  const std::size_t n = weights.size();
  const std::size_t P = static_cast<std::size_t>(parts);
  std::vector<std::size_t> cuts(P + 1);
  // prefix[i] = weights[0] + ... + weights[i - 1], summed in index order.
  std::vector<double> prefix(n + 1, 0.0);
  bool valid = true;
  for (std::size_t i = 0; i < n; ++i) {
    valid = valid && std::isfinite(weights[i]) && weights[i] >= 0.0;
    prefix[i + 1] = prefix[i] + weights[i];
  }
  const double total = prefix[n];
  if (!valid || !std::isfinite(total) || total <= 0.0) {
    for (std::size_t t = 0; t <= P; ++t) cuts[t] = n * t / P;
    return cuts;
  }
  cuts[P] = n;
  for (std::size_t t = 1; t < P; ++t) {
    const double target =
        total * static_cast<double>(t) / static_cast<double>(P);
    // First border at or past the target, or the one before it if nearer.
    std::size_t i = static_cast<std::size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
    if (i > 0 && target - prefix[i - 1] <= prefix[i] - target) --i;
    cuts[t] = std::max(cuts[t - 1], i);
  }
  return cuts;
}

WorkerPool::WorkerPool(int threads) : threads_(resolve_threads(threads)) {
  busy_s_.assign(static_cast<std::size_t>(threads_), 0.0);
  errors_.assign(static_cast<std::size_t>(threads_), nullptr);
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::run_block(int thread, std::size_t n, const BlockFn& fn) {
  const std::size_t t = static_cast<std::size_t>(thread);
  const std::size_t T = static_cast<std::size_t>(threads_);
  const std::size_t begin = n * t / T;
  const std::size_t end = n * (t + 1) / T;
  if (begin >= end) return;
  const double t0 = thread_cpu_seconds();
  try {
    obs::ObsSpan span(obs_, thread, phase_name_, phase_cat_, phase_hour_);
    fn(thread, begin, end);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    errors_[t] = std::current_exception();
  }
  const double dt = thread_cpu_seconds() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  busy_s_[t] += dt;
}

void WorkerPool::worker_main(int thread) {
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t n = 0;
    const BlockFn* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      n = job_n_;
      fn = job_fn_;
    }
    run_block(thread, n, *fn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

void WorkerPool::for_blocks(std::size_t n, const BlockFn& fn) {
  if (n == 0) return;
  if (threads_ == 1) {
    // True single-threaded path: inline, no synchronization, exceptions
    // propagate directly.
    const double t0 = thread_cpu_seconds();
    try {
      obs::ObsSpan span(obs_, 0, phase_name_, phase_cat_, phase_hour_);
      fn(0, 0, n);
    } catch (...) {
      busy_s_[0] += thread_cpu_seconds() - t0;
      throw;
    }
    busy_s_[0] += thread_cpu_seconds() - t0;
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    AIRSHED_REQUIRE(pending_ == 0, "WorkerPool::for_blocks is not reentrant");
    for (auto& e : errors_) e = nullptr;
    job_n_ = n;
    job_fn_ = &fn;
    pending_ = threads_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();

  run_block(0, n, fn);  // the calling thread is thread 0

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  job_fn_ = nullptr;
  // Rethrow the lowest block's exception: with contiguous ascending blocks
  // this is the failure the serial loop would have reported.
  for (auto& e : errors_) {
    if (e) {
      std::exception_ptr err = e;
      e = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }
}

std::vector<double> WorkerPool::busy_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_s_;
}

void WorkerPool::reset_busy() {
  std::lock_guard<std::mutex> lock(mu_);
  for (double& b : busy_s_) b = 0.0;
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool(0);
  return pool;
}

}  // namespace airshed::par
