#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.h"

namespace sledzig::common {

namespace {

/// Set while a thread is executing batch indices; nested parallel calls
/// from inside a trial degrade to serial loops instead of deadlocking.
// lint: allow(static-state): per-thread reentrancy flag; picks serial vs pool
thread_local bool tl_in_batch = false;

/// Handles resolved once; per-batch bumps only (never per index), so the
/// pool's hot loop stays registry-free.  Batch counts and task totals are
/// functions of the submitted work alone — thread-count invariant.
struct PoolMetrics {
  obs::Counter batches;
  obs::Counter serial_batches;
  obs::Counter tasks;
  obs::Histogram batch_size;

  PoolMetrics() {
    auto& reg = obs::Registry::global();
    batches = reg.counter("parallel.batches");
    serial_batches = reg.counter("parallel.serial_batches");
    tasks = reg.counter("parallel.tasks");
    constexpr double kBounds[] = {1,  2,   4,   8,    16,   32,  64,
                                  128, 256, 512, 1024, 4096, 16384};
    batch_size = reg.histogram("parallel.batch_size", kBounds);
  }
};

const PoolMetrics& pool_metrics() {
  // lint: allow(static-state): cached metric handles, registered once
  static const PoolMetrics metrics;
  return metrics;
}

}  // namespace

std::size_t default_thread_count() {
  // Read once, before any pool thread exists; nothing in the library writes
  // the environment, so the mt-unsafe getenv cannot race here.
  if (const char* env = std::getenv("SLEDZIG_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    // Accept only a fully-numeric value (trailing whitespace tolerated);
    // anything else — garbage, empty, 0, negative, or out-of-range — falls
    // back to the hardware default rather than a surprise pool size.
    bool clean = end != env && errno != ERANGE;
    for (const char* p = end; clean && *p != '\0'; ++p) {
      clean = std::isspace(static_cast<unsigned char>(*p)) != 0;
    }
    if (clean && v >= 1) {
      return std::min<std::size_t>(static_cast<std::size_t>(v),
                                   kMaxThreadCount);
    }
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : std::min<std::size_t>(hc, kMaxThreadCount);
}

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;   // workers wait for a new batch
  std::condition_variable done;   // caller waits for batch completion
  std::vector<std::thread> workers;

  // Current batch (guarded by mutex except the atomics).
  const std::function<void(std::size_t)>* job = nullptr;
  std::size_t job_n = 0;
  std::uint64_t generation = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::size_t active_workers = 0;
  bool batch_in_flight = false;
  std::exception_ptr error;
  bool stop = false;

  /// Claims indices until the batch is exhausted.  Called with no locks.
  void run_indices(const std::function<void(std::size_t)>& fn, std::size_t n) {
    tl_in_batch = true;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        std::scoped_lock lock(mutex);
        if (!error) error = std::current_exception();
      }
      completed.fetch_add(1, std::memory_order_acq_rel);
    }
    tl_in_batch = false;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock lock(mutex);
    while (true) {
      wake.wait(lock, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      const auto* fn = job;
      const std::size_t n = job_n;
      ++active_workers;
      lock.unlock();
      run_indices(*fn, n);
      lock.lock();
      --active_workers;
      done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : impl_(std::make_unique<Impl>()),
      num_workers_(num_threads == 0 ? 0 : num_threads - 1) {
  impl_->workers.reserve(num_workers_);
  for (std::size_t i = 0; i < num_workers_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const PoolMetrics& pm = pool_metrics();
  pm.tasks.add(n);
  pm.batch_size.observe(static_cast<double>(n));
  if (num_workers_ == 0 || n == 1 || tl_in_batch) {
    pm.serial_batches.inc();
    // Serial path: same call sequence fn(0..n-1), no pool interaction.
    // Save/restore rather than clear: a thread still inside an outer batch
    // must stay marked, or its next nested call would take the parallel
    // path and wait on the very batch it is executing.
    const bool was_in_batch = tl_in_batch;
    tl_in_batch = true;
    try {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    } catch (...) {
      tl_in_batch = was_in_batch;
      throw;
    }
    tl_in_batch = was_in_batch;
    return;
  }
  pm.batches.inc();

  std::unique_lock lock(impl_->mutex);
  // One batch at a time: a second submitting thread queues behind the
  // current batch.  Also drain workers that woke late for a previous batch
  // before re-arming the shared state, so no worker can mix an old fn with
  // new indices.
  impl_->done.wait(lock, [&] {
    return !impl_->batch_in_flight && impl_->active_workers == 0;
  });
  impl_->batch_in_flight = true;
  impl_->job = &fn;
  impl_->job_n = n;
  impl_->next.store(0, std::memory_order_relaxed);
  impl_->completed.store(0, std::memory_order_relaxed);
  impl_->error = nullptr;
  ++impl_->generation;
  lock.unlock();
  impl_->wake.notify_all();

  impl_->run_indices(fn, n);

  lock.lock();
  impl_->done.wait(lock, [&] {
    return impl_->completed.load(std::memory_order_acquire) == n &&
           impl_->active_workers == 0;
  });
  impl_->batch_in_flight = false;
  const std::exception_ptr err = impl_->error;
  impl_->error = nullptr;
  lock.unlock();
  impl_->done.notify_all();  // release any queued submitter
  if (err) std::rethrow_exception(err);
}

ThreadPool& default_pool() {
  // Magic-static init is thread-safe; the pool synchronises internally.
  // lint: allow(static-state): process-wide default pool, created once
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace sledzig::common
