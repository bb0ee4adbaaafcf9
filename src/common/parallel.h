// Deterministic parallel execution for Monte-Carlo sweeps.
//
// The contract that keeps every sweep reproducible: work is always
// identified by *index*, never by thread.  `ThreadPool::for_each_index(n,
// fn)` calls fn(0..n-1) exactly once each, results are written to
// index-addressed slots (`parallel_map` does both), and any per-trial
// randomness must be seeded from the index (see derive_seed) — so the
// output is bit-identical for any thread count, including 1.
//
// Thread count: `SLEDZIG_THREADS` env var when set (>=1), otherwise the
// hardware concurrency.  `SLEDZIG_THREADS=1` runs everything inline on the
// calling thread with no pool interaction at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace sledzig::common {

/// One step of the splitmix64 generator (public-domain constants from
/// Steele, Lea & Flood).  Advances `state` and returns the next output.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Derives an independent, well-mixed RNG seed for trial `index` of a sweep
/// seeded with `base_seed`.  Pure function of (base_seed, index): trials can
/// run on any thread in any order and still draw identical streams.
inline std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  std::uint64_t s = base_seed ^ (0xd1342543de82ef95ull * (index + 1));
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  return a ^ (b << 1 | b >> 63);
}

/// Multi-index derivation: derive_seed(base, i, j, k) left-folds one
/// derive_seed per index, so a nested sweep (campaign -> cell -> rep) gets
/// a seed that is a pure function of the whole index path.  The same
/// contract as the two-argument form, extended: the resulting streams are
/// identical no matter how the index space is partitioned across shards,
/// threads, or resume passes — only the path matters.
template <typename... Rest>
inline std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t first,
                                 std::uint64_t second, Rest... rest) {
  return derive_seed(derive_seed(base_seed, first),
                     second, static_cast<std::uint64_t>(rest)...);
}

/// Hard ceiling on the pool size.  SLEDZIG_THREADS=1000000 (or a hardware
/// report gone wrong) must not try to spawn a million threads; oversized
/// requests clamp here instead.
inline constexpr std::size_t kMaxThreadCount = 256;

/// Thread count the default pool uses: SLEDZIG_THREADS when it parses as a
/// whole positive number (clamped to kMaxThreadCount), otherwise
/// std::thread::hardware_concurrency() (min 1, same clamp).  Garbage, empty,
/// zero, negative, or out-of-range values fall back to the hardware default.
std::size_t default_thread_count();

/// A small fixed-size worker pool executing index ranges.  The calling
/// thread always participates, so ThreadPool(1) owns no worker threads and
/// is a plain serial loop.  Destruction joins all workers (clean shutdown
/// under TSan/ASan).
class ThreadPool {
 public:
  /// `num_threads` counts the calling thread: ThreadPool(4) spawns 3
  /// workers.  0 is treated as 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute a batch (workers + the caller).
  std::size_t size() const { return num_workers_ + 1; }

  /// Calls fn(i) for every i in [0, n), distributing indices over the pool.
  /// Blocks until all calls return.  Nested calls (fn itself invoking
  /// for_each_index on any pool) run serially inline — no deadlock, same
  /// results.  The first exception thrown by fn is rethrown here after the
  /// batch drains.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  // pimpl keeps <thread>/<condition_variable> out of line.
  std::unique_ptr<Impl> impl_;
  std::size_t num_workers_;
};

/// Process-wide pool sized by default_thread_count(); created on first use.
ThreadPool& default_pool();

/// Maps fn over [0, n) into an index-addressed vector: out[i] = fn(i).
/// Deterministic for any thread count.  bool results are staged in one byte
/// per index — std::vector<bool> packs bits, and concurrent writes to
/// neighbouring bits of the same word would race.
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn) {
  using T = std::decay_t<decltype(fn(std::size_t{0}))>;
  if constexpr (std::is_same_v<T, bool>) {
    std::vector<unsigned char> staged(n);
    pool.for_each_index(n, [&](std::size_t i) { staged[i] = fn(i) ? 1 : 0; });
    return std::vector<bool>(staged.begin(), staged.end());
  } else {
    std::vector<T> out(n);
    pool.for_each_index(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }
}

template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn) {
  return parallel_map(default_pool(), n, std::forward<Fn>(fn));
}

}  // namespace sledzig::common
