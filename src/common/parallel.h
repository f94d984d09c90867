#ifndef SBON_COMMON_PARALLEL_H_
#define SBON_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sbon {

/// A small persistent worker pool for the epoch pipeline's embarrassingly
/// parallel stages (per-node Vivaldi updates, the refresh dirty scan).
///
/// Determinism contract: the pool only *schedules* work — callers must
/// partition it so that the value computed for each shard depends solely on
/// the shard index (never on which thread ran it or in which order shards
/// finished). Under that contract, results are bit-identical at any thread
/// count, including 1. `ParallelSlices` below produces such a partition.
///
/// Workers persist across Run calls (a per-epoch pool spawn would cost more
/// than the stages it accelerates), parked on a condition variable between
/// jobs. The calling thread always participates, so `ThreadPool(1)` spawns
/// no workers and degenerates to a plain serial loop.
class ThreadPool {
 public:
  /// `threads` is the total degree of parallelism including the caller;
  /// `threads - 1` workers are spawned (0 for threads <= 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs `fn(shard)` for every shard in [0, shards), blocking until all
  /// complete. Shards are claimed dynamically (which thread runs which shard
  /// is unspecified); `fn` must not throw and must write only shard-local
  /// state. Reentrant Run from inside `fn` is not supported.
  void Run(std::size_t shards, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();
  /// Claims and runs shards of the current job until none remain; returns
  /// the number of shards this thread completed.
  std::size_t DrainShards();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a new job
  std::condition_variable done_cv_;  ///< caller waits for completion
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_shards_ = 0;
  std::size_t next_shard_ = 0;  ///< next unclaimed shard of the job
  std::size_t remaining_ = 0;   ///< shards not yet finished
  std::size_t generation_ = 0;  ///< bumps per job so workers cannot re-enter
  bool stop_ = false;
};

/// Partitions [0, n) into `pool->threads()` contiguous slices and runs
/// `fn(begin, end)` for each — the deterministic static sharding used by
/// every parallel pipeline stage. Slice boundaries depend only on `n` and
/// the thread count; since per-element results must not depend on the
/// slicing (see the ThreadPool contract), output is bit-identical whether
/// `pool` is null (one serial slice), has one thread, or has many.
///
/// Templated on the callable so the serial path (null/single-thread pool —
/// every default epoch) invokes `fn` directly with zero heap allocations;
/// only a genuinely multi-threaded dispatch pays the std::function wrap.
template <typename Fn>
void ParallelSlices(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t slices =
      pool == nullptr ? 1 : (pool->threads() < n ? pool->threads() : n);
  if (slices <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  pool->Run(slices, [&](std::size_t s) {
    // Same boundaries for every thread count query: slice s covers
    // [n*s/slices, n*(s+1)/slices).
    fn(n * s / slices, n * (s + 1) / slices);
  });
}

}  // namespace sbon

#endif  // SBON_COMMON_PARALLEL_H_
