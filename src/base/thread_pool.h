#ifndef QIMAP_BASE_THREAD_POOL_H_
#define QIMAP_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace qimap {

class Cancellation;  // base/budget.h

/// Hook invoked when thread-count resolution has something to warn about
/// (an unparsable `QIMAP_CHASE_THREADS`, or a value capped for exceeding
/// the oversubscription limit). Base code cannot call into qimap_obs (the
/// dependency points the other way), so the default writes the message to
/// stderr in the obs log format; `obs::InstallStatusLogging` reroutes it
/// through the structured logger.
using ThreadConfigWarningHook = void (*)(const char* message);

/// Installs `hook` (nullptr restores the stderr default) and returns the
/// previous hook.
ThreadConfigWarningHook SetThreadConfigWarningHook(
    ThreadConfigWarningHook hook);

/// The largest multiple of std::thread::hardware_concurrency a thread
/// request (`QIMAP_CHASE_THREADS`, or `qimap_cli --threads`) may reach
/// before being capped. Requests beyond it only add contention, and a
/// typo'd value ("100" for "10") used to oversubscribe the machine
/// silently.
inline constexpr size_t kMaxHardwareOversubscription = 4;

/// Returns `requested` capped at `kMaxHardwareOversubscription *
/// hardware_concurrency`, warning through the thread-config hook when it
/// caps. `what` names the request in the warning (e.g. "--threads 64").
size_t CapThreadCount(size_t requested, const std::string& what);

/// Resolves a thread-count knob: a positive value is taken as-is; 0 reads
/// the `QIMAP_CHASE_THREADS` environment variable. An unset/empty variable
/// resolves to 1; an unparsable or non-positive value resolves to 1 with a
/// warning through the thread-config hook; a parsable value is capped by
/// CapThreadCount. Lets benches and ctest legs vary the thread count
/// without touching call sites.
size_t ResolveThreadCount(size_t requested);

/// A small fixed-size worker pool for fan-out over independent work items.
///
/// With one thread the pool spawns nothing and `ParallelFor` runs inline,
/// in index order — byte-identical to the pre-pool serial code, which is
/// why `ChaseOptions::num_threads = 1` (the default) leaves existing
/// callers unchanged. With more threads, `ParallelFor` hands out indexes
/// from an atomic cursor; the body must not touch shared mutable state
/// (the chase engines collect into per-index slots and do all shared
/// mutation in a serial phase afterwards).
class ThreadPool {
 public:
  /// Creates a pool of `num_threads` workers (clamped to >= 1; one means
  /// no workers are spawned at all).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs `fn(0) .. fn(n-1)`, partitioned across the pool's workers plus
  /// the calling thread; returns when all n calls have finished. Inline
  /// and in order when the pool has one thread or n < 2. Exceptions must
  /// not escape `fn`.
  ///
  /// When `cancel` is non-null, the pool checks the token before handing
  /// out each index and stops dispatching once it is cancelled: in-flight
  /// calls finish, remaining indexes are never started. Callers that
  /// collect into per-index slots must therefore treat untouched slots as
  /// "not run" after a cancelled batch (the chase engines re-check their
  /// budget before consuming the slots).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const Cancellation* cancel = nullptr);

 private:
  void WorkerLoop();

  size_t num_threads_;
  std::vector<std::thread> workers_;

  // One batch at a time: ParallelFor publishes (fn, n), workers pull
  // indexes until the cursor passes n, then the caller waits for
  // `active_` to drain.
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void(size_t)>* fn_ = nullptr;
  const Cancellation* cancel_ = nullptr;
  size_t n_ = 0;
  size_t cursor_ = 0;
  size_t active_ = 0;
  uint64_t batch_ = 0;  // wakes workers exactly once per ParallelFor
  bool shutdown_ = false;
};

}  // namespace qimap

#endif  // QIMAP_BASE_THREAD_POOL_H_
