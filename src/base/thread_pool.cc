#include "base/thread_pool.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/budget.h"

namespace qimap {
namespace {

void DefaultThreadConfigWarning(const char* message) {
  std::fprintf(stderr, "[qimap:warn] %s\n", message);
}

std::atomic<ThreadConfigWarningHook> g_thread_config_warning_hook{
    &DefaultThreadConfigWarning};

void WarnThreadConfig(const std::string& message) {
  g_thread_config_warning_hook.load(std::memory_order_acquire)(
      message.c_str());
}

}  // namespace

ThreadConfigWarningHook SetThreadConfigWarningHook(
    ThreadConfigWarningHook hook) {
  if (hook == nullptr) hook = &DefaultThreadConfigWarning;
  return g_thread_config_warning_hook.exchange(hook,
                                               std::memory_order_acq_rel);
}

size_t CapThreadCount(size_t requested, const std::string& what) {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;  // unknown topology: be conservative
  const size_t cap = kMaxHardwareOversubscription * hw;
  if (requested <= cap) return requested;
  WarnThreadConfig(what + " exceeds " +
                   std::to_string(kMaxHardwareOversubscription) +
                   "x hardware concurrency; capping at " +
                   std::to_string(cap) + " threads");
  return cap;
}

size_t ResolveThreadCount(size_t requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("QIMAP_CHASE_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  errno = 0;
  long parsed = std::strtol(env, &end, 10);
  if (end == env || end == nullptr || *end != '\0' || errno == ERANGE ||
      parsed < 1) {
    WarnThreadConfig("QIMAP_CHASE_THREADS='" + std::string(env) +
                     "' is not a positive integer; using 1 thread");
    return 1;
  }
  return CapThreadCount(static_cast<size_t>(parsed),
                        "QIMAP_CHASE_THREADS=" + std::string(env));
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  // The calling thread participates in every batch, so spawn one fewer
  // worker than the requested parallelism.
  for (size_t i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn,
                             const Cancellation* cancel) {
  if (n == 0) return;
  if (workers_.empty() || n < 2) {
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->cancelled()) return;
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    cancel_ = cancel;
    n_ = n;
    cursor_ = 0;
    active_ = workers_.size();
    ++batch_;
  }
  work_ready_.notify_all();
  // The caller works the same cursor as the pool threads.
  while (true) {
    size_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cursor_ >= n_) break;
      if (cancel != nullptr && cancel->cancelled()) {
        cursor_ = n_;  // park the cursor so workers stop too
        break;
      }
      index = cursor_++;
    }
    fn(index);
  }
  std::unique_lock<std::mutex> lock(mu_);
  work_done_.wait(lock, [this] { return active_ == 0; });
  fn_ = nullptr;
  cancel_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  uint64_t last_batch = 0;
  while (true) {
    const std::function<void(size_t)>* fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || (fn_ != nullptr && batch_ != last_batch);
      });
      if (shutdown_) return;
      last_batch = batch_;
      fn = fn_;
    }
    while (true) {
      size_t index;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (cursor_ >= n_) break;
        if (cancel_ != nullptr && cancel_->cancelled()) {
          cursor_ = n_;  // park the cursor so peers stop too
          break;
        }
        index = cursor_++;
      }
      (*fn)(index);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) work_done_.notify_all();
    }
  }
}

}  // namespace qimap
