#include "tkc/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "tkc/obs/metrics.h"
#include "tkc/obs/timeline.h"
#include "tkc/util/check.h"

namespace tkc {

namespace {

std::atomic<int> g_default_threads{0};  // 0 = not yet initialized

}  // namespace

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int DefaultThreads() {
  int n = g_default_threads.load(std::memory_order_relaxed);
  return n == 0 ? HardwareThreads() : n;
}

void SetDefaultThreads(int threads) {
  int n = std::max(threads, 1);
  g_default_threads.store(n, std::memory_order_relaxed);
  obs::MetricsRegistry::Global().GetGauge("tkc.threads").Set(n);
}

int ResolveThreads(int threads) {
  if (threads == 0) return DefaultThreads();
  return std::max(threads, 1);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(num_threads, 1)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop(int worker) {
  // Register the worker's timeline track name once; worker 0 is the calling
  // thread and keeps its own name (usually "main").
  obs::SetTimelineThreadName("pool.worker-" + std::to_string(worker));
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      MutexLock lock(mu_);
      while (!stopping_ && (job_ == nullptr || job_epoch_ == seen_epoch)) {
        work_cv_.Wait(mu_);
      }
      if (stopping_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    (*job)(worker);
    {
      MutexLock lock(mu_);
      if (--pending_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::Run(const std::function<void(int)>& fn) {
  if (num_threads_ == 1) {
    fn(0);
    return;
  }
  {
    MutexLock lock(mu_);
    job_ = &fn;
    ++job_epoch_;
    pending_ = num_threads_ - 1;
  }
  work_cv_.NotifyAll();
  fn(0);  // the calling thread is worker 0
  {
    MutexLock lock(mu_);
    while (pending_ != 0) done_cv_.Wait(mu_);
    job_ = nullptr;
  }
}

namespace {

// Lock order: g_run_mu before g_pool_mu, declared below and enforced by
// the -Wthread-safety-beta leg. Holding g_run_mu across both the pool
// resolution and the Run call keeps a concurrent PoolWithAtLeast from
// destroying the pool an in-flight ParallelFor is executing on (the
// replacement path also serializes on g_run_mu).
Mutex g_run_mu;  // one fork/join job at a time on the shared pool
Mutex g_pool_mu TKC_ACQUIRED_AFTER(g_run_mu);
std::unique_ptr<ThreadPool> g_pool TKC_GUARDED_BY(g_pool_mu);
thread_local bool tls_in_parallel_for = false;

// Grows (never shrinks) the shared pool to hold at least `threads`
// workers. The returned pool stays alive until the next growth; callers
// that will Run on it must hold g_run_mu across resolution AND the Run so
// a concurrent growth cannot destroy it out from under them.
ThreadPool& PoolWithAtLeast(int threads) TKC_REQUIRES(g_run_mu) {
  MutexLock lock(g_pool_mu);
  if (!g_pool || g_pool->num_threads() < threads) {
    g_pool = std::make_unique<ThreadPool>(threads);
  }
  return *g_pool;
}

// One partition under its parallel_for.chunk slice. The serial path runs
// its single partition through here too, so the phase tree has the same
// span names at any thread count.
void RunChunk(const std::function<void(int, size_t, size_t)>& fn, int worker,
              size_t begin, size_t end) {
  obs::TimelineScope scope("parallel_for.chunk");
  scope.AddArg("worker", static_cast<uint64_t>(worker));
  scope.AddArg("begin", begin);
  scope.AddArg("end", end);
  fn(worker, begin, end);
}

}  // namespace

void ParallelFor(int threads, size_t n,
                 const std::function<void(int, size_t, size_t)>& fn) {
  if (n == 0) return;
  threads = ResolveThreads(threads);
  const int chunks = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(threads), n));
  if (chunks <= 1 || tls_in_parallel_for) {
    // Nested calls degrade to serial instead of deadlocking on the pool.
    RunChunk(fn, 0, 0, n);
    return;
  }
  MutexLock run_lock(g_run_mu);
  ThreadPool& pool = PoolWithAtLeast(chunks);
  pool.Run([&](int worker) {
    if (worker >= chunks) return;
    const size_t begin = n * static_cast<size_t>(worker) /
                         static_cast<size_t>(chunks);
    const size_t end = n * (static_cast<size_t>(worker) + 1) /
                       static_cast<size_t>(chunks);
    if (begin == end) return;
    tls_in_parallel_for = true;
    RunChunk(fn, worker, begin, end);
    tls_in_parallel_for = false;
  });
}

}  // namespace tkc
