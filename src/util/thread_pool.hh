/**
 * @file
 * Fixed-size worker pool for the engine's parallel hot paths.
 *
 * Three entry points: submit() enqueues an arbitrary task and returns
 * a future, parallelFor() splits an index range into chunks and runs
 * the chunks across the workers with the caller participating, and
 * runTeam() runs one function on a team of threads that meet at a
 * barrier (Team), which is how Sequential::train splits a mini-batch.
 *
 * Determinism contract: parallelFor's chunk boundaries depend only on
 * (count, grain), never on the worker count or scheduling order, so a
 * caller that seeds per-chunk RNGs from the chunk index and combines
 * per-chunk partial results in chunk order is bit-identical across
 * 1, 2 or N workers — and to a fully serial run.
 *
 * Calls from inside a worker thread degrade gracefully: nested
 * parallelFor runs inline, nested submit executes eagerly and a nested
 * runTeam gets a team of one, so a parallel model search whose inner
 * training loops also ask for parallelism cannot deadlock the pool.
 *
 * A team forms only on an idle pool: the caller is not a worker and no
 * task is queued or running. It is then the caller plus every worker
 * but one, taken under the pool's lock, so two callers never share
 * them and a task submitted meanwhile still finds a free worker. The
 * helpers return to the pool when runTeam() returns, so nothing waits
 * on a barrier between calls.
 */

#ifndef GEO_UTIL_THREAD_POOL_HH
#define GEO_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/metrics.hh"

namespace geo {
namespace util {

/**
 * The members of one ThreadPool::runTeam() call, and their barrier.
 */
class Team
{
  public:
    explicit Team(size_t members) : members_(members) {}

    Team(const Team &) = delete;
    Team &operator=(const Team &) = delete;

    size_t size() const { return members_; }

    /**
     * Return once every member has called barrier() as many times as
     * this one. Whatever a member wrote before its call is visible to
     * every member after theirs. A waiting member reads the barrier's
     * generation kSpinReads times (a few microseconds) and then yields
     * the core between reads: a long spin starves the member it waits
     * for when the box is shared, and parking on a futex costs more
     * than a training phase (DESIGN.md section 6 has the measurements).
     */
    void barrier();

    /** Plain reads a waiting member spins before it starts yielding. */
    static constexpr size_t kSpinReads = 2000;

  private:
    const size_t members_;
    alignas(64) std::atomic<size_t> arrived_{0};
    alignas(64) std::atomic<size_t> generation_{0};
};

/**
 * Fixed worker-count thread pool with deterministic parallelFor.
 */
class ThreadPool
{
  public:
    /**
     * @param workers number of worker threads; 0 picks the hardware
     *        concurrency (at least 1).
     */
    explicit ThreadPool(size_t workers = 0);

    /** Joins all workers (pending tasks are drained first). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t workerCount() const { return workers_.size(); }

    /**
     * Enqueue a task and get a future for its result. When called from
     * one of this pool's worker threads the task runs inline (eager)
     * to keep nested fan-outs deadlock-free.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        if (workers_.empty() || onWorkerThread()) {
            (*task)();
            return future;
        }
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Run fn(chunk, begin, end) over [0, count) split into fixed
     * chunks of `grain` indices (the last chunk may be short). The
     * caller thread participates; returns when every chunk completed.
     *
     * Chunk boundaries depend only on (count, grain) — see the
     * determinism contract above.
     */
    void parallelFor(
        size_t count, size_t grain,
        const std::function<void(size_t chunk, size_t begin, size_t end)>
            &fn);

    /**
     * Run fn(member, team) on each member of a team and return when
     * every member has returned. The caller is member 0. On an idle
     * pool (see the file comment) the team is the caller plus
     * workerCount() - 1 workers, else the caller alone. Members meet
     * through team.barrier(); with a team of one it returns at once.
     */
    void runTeam(const std::function<void(size_t member, Team &team)> &fn);

    /** True when the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /**
     * The process-wide pool, sized from the GEO_THREADS environment
     * variable (default: hardware concurrency). Constructed on first
     * use.
     */
    static ThreadPool &global();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    size_t running_ = 0; ///< workers inside a task or a team

    // The forming team (guarded by mutex_): helpers still to start
    // and helpers that have returned.
    const std::function<void(size_t, Team &)> *teamFn_ = nullptr;
    Team *team_ = nullptr;
    size_t teamSlots_ = 0;
    size_t teamReturned_ = 0;
    std::condition_variable teamDone_;

    // Registry handles (resolved in the constructor, so the registry
    // outlives every pool including the global one).
    Counter *tasksMetric_;
    Gauge *queueDepthMetric_;
    Histogram *taskMsMetric_;
};

} // namespace util
} // namespace geo

#endif // GEO_UTIL_THREAD_POOL_HH
