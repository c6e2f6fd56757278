#include "util/thread_pool.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/logging.hh"
#include "util/parse.hh"

namespace geo {
namespace util {

namespace {

/** The pool (if any) whose worker loop the current thread runs. */
thread_local const ThreadPool *t_worker_pool = nullptr;

} // namespace

ThreadPool::ThreadPool(size_t workers)
{
    auto &registry = MetricRegistry::global();
    tasksMetric_ = &registry.counter("pool.tasks");
    queueDepthMetric_ = &registry.gauge("pool.queue_depth");
    taskMsMetric_ = &registry.histogram("pool.task_ms");
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

bool
ThreadPool::onWorkerThread() const
{
    return t_worker_pool == this;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        queueDepthMetric_->set(static_cast<double>(queue_.size()));
    }
    tasksMetric_->inc();
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    t_worker_pool = this;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            queueDepthMetric_->set(static_cast<double>(queue_.size()));
        }
        auto start = std::chrono::steady_clock::now();
        task();
        taskMsMetric_->record(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count());
    }
}

void
ThreadPool::parallelFor(
    size_t count, size_t grain,
    const std::function<void(size_t, size_t, size_t)> &fn)
{
    if (count == 0)
        return;
    if (grain == 0)
        grain = 1;
    // Chunk boundaries are a pure function of (count, grain): the
    // determinism contract. Worker count only affects who runs what.
    const size_t chunks = (count + grain - 1) / grain;

    auto run_chunk = [&](size_t chunk) {
        size_t begin = chunk * grain;
        size_t end = std::min(count, begin + grain);
        fn(chunk, begin, end);
    };

    if (workers_.empty() || chunks == 1 || onWorkerThread()) {
        for (size_t chunk = 0; chunk < chunks; ++chunk)
            run_chunk(chunk);
        return;
    }

    struct ForState
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex mutex;
        std::condition_variable finished;
    };
    auto state = std::make_shared<ForState>();

    auto claim_loop = [&fn, state, count, grain, chunks]() {
        for (;;) {
            size_t chunk = state->next.fetch_add(1);
            if (chunk >= chunks)
                return;
            size_t begin = chunk * grain;
            size_t end = std::min(count, begin + grain);
            fn(chunk, begin, end);
            if (state->done.fetch_add(1) + 1 == chunks) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->finished.notify_all();
            }
        }
    };

    size_t helpers = std::min(workers_.size(), chunks - 1);
    for (size_t i = 0; i < helpers; ++i)
        enqueue(claim_loop);
    claim_loop(); // the caller participates

    std::unique_lock<std::mutex> lock(state->mutex);
    state->finished.wait(lock,
                         [&]() { return state->done.load() == chunks; });
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool([]() -> size_t {
        if (const char *env = std::getenv("GEO_THREADS")) {
            uint64_t parsed = 0;
            if (parseU64(env, parsed) && parsed >= 1)
                return static_cast<size_t>(parsed);
            warn("GEO_THREADS=%s is not a positive integer; using "
                 "hardware concurrency", env);
        }
        return 0; // ThreadPool picks hardware concurrency
    }());
    return pool;
}

} // namespace util
} // namespace geo
