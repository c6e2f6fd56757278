/**
 * @file
 * Tests for the worker pool behind the parallel inference engine:
 * futures from submit(), the parallelFor determinism contract (chunk
 * boundaries depend only on (count, grain), never on worker count),
 * and deadlock freedom for nested submission from a worker thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "util/random.hh"
#include "util/thread_pool.hh"

namespace geo {
namespace util {
namespace {

TEST(ThreadPool, SubmitReturnsFutureValue)
{
    ThreadPool pool(2);
    std::future<int> value = pool.submit([]() { return 41 + 1; });
    EXPECT_EQ(value.get(), 42);
}

TEST(ThreadPool, SubmitManyAllComplete)
{
    ThreadPool pool(4);
    std::vector<std::future<size_t>> futures;
    for (size_t i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (size_t i = 0; i < 64; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(1);
    std::future<int> value = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(value.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    for (size_t workers : {1u, 2u, 8u}) {
        ThreadPool pool(workers);
        std::vector<std::atomic<int>> hits(103);
        pool.parallelFor(103, 7, [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForChunkBoundariesIndependentOfWorkers)
{
    // The determinism contract: (chunk, begin, end) triples are a pure
    // function of (count, grain).
    auto boundaries = [](size_t workers) {
        ThreadPool pool(workers);
        std::mutex mutex;
        std::set<std::tuple<size_t, size_t, size_t>> seen;
        pool.parallelFor(1000, 13,
                         [&](size_t chunk, size_t begin, size_t end) {
                             std::lock_guard<std::mutex> lock(mutex);
                             seen.insert({chunk, begin, end});
                         });
        return seen;
    };
    auto one = boundaries(1);
    EXPECT_EQ(boundaries(2), one);
    EXPECT_EQ(boundaries(8), one);
}

TEST(ThreadPool, ChunkedReductionBitIdenticalAcrossWorkerCounts)
{
    // Per-chunk pseudo-random work reduced in chunk order must not
    // depend on scheduling. This is the pattern the parallel GEMM and
    // the batched scorer rely on.
    auto reduce = [](size_t workers) {
        ThreadPool pool(workers);
        std::vector<double> partial(16, 0.0);
        pool.parallelFor(
            1024, 64, [&](size_t chunk, size_t begin, size_t end) {
                Rng rng(static_cast<uint64_t>(chunk) ^ 0x9e3779b9ull);
                double sum = 0.0;
                for (size_t i = begin; i < end; ++i)
                    sum += rng.uniform(0.0, 1.0) *
                           static_cast<double>(i + 1);
                partial[chunk] = sum;
            });
        // Fixed left-to-right accumulation order.
        double total = 0.0;
        for (double value : partial)
            total += value;
        return total;
    };
    double serial = reduce(1);
    EXPECT_EQ(reduce(2), serial);
    EXPECT_EQ(reduce(8), serial);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(0, 4,
                     [&](size_t, size_t, size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NestedSubmitFromWorkerDoesNotDeadlock)
{
    // table1_2 submits scoreModelAveraged tasks whose bodies submit
    // per-seed trials to the same pool: the inner tasks must run
    // inline on the worker instead of waiting for a free slot.
    ThreadPool pool(1); // single worker = the pathological case
    std::future<int> outer = pool.submit([&pool]() {
        std::future<int> inner = pool.submit([]() { return 7; });
        return inner.get() + 1;
    });
    EXPECT_EQ(outer.get(), 8);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(1);
    std::future<double> outer = pool.submit([&pool]() {
        double sum = 0.0;
        pool.parallelFor(10, 3, [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                sum += static_cast<double>(i);
        });
        return sum;
    });
    EXPECT_DOUBLE_EQ(outer.get(), 45.0);
}

TEST(ThreadPool, TeamBarrierPublishesEveryMembersWrites)
{
    // Teams of 1 to 4, many rounds: after each barrier every member
    // reads, through plain memory, what each member wrote before it.
    for (size_t workers = 1; workers <= 4; ++workers) {
        ThreadPool pool(workers);
        std::vector<size_t> slots(workers, 0);
        std::atomic<size_t> size{0}, mismatches{0};
        pool.runTeam([&](size_t member, Team &team) {
            if (member == 0)
                size = team.size();
            for (size_t round = 1; round <= 2000; ++round) {
                slots[member] = round * 10 + member;
                team.barrier();
                for (size_t m = 0; m < team.size(); ++m)
                    if (slots[m] != round * 10 + m)
                        mismatches.fetch_add(1);
                team.barrier();
            }
        });
        EXPECT_EQ(size.load(), workers);
        EXPECT_EQ(mismatches.load(), 0u) << workers << " members";
    }
}

TEST(ThreadPool, TeamFormsOnlyOnAnIdlePool)
{
    ThreadPool pool(3);
    auto teamSize = [&pool]() {
        size_t size = 0;
        pool.runTeam([&](size_t member, Team &team) {
            if (member == 0)
                size = team.size();
        });
        return size;
    };
    // An idle caller: itself plus every worker but one.
    EXPECT_EQ(teamSize(), 3u);
    // While a team runs its helpers are taken, so the caller of a
    // second runTeam (here member 0 itself) runs alone.
    size_t outer = 0, nested = 0;
    pool.runTeam([&](size_t member, Team &team) {
        if (member == 0) {
            outer = team.size();
            nested = teamSize();
        }
    });
    EXPECT_EQ(outer, 3u);
    EXPECT_EQ(nested, 1u);
    // From a worker.
    EXPECT_EQ(pool.submit(teamSize).get(), 1u);
    // While a task is queued or running.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::future<void> blocker = pool.submit([gate]() { gate.wait(); });
    EXPECT_EQ(teamSize(), 1u);
    release.set_value();
    blocker.get();
}

TEST(ThreadPool, GlobalPoolIsSingleton)
{
    EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
    EXPECT_GE(ThreadPool::global().workerCount(), 1u);
}

} // namespace
} // namespace util
} // namespace geo
