/**
 * @file
 * Unit tests for the chunked self-scheduling thread pool: exact-once
 * coverage of the index range at various thread/chunk geometries,
 * caller participation on the single-lane serial path, exception
 * propagation, pool reuse across parallelFor calls, jobs on a subset
 * of the lanes, and each thread's own lanes (ThreadPool::local).
 *
 * Also holds the BoundedQueue shutdown-ordering races (this binary is
 * the one CI pins under ThreadSanitizer): producers hammering
 * tryPush() while close() lands must never lose or duplicate an
 * accepted item, and every blocked consumer must wake and drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hh"
#include "obs/events.hh"
#include "service/bounded_queue.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace sched91
{
namespace
{

/** Every index in [0, n) must be visited exactly once. */
void
expectExactOnceCoverage(unsigned threads, std::size_t n,
                        std::size_t chunk)
{
    std::vector<std::atomic<int>> hits(n);
    ThreadPool pool(threads);
    pool.parallelFor(n, chunk,
                     [&](unsigned, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i)
                             hits[i].fetch_add(1);
                     });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    expectExactOnceCoverage(1, 100, 1);
    expectExactOnceCoverage(2, 100, 1);
    expectExactOnceCoverage(4, 100, 7);
    expectExactOnceCoverage(8, 1000, 3);
    expectExactOnceCoverage(4, 3, 100); // chunk larger than range
}

TEST(ThreadPool, TheCallerTakesTheFirstChunk)
{
    // Back to back, so lanes are still awake from the call before.
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 200; ++round) {
        std::atomic<bool> first_on_caller{false};
        std::atomic<int> first_calls{0};
        pool.parallelFor(16, 2, [&](unsigned w, std::size_t begin,
                                    std::size_t) {
            if (begin == 0) {
                first_calls.fetch_add(1);
                first_on_caller = w == 0 &&
                                  std::this_thread::get_id() == caller;
            }
        });
        ASSERT_EQ(first_calls.load(), 1);
        ASSERT_TRUE(first_on_caller.load()) << "round " << round;
    }
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, 1, [&](unsigned, std::size_t, std::size_t) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleLaneRunsOnCallingThread)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::thread::id caller = std::this_thread::get_id();
    pool.parallelFor(10, 4,
                     [&](unsigned worker, std::size_t, std::size_t) {
                         EXPECT_EQ(worker, 0u);
                         EXPECT_EQ(std::this_thread::get_id(), caller);
                     });
}

TEST(ThreadPool, WorkerIdsAreInRange)
{
    const unsigned kThreads = 4;
    ThreadPool pool(kThreads);
    std::atomic<bool> bad{false};
    pool.parallelFor(200, 1,
                     [&](unsigned worker, std::size_t, std::size_t) {
                         if (worker >= kThreads)
                             bad = true;
                     });
    EXPECT_FALSE(bad.load());
}

TEST(ThreadPool, FirstExceptionPropagates)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(100, 1,
                         [&](unsigned, std::size_t begin, std::size_t) {
                             if (begin == 50)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives the throw and is reusable.
    std::atomic<int> count{0};
    pool.parallelFor(10, 1, [&](unsigned, std::size_t b, std::size_t e) {
        count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, MultipleFailuresAreCountedNotSwallowed)
{
    // Every one of the 8 chunks throws; the pool must deliver the
    // first error annotated with the other 7, not silently drop them.
    obs::setEnabled(true);
    obs::CounterShard shard;
    obs::ScopedCounterShard scope(shard);

    ThreadPool pool(4);
    try {
        pool.parallelFor(8, 1,
                         [&](unsigned, std::size_t b, std::size_t) {
                             fatal("chunk ", b, " failed");
                         });
        FAIL() << "parallelFor should have thrown";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "(7 additional worker errors suppressed)"),
                  std::string::npos)
            << "message was: " << e.what();
    }

    EXPECT_EQ(shard.value("robust.pool_suppressed_errors"), 7u);
    obs::setEnabled(false);

    // The pool survives the failures and is reusable.
    std::atomic<int> count{0};
    pool.parallelFor(8, 1, [&](unsigned, std::size_t b, std::size_t e) {
        count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, SingleFailureIsNotAnnotated)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(100, 1,
                         [&](unsigned, std::size_t b, std::size_t) {
                             if (b == 50)
                                 fatal("lone failure");
                         });
        FAIL() << "parallelFor should have thrown";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "lone failure");
    }
}

TEST(ThreadPool, PanicKeepsItsTypeWhenAnnotated)
{
    ThreadPool pool(2);
    try {
        pool.parallelFor(4, 1,
                         [&](unsigned, std::size_t, std::size_t) {
                             panic("invariant broken");
                         });
        FAIL() << "parallelFor should have thrown";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("invariant broken"),
                  std::string::npos);
    }
}

TEST(ThreadPool, ReusableAcrossManyCalls)
{
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<long> sum{0};
        pool.parallelFor(100, 5,
                         [&](unsigned, std::size_t b, std::size_t e) {
                             long local = 0;
                             for (std::size_t i = b; i < e; ++i)
                                 local += static_cast<long>(i);
                             sum.fetch_add(local);
                         });
        EXPECT_EQ(sum.load(), 99L * 100L / 2L);
    }
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 1u);
    expectExactOnceCoverage(0, 10, 2);
}

TEST(ThreadPool, HardwareConcurrencyNonZero)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPool, JobOnFewerLanesKeepsWorkerIdsBelowThem)
{
    ThreadPool pool(4);
    for (unsigned lanes : {1u, 2u, 3u}) {
        std::vector<std::atomic<int>> hits(200);
        std::atomic<unsigned> maxWorker{0};
        pool.parallelFor(
            hits.size(), 3,
            [&](unsigned w, std::size_t begin, std::size_t end) {
                unsigned seen = maxWorker.load();
                while (w > seen && !maxWorker.compare_exchange_weak(seen, w)) {
                }
                for (std::size_t i = begin; i < end; ++i)
                    hits[i].fetch_add(1);
            },
            lanes);
        EXPECT_LT(maxWorker.load(), lanes);
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, LocalLanesAreKeptAndGrowOnlyWhenAskedForMore)
{
    std::thread caller([] {
        ThreadPool &two = ThreadPool::local(2);
        EXPECT_EQ(two.threads(), 2u);
        EXPECT_EQ(&ThreadPool::local(2), &two);
        EXPECT_EQ(&ThreadPool::local(1), &two);
        ThreadPool &four = ThreadPool::local(4);
        EXPECT_EQ(four.threads(), 4u);
        EXPECT_EQ(&ThreadPool::local(3), &four);
        EXPECT_EQ(&ThreadPool::local(4), &four);
    });
    caller.join();
    // Another thread never shares them.
    std::thread other([] { EXPECT_EQ(ThreadPool::local(1).threads(), 1u); });
    other.join();
}

TEST(ThreadPool, LocalInsideALaneIsOneLane)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::vector<unsigned> nested(8, 0);
        pool.parallelFor(nested.size(), 1,
                         [&](unsigned, std::size_t begin, std::size_t) {
                             nested[begin] = ThreadPool::local(4).threads();
                         });
        for (unsigned n : nested)
            EXPECT_EQ(n, 1u) << threads << "-lane pool";
    }
    // Outside any lane the caller gets its own lanes again.
    EXPECT_GE(ThreadPool::local(2).threads(), 2u);
}

// --- BoundedQueue shutdown-ordering races ---------------------------
//
// The daemon's drain path closes the queue while connection readers
// are still mid-tryPush and worker lanes are blocked in pop().  The
// accounting contract under that race: every tryPush that returned
// true is popped exactly once, every tryPush after close returns
// false, and no consumer stays blocked.

TEST(BoundedQueue, CloseRaceLosesNothingAccepted)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 2000;

    for (int round = 0; round < 8; ++round) {
        service::BoundedQueue<int> queue(16);
        std::atomic<std::uint64_t> acceptedSum{0}, poppedSum{0};
        std::atomic<std::uint64_t> accepted{0}, popped{0};
        std::atomic<int> producersLive{kProducers};
        std::atomic<bool> go{false};

        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p)
            producers.emplace_back([&, p] {
                while (!go.load(std::memory_order_acquire)) {
                }
                for (int i = 0; i < kPerProducer; ++i) {
                    int item = p * kPerProducer + i + 1;
                    if (queue.tryPush(item)) {
                        acceptedSum.fetch_add(
                            static_cast<std::uint64_t>(item),
                            std::memory_order_relaxed);
                        accepted.fetch_add(1,
                                           std::memory_order_relaxed);
                    }
                    // A rejected push after close must stay rejected.
                    else if (queue.closed()) {
                        EXPECT_FALSE(queue.tryPush(item));
                    }
                }
                producersLive.fetch_sub(1, std::memory_order_relaxed);
            });

        std::vector<std::thread> consumers;
        for (int c = 0; c < kConsumers; ++c)
            consumers.emplace_back([&] {
                while (std::optional<int> item = queue.pop()) {
                    poppedSum.fetch_add(
                        static_cast<std::uint64_t>(*item),
                        std::memory_order_relaxed);
                    popped.fetch_add(1, std::memory_order_relaxed);
                }
            });

        go.store(true, std::memory_order_release);
        // Land close() in the middle of the production burst so some
        // producers see it mid-loop and some consumers are blocked in
        // pop() when it arrives.  (Bail to close() early if rejects
        // ate the burst — consumers would otherwise block forever.)
        while (popped.load(std::memory_order_relaxed) <
                   kPerProducer / 2 &&
               producersLive.load(std::memory_order_relaxed) > 0) {
        }
        queue.close();

        for (std::thread &t : producers)
            t.join();
        for (std::thread &t : consumers)
            t.join();

        // Whatever was accepted was delivered: exactly once, in full.
        EXPECT_EQ(accepted.load(), popped.load());
        EXPECT_EQ(acceptedSum.load(), poppedSum.load());
        EXPECT_EQ(queue.size(), 0u);
        EXPECT_FALSE(queue.tryPush(0));
        EXPECT_EQ(queue.pop(), std::nullopt);
    }
}

TEST(BoundedQueue, CloseWakesBlockedConsumers)
{
    service::BoundedQueue<int> queue(4);
    constexpr int kConsumers = 6;
    std::atomic<int> woke{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c)
        consumers.emplace_back([&] {
            while (queue.pop())
            {
            }
            woke.fetch_add(1);
        });
    // All consumers are (eventually) blocked on an empty open queue;
    // close() alone must release every one of them.
    queue.close();
    for (std::thread &t : consumers)
        t.join();
    EXPECT_EQ(woke.load(), kConsumers);
}

} // namespace
} // namespace sched91
