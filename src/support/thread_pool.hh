/**
 * @file
 * Chunked self-scheduling thread pool, and each thread's own
 * persistent lanes, for the block-parallel pipeline and the parser.
 *
 * Basic blocks are independent units of work — each gets its own DAG,
 * heuristic pass, and schedule — so the whole-program pipeline is
 * embarrassingly parallel at block granularity; the parser's chunks of
 * a large text are too.  The pool runs one persistent worker thread
 * per extra lane; parallelFor() hands out contiguous index chunks
 * through a shared atomic cursor, so fast workers steal the remaining
 * range from slow ones (chunked work stealing) without any per-item
 * locking.  The caller participates as worker 0, so a pool of N
 * threads uses N-1 spawned threads.
 *
 * ThreadPool::local() gives each calling thread its own pool, created
 * on first use, kept for every later runPipeline and parseAssembly
 * call on that thread, and joined when the thread exits: a call pays
 * for waking its lanes, not for starting and joining threads.
 *
 * Determinism contract: the pool imposes no ordering, so callers must
 * write results into pre-sized slots indexed by work item (the
 * pipeline indexes by basic-block id) and do any order-sensitive
 * reduction after parallelFor() returns.
 */

#ifndef SCHED91_SUPPORT_THREAD_POOL_HH
#define SCHED91_SUPPORT_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sched91
{

/** Fixed-size pool whose threads are reused across parallelFor calls. */
class ThreadPool
{
  public:
    /** fn(worker, begin, end): process items [begin, end). */
    using ChunkFn =
        std::function<void(unsigned, std::size_t, std::size_t)>;

    /** std::thread::hardware_concurrency, never 0. */
    static unsigned hardwareConcurrency();

    /**
     * The calling thread's own pool, with at least @p lanes lanes:
     * created on first use, replaced by a larger one only when a call
     * asks for more lanes than any before it, joined when the thread
     * exits.  No other thread uses it.  The reference stays valid
     * until the thread next calls local() from outside a lane.  A call
     * from inside a lane (a pool's worker, or a caller running a
     * parallelFor body) gets a one-lane pool, so nested parallelism
     * runs serially instead of waiting on lanes that are busy with
     * its own caller.
     */
    static ThreadPool &local(unsigned lanes);

    /** @p threads total lanes including the caller; clamped to >= 1. */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const { return nthreads_; }

    /**
     * Run @p fn over [0, n) in chunks of @p chunk items, on the first
     * @p lanes lanes (all of them when 0 or more than threads()), so
     * worker ids stay below that count.  Blocks until every item is
     * done.  The first chunk is always the caller's (worker 0): the
     * pipeline's first is its largest block, whose DAG then lives in
     * the caller's allocator arena, where malloc_trim() can return it,
     * and not in that of a lane still awake from the previous call.
     * The first exception thrown by @p fn is rethrown here
     * (remaining chunks still drain).  Further exceptions are counted,
     * not swallowed: the count lands in the
     * `robust.pool_suppressed_errors` event counter and is appended to
     * the rethrown FatalError/PanicError message, so a multi-lane
     * failure is distinguishable from a single bad chunk.
     */
    void parallelFor(std::size_t n, std::size_t chunk, const ChunkFn &fn,
                     unsigned lanes = 0);

  private:
    void workerMain(unsigned id);
    /** Take chunks until none is left; @p first: start with the
     * first, which no worker takes. */
    void runChunks(unsigned id, bool first);

    unsigned nthreads_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    std::uint64_t generation_ = 0;
    unsigned active_ = 0;
    bool stop_ = false;

    // Current job (published under mu_, consumed lock-free via next_).
    std::atomic<std::size_t> next_{0};
    std::size_t jobSize_ = 0;
    std::size_t jobChunk_ = 1;
    unsigned jobLanes_ = 1; ///< workers with a lower id take part
    const ChunkFn *jobFn_ = nullptr;
    std::exception_ptr firstError_;
    std::size_t suppressed_ = 0; ///< worker errors after the first
};

} // namespace sched91

#endif // SCHED91_SUPPORT_THREAD_POOL_HH
