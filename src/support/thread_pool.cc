#include "support/thread_pool.hh"

#include <memory>
#include <string>
#include <utility>

#include "obs/events.hh"
#include "support/logging.hh"

namespace sched91
{

namespace
{

/** Whether this thread is a lane: a pool's worker, or a caller inside
 * parallelFor. */
thread_local bool t_inLane = false;

/** Marks the calling thread as a lane until the scope ends. */
class LaneScope
{
  public:
    LaneScope() : outer_(std::exchange(t_inLane, true)) {}
    ~LaneScope() { t_inLane = outer_; }

    LaneScope(const LaneScope &) = delete;
    LaneScope &operator=(const LaneScope &) = delete;

  private:
    bool outer_;
};

/** "... (N additional worker error(s) suppressed)" suffix. */
std::string
suppressedSuffix(std::size_t n)
{
    return " (" + std::to_string(n) + " additional worker error" +
           (n == 1 ? "" : "s") + " suppressed)";
}

} // namespace

unsigned
ThreadPool::hardwareConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

ThreadPool &
ThreadPool::local(unsigned lanes)
{
    thread_local ThreadPool serial(1);
    thread_local std::unique_ptr<ThreadPool> own;
    if (t_inLane)
        return serial;
    if (!own || own->threads() < lanes)
        own = std::make_unique<ThreadPool>(lanes);
    return *own;
}

ThreadPool::ThreadPool(unsigned threads)
    : nthreads_(threads == 0 ? 1 : threads)
{
    workers_.reserve(nthreads_ - 1);
    for (unsigned id = 1; id < nthreads_; ++id)
        workers_.emplace_back([this, id] { workerMain(id); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cvStart_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::runChunks(unsigned id, bool first)
{
    for (;; first = false) {
        std::size_t begin =
            first ? 0
                  : next_.fetch_add(jobChunk_, std::memory_order_relaxed);
        if (begin >= jobSize_)
            return;
        std::size_t end = begin + jobChunk_;
        if (end > jobSize_)
            end = jobSize_;
        try {
            (*jobFn_)(id, begin, end);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
            else
                ++suppressed_; // counted under mu_; reported by caller
        }
    }
}

void
ThreadPool::workerMain(unsigned id)
{
    t_inLane = true;
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t seen = 0;
    for (;;) {
        cvStart_.wait(lk,
                      [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        if (id >= jobLanes_)
            continue;
        lk.unlock();
        runChunks(id, false);
        lk.lock();
        if (--active_ == 0)
            cvDone_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t chunk,
                        const ChunkFn &fn, unsigned lanes)
{
    if (n == 0)
        return;
    if (chunk == 0)
        chunk = 1;
    if (lanes == 0 || lanes > nthreads_)
        lanes = nthreads_;
    LaneScope lane_scope;
    if (lanes == 1) {
        // Serial lane: same chunking, no synchronization.
        for (std::size_t begin = 0; begin < n; begin += chunk) {
            std::size_t end = begin + chunk > n ? n : begin + chunk;
            fn(0, begin, end);
        }
        return;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        jobSize_ = n;
        jobChunk_ = chunk;
        jobLanes_ = lanes;
        jobFn_ = &fn;
        firstError_ = nullptr;
        suppressed_ = 0;
        next_.store(chunk, std::memory_order_relaxed); // the caller's
        active_ = lanes - 1;
        ++generation_;
    }
    cvStart_.notify_all();

    runChunks(0, true);

    std::exception_ptr error;
    std::size_t extra;
    {
        std::unique_lock<std::mutex> lk(mu_);
        cvDone_.wait(lk, [&] { return active_ == 0; });
        jobFn_ = nullptr;
        error = std::exchange(firstError_, nullptr);
        extra = std::exchange(suppressed_, 0);
    }
    if (!error)
        return;
    // Count and annotate on the caller's thread: workers have no
    // counter shard installed, so incrementing there would race.
    if (extra == 0)
        std::rethrow_exception(error);
    obs::ev::robustPoolSuppressed.inc(
        static_cast<std::uint64_t>(extra));
    try {
        std::rethrow_exception(error);
    } catch (const PanicError &e) {
        throw PanicError(e.what() + suppressedSuffix(extra));
    } catch (const FatalError &e) {
        throw FatalError(e.what() + suppressedSuffix(extra));
    } catch (const std::exception &e) {
        throw FatalError(e.what() + suppressedSuffix(extra));
    }
    // Non-std exceptions propagate unannotated.
}

} // namespace sched91
