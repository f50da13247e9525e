/**
 * @file
 * Cooperative cancellation for bounded scheduling work.
 *
 * The per-block time budget (`--max-block-seconds`) originally fired
 * only at phase boundaries, so one pathological phase — an n**2 build
 * over a huge block, a scheduler scan over a pathological ready list —
 * could blow arbitrarily far past the budget before anyone noticed.  A
 * CancellationToken closes that hole: the budget owner arms a token
 * with a deadline (or cancels it manually) and the hot loops poll it.
 *
 * poll() is cheap enough for inner loops: a relaxed atomic load per
 * call, with the wall-clock deadline checked only once every
 * kPollStride calls.  A token is armed by one owner and polled from
 * the single worker running that block; requestCancel() may be called
 * from any thread (tests cancel from outside).
 */

#ifndef SCHED91_SUPPORT_CANCELLATION_HH
#define SCHED91_SUPPORT_CANCELLATION_HH

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace sched91
{

/** Thrown by CancellationToken::poll() once the token is cancelled.
 * Deliberately NOT a FatalError/PanicError: the pipeline maps it onto
 * the budget rung of the degradation ladder, never onto a fault. */
class CancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One cancellation scope: manual trigger plus optional deadline. */
class CancellationToken
{
  public:
    CancellationToken() = default;

    /** Token that self-cancels once @p seconds of wall-clock elapse
     * (measured from construction).  Non-positive budgets cancel on
     * the first deadline check.  (The atomic member makes the token
     * immovable: construct it in place — emplace / prvalue init.) */
    explicit CancellationToken(double budgetSeconds)
        : hasDeadline_(true),
          deadline_(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(budgetSeconds)))
    {
    }

    /** Trigger cancellation from any thread. */
    void
    requestCancel()
    {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    /** Has the token fired (manually or by deadline)?  Checks the
     * deadline every call — use poll() in hot loops. */
    bool
    cancelled() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        if (hasDeadline_ && Clock::now() >= deadline_) {
            cancelled_.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /**
     * Inner-loop check: throws CancelledError once cancelled.  The
     * deadline clock is consulted only every kPollStride calls, so the
     * steady-state cost is one relaxed load and one counter bump.
     */
    void
    poll() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            throwCancelled();
        if (hasDeadline_ && ++ticks_ >= kPollStride) {
            ticks_ = 0;
            if (Clock::now() >= deadline_) {
                cancelled_.store(true, std::memory_order_relaxed);
                throwCancelled();
            }
        }
    }

    /** What the thrown CancelledError says. */
    void setReason(std::string reason) { reason_ = std::move(reason); }

  private:
    using Clock = std::chrono::steady_clock;
    static constexpr unsigned kPollStride = 256;

    [[noreturn]] void
    throwCancelled() const
    {
        throw CancelledError(reason_.empty() ? "work cancelled"
                                             : reason_);
    }

    mutable std::atomic<bool> cancelled_{false};
    bool hasDeadline_ = false;
    Clock::time_point deadline_{};
    std::string reason_;
    /** Poll-stride counter; touched only by the polling thread. */
    mutable unsigned ticks_ = 0;
};

} // namespace sched91

#endif // SCHED91_SUPPORT_CANCELLATION_HH
