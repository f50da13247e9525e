/**
 * @file
 * Bounded MPMC admission queue for the scheduling daemon
 * (docs/ROBUSTNESS.md).
 *
 * The queue is the daemon's backpressure point: its I/O thread
 * tryPush()es and gets an immediate `false` when the queue is full (it
 * answers "rejected" — explicit load shedding, never unbounded
 * buffering), service workers pop() until the queue is closed.
 * close() is the drain barrier: producers can no longer add, and
 * consumers drain what was already admitted before pop() returns
 * nullopt — which is exactly the "finish in-flight, lose nothing
 * accepted" drain contract.
 *
 * Mutex + condvar, deliberately: admission happens once per request
 * (micro- to milliseconds of scheduling work each), so queue overhead
 * is noise and the simple structure is easy to reason about under
 * drain/shutdown.  (The lock-free MPMC designs in the RACoherence
 * lineage trade that simplicity for throughput this path does not
 * need.)
 */

#ifndef SCHED91_SERVICE_BOUNDED_QUEUE_HH
#define SCHED91_SERVICE_BOUNDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace sched91::service
{

template <typename T> class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    /** Admit one item; false when full or closed (shed the load). */
    bool
    tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Take the oldest item, blocking while the queue is open and
     * empty.  nullopt only once the queue is closed *and* drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        notEmpty_.wait(lock,
                       [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        return item;
    }

    /** Stop admitting; wake every blocked consumer.  Items already
     * admitted remain poppable. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        notEmpty_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace sched91::service

#endif // SCHED91_SERVICE_BOUNDED_QUEUE_HH
