/**
 * @file
 * d-ary max-heap over externally owned storage.
 *
 * The list scheduler's ready list is consumed by repeated extract-max
 * under a strict total order (ranked heuristic tuple, then original
 * program order).  A d-ary layout (d = 4 by default) trades slightly
 * more sift-down comparisons for a much shallower tree and cache-line
 * friendly child groups — the classic choice when pops dominate and
 * the element type is a small index.
 *
 * The comparator defines a *strict total order* ("a outranks b"); with
 * that, the pop sequence is unique and independent of push order,
 * which is what lets the scheduler swap its O(n) scan for the heap
 * without changing a single schedule.
 */

#ifndef SCHED91_SUPPORT_DARY_HEAP_HH
#define SCHED91_SUPPORT_DARY_HEAP_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace sched91
{

template <typename T, typename Outranks, unsigned D = 4>
class DaryHeap
{
    static_assert(D >= 2, "a heap needs at least two children per node");

  public:
    /**
     * @p outranks(a, b) — true when a must pop before b.  When
     * @p storage is non-null the heap borrows it (cleared on entry) so
     * callers can reuse capacity across runs.
     */
    explicit DaryHeap(Outranks outranks, std::vector<T> *storage = nullptr)
        : heap_(storage ? storage : &own_), outranks_(std::move(outranks))
    {
        heap_->clear();
    }

    bool empty() const { return heap_->empty(); }
    std::size_t size() const { return heap_->size(); }

    void
    push(T v)
    {
        heap_->push_back(std::move(v));
        siftUp(heap_->size() - 1);
    }

    /** The top (maximum) element; the heap must not be empty. */
    const T &top() const { return heap_->front(); }

    /** Remove and return the top (maximum) element. */
    T
    pop()
    {
        std::vector<T> &h = *heap_;
        T top = std::move(h.front());
        h.front() = std::move(h.back());
        h.pop_back();
        if (!h.empty())
            siftDown(0);
        return top;
    }

  private:
    void
    siftUp(std::size_t i)
    {
        std::vector<T> &h = *heap_;
        while (i > 0) {
            std::size_t parent = (i - 1) / D;
            if (!outranks_(h[i], h[parent]))
                return;
            std::swap(h[i], h[parent]);
            i = parent;
        }
    }

    void
    siftDown(std::size_t i)
    {
        std::vector<T> &h = *heap_;
        const std::size_t n = h.size();
        for (;;) {
            std::size_t first = i * D + 1;
            if (first >= n)
                return;
            std::size_t best = first;
            std::size_t last = first + D < n ? first + D : n;
            for (std::size_t c = first + 1; c < last; ++c)
                if (outranks_(h[c], h[best]))
                    best = c;
            if (!outranks_(h[best], h[i]))
                return;
            std::swap(h[i], h[best]);
            i = best;
        }
    }

    std::vector<T> own_;
    std::vector<T> *heap_;
    Outranks outranks_;
};

} // namespace sched91

#endif // SCHED91_SUPPORT_DARY_HEAP_HH
