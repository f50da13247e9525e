/**
 * @file
 * Fixed log-bucketed histograms for latency and size distributions —
 * the per-block timing *distributions* behind the paper's F1/F2
 * curves and Tables 4/5, which scalar per-phase totals cannot show
 * (a run dominated by one 11750-instruction block and a run of
 * uniformly slow blocks have the same totals but opposite p99s).
 *
 * Design mirrors the counter layer (obs/counters.hh):
 *
 *  - a Histogram is a fixed array of power-of-two buckets holding
 *    exact event counts — recording is a bit-width computation and
 *    one increment, no allocation, no locks;
 *  - the pipeline records per-block samples after the join, in block
 *    order; bucket counts add associatively and commutatively, so the
 *    result is identical at every thread count (for value streams
 *    that are themselves deterministic, e.g. block sizes; latency
 *    streams get identical counts and run-dependent bucket placement);
 *  - percentiles are extracted from the bucket counts: p50/p90/p99
 *    report the inclusive upper bound of the bucket containing the
 *    rank (clamped to the observed maximum), p100 is the exact max.
 *
 * Values are unsigned integers; latencies are recorded in
 * nanoseconds.
 */

#ifndef SCHED91_OBS_HISTOGRAM_HH
#define SCHED91_OBS_HISTOGRAM_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sched91::obs
{

/**
 * Log2-bucketed distribution of unsigned integer values with exact
 * per-bucket counts.  Bucket 0 holds the value 0; bucket i >= 1 holds
 * values in [2^(i-1), 2^i - 1].  65 buckets cover the full uint64
 * range.
 */
class Histogram
{
  public:
    static constexpr std::size_t kNumBuckets = 65;

    /** Bucket index a value lands in (== bit width of the value). */
    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /** Inclusive lower bound of bucket @p i. */
    static constexpr std::uint64_t
    bucketLo(std::size_t i)
    {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /** Inclusive upper bound of bucket @p i. */
    static constexpr std::uint64_t
    bucketHi(std::size_t i)
    {
        if (i == 0)
            return 0;
        if (i >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << i) - 1;
    }

    void
    record(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return i < kNumBuckets ? buckets_[i] : 0;
    }

    /**
     * Value at percentile @p p in [0, 100]: the inclusive upper bound
     * of the bucket containing rank ceil(p/100 * count), clamped to
     * the observed max (so percentile(100) is the exact maximum and
     * no percentile overstates the data).  0 when empty.
     */
    std::uint64_t percentile(double p) const;

    /** Bucket-count addition — associative, commutative, and
     * order-independent, the property the per-worker shard merge
     * depends on. */
    void merge(const Histogram &other);

    friend bool
    operator==(const Histogram &a, const Histogram &b)
    {
        return a.count_ == b.count_ && a.sum_ == b.sum_ &&
               a.min() == b.min() && a.max_ == b.max_ &&
               a.buckets_ == b.buckets_;
    }

  private:
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * Ordered name -> Histogram mapping, the histogram analogue of
 * CounterSet.  Not synchronized: one owner records into it (a run's
 * result after the join, the daemon's published set under its lock).
 *
 * Naming convention: histograms of wall-clock durations end in
 * `_ns` (values in nanoseconds) — the emitter uses the suffix to
 * zero them under `--zero-times`.
 */
class HistogramSet
{
  public:
    using Item = std::pair<std::string, Histogram>;

    /** Histogram by name, created empty on first use. */
    Histogram &get(std::string_view name);

    /** Histogram by name, nullptr when absent. */
    const Histogram *find(std::string_view name) const;

    void
    record(std::string_view name, std::uint64_t v)
    {
        get(name).record(v);
    }

    /** Merge every histogram of @p other into this set, name by
     * name. */
    void merge(const HistogramSet &other);

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    /** Entries in ascending name order. */
    const std::vector<Item> &items() const { return items_; }

    friend bool
    operator==(const HistogramSet &a, const HistogramSet &b)
    {
        return a.items_ == b.items_;
    }

  private:
    std::vector<Item> items_; ///< kept sorted by name
};

/** True when @p name follows the duration-histogram convention. */
bool isTimeHistogram(std::string_view name);

/** Convert seconds to the nanosecond unit histograms record. */
inline std::uint64_t
secondsToNs(double seconds)
{
    return seconds <= 0.0
               ? 0
               : static_cast<std::uint64_t>(seconds * 1e9);
}

/** Fixed-width text table (count/p50/p90/p99/max per histogram) for
 * the CLI `--histograms` flag. */
std::string renderHistograms(const HistogramSet &hists);

} // namespace sched91::obs

#endif // SCHED91_OBS_HISTOGRAM_HH
