/**
 * @file
 * Event counters: the observability layer's answer to the paper's
 * Table 1 cost legend.  Every heuristic is classified by *when* its
 * work happens — 'a' at add-arc time, 'f' in the forward pass, 'b' in
 * the backward pass, 'v' at node visitation — and the counters count
 * exactly those events (`dag.arcs_added`, `heur.forward_visits`,
 * `sched.node_visits`, ...), turning the classification into
 * measurable quantities per run, per block, and per phase.
 *
 * Design:
 *
 *  - the roster is fixed at build time: one table, obs::kCounters in
 *    obs/events.hh, gives each counter its name and kind, and a
 *    counter's id is its index there;
 *  - instrumentation sites hold a Counter handle (that index);
 *    increments cost a single predictable branch on the global enable
 *    flag — nothing else — so the hot paths of Tables 4/5 are
 *    unaffected when observability is off (the default);
 *  - counts live only in shards: with observability on, an increment
 *    goes to the calling thread's installed CounterShard, and a thread
 *    with none keeps nothing;
 *  - values travel by counter id until output: a CounterShard is a
 *    flat array of slots indexed like the table, and names are
 *    resolved (CounterShard::named) only when a document is written.
 *
 * Parallel runs count per worker: the pipeline installs one shard per
 * lane (ScopedCounterShard), instrumentation sites count into it, and
 * after the parallel region the shards fold, in a fixed order, into
 * the run's total, which then folds into the caller's installed shard
 * (the CLI's session shard, a daemon lane's shard).  The same
 * id-indexed arrays serve as phase-boundary snapshots, per-phase and
 * per-event deltas, and phase tree nodes.  Each counter carries a
 * CounterKind so folds know how to combine values: Sum counters add,
 * Max counters (gauges such as `sched.ready_list_peak`) take the
 * high-water mark.  Folds read the kinds from the table, one pass per
 * fold.
 *
 * Hot loops do not call a Counter per event.  They count into a
 * CountBatch (or a member that plays its part, such as the Dag's arc
 * tallies) and add the total once per build or pass, as its scope
 * ends or unwinds.  The batch ends inside the phase its events belong
 * to, so per-phase deltas read exactly what per-event increments
 * gave, and work cut short by a throw still counts what it did.
 */

#ifndef SCHED91_OBS_COUNTERS_HH
#define SCHED91_OBS_COUNTERS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sched91::obs
{

class CounterShard;

/** How concurrent observations of one counter combine. */
enum class CounterKind : std::uint8_t
{
    Sum, ///< monotone event count; shards add
    Max, ///< high-water gauge; shards take the maximum
};

/** One entry of the counter roster (obs::kCounters, obs/events.hh). */
struct CounterDef
{
    std::string_view name;
    CounterKind kind = CounterKind::Sum;
};

/** The kind of roster counter @p name; Sum for a name outside the
 * roster (an `svc.*` tally, say). */
CounterKind kindOf(std::string_view name);

namespace detail
{
/** Global enable flag; read on every increment, written rarely. */
inline bool g_enabled = false;

/** Shard the calling thread routes increments into (none by default). */
inline thread_local CounterShard *t_shard = nullptr;
} // namespace detail

/** Whether event counting and phase-tree profiling are active. */
inline bool enabled() { return detail::g_enabled; }

/** Turn the observability layer on or off (off by default). */
void setEnabled(bool on);

/**
 * An ordered name -> value mapping: a shard's counters by name
 * (CounterShard::named), or tallies kept elsewhere, such as the
 * daemon's `svc.*` ones.  Plain data, mergeable.
 */
class CounterSet
{
  public:
    using Item = std::pair<std::string, std::uint64_t>;

    CounterSet() = default;

    /** Add (or overwrite) one entry. */
    void set(std::string name, std::uint64_t value);

    /** Value by name; 0 when absent. */
    std::uint64_t value(std::string_view name) const;

    bool contains(std::string_view name) const;

    /** Sum @p other into this set, name by name. */
    void merge(const CounterSet &other);

    /** Copy with zero-valued entries dropped. */
    CounterSet nonzero() const;

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    /** Entries in ascending name order. */
    const std::vector<Item> &items() const { return items_; }

    friend bool
    operator==(const CounterSet &a, const CounterSet &b)
    {
        return a.items_ == b.items_;
    }

  private:
    friend class CounterShard; ///< named(): appends in name order

    std::vector<Item> items_; ///< kept sorted by name

    std::vector<Item>::iterator lowerBound(std::string_view name);
    std::vector<Item>::const_iterator
    lowerBound(std::string_view name) const;
};

/**
 * Counter values indexed by roster id: the one counter
 * representation.  As a thread's installed shard it takes that
 * thread's increments, so workers never write the same memory; as a
 * copy it is a phase-boundary snapshot, a delta, or a phase-tree node.
 * Folds (flushInto) are kind-aware, and names are looked up only by
 * named() and value(name), when output is written.  A shard allocates
 * nothing until something is counted into it.
 *
 * The pipeline clears its worker shards at each block boundary, which
 * also makes Max gauges *per-block* peaks — exactly the value a
 * per-block delta should report, independent of which blocks ran
 * earlier on the same worker.
 */
class CounterShard
{
  public:
    void
    add(std::size_t id, std::uint64_t n)
    {
        if (slots_.empty())
            allocate();
        slots_[id] += n;
    }

    void
    recordMax(std::size_t id, std::uint64_t v)
    {
        if (slots_.empty())
            allocate();
        if (v > slots_[id])
            slots_[id] = v;
    }

    std::uint64_t
    value(std::size_t id) const
    {
        return id < slots_.size() ? slots_[id] : 0;
    }

    /** Value by name, 0 when the roster has no such counter.  A scan
     * of the roster: for tests and reports, not for hot paths. */
    std::uint64_t value(std::string_view name) const;

    /** Whether every slot is zero. */
    bool empty() const;

    /** Zero every slot (capacity is kept for reuse). */
    void clear();

    /**
     * This copy less @p before, an earlier copy of the same per-block
     * shard.  Sum counters subtract; a Max gauge keeps this copy's
     * value, since a shard cleared per block already holds the
     * interval's peak.
     */
    CounterShard since(const CounterShard &before) const;

    /** Fold @p now.since(@p before) into this shard (kind-aware), in
     * one pass and without the intermediate copy. */
    void foldSince(const CounterShard &now, const CounterShard &before);

    /** Every roster name with this shard's value, in name order:
     * where ids become names, once per run result or document. */
    CounterSet named() const;

    /** Fold this shard into another (kind-aware). */
    void flushInto(CounterShard &into) const;

    /** Fold into the calling thread's installed shard, if it has one. */
    void flushIntoActive() const;

  private:
    /** One zeroed slot per roster counter. */
    void allocate();

    std::vector<std::uint64_t> slots_;
};

/** RAII installer: route this thread's counter traffic into @p shard. */
class ScopedCounterShard
{
  public:
    explicit ScopedCounterShard(CounterShard &shard)
        : prev_(detail::t_shard)
    {
        detail::t_shard = &shard;
    }

    ~ScopedCounterShard() { detail::t_shard = prev_; }

    ScopedCounterShard(const ScopedCounterShard &) = delete;
    ScopedCounterShard &operator=(const ScopedCounterShard &) = delete;

  private:
    CounterShard *prev_;
};

/**
 * Cheap instrumentation handle: a counter's roster id, fixed at build
 * time.  Intended for the namespace-scope constants of obs/events.hh.
 * The hot-path cost of inc()/max() with observability disabled is the
 * single branch the acceptance contract allows.  When enabled,
 * increments go to the calling thread's installed CounterShard; a
 * thread with none keeps nothing.
 */
class Counter
{
  public:
    /** The handle of roster counter @p name, looked up as it compiles
     * (defined with the roster, in obs/events.hh): a name the roster
     * lacks does not compile. */
    consteval explicit Counter(std::string_view name);

    void
    inc(std::uint64_t n = 1) const
    {
        if (!detail::g_enabled)
            return;
        if (CounterShard *shard = detail::t_shard)
            shard->add(id_, n);
    }

    /** Record a high-water mark (gauge-style counter). */
    void
    max(std::uint64_t v) const
    {
        if (!detail::g_enabled)
            return;
        if (CounterShard *shard = detail::t_shard)
            shard->recordMax(id_, v);
    }

    constexpr std::size_t id() const { return id_; }
    std::string_view name() const;

  private:
    std::size_t id_;
};

/**
 * One event count kept in a local by a hot loop and added to its
 * Counter once, as the batch goes out of scope: normal exit or unwind
 * (a CancelledError, std::bad_alloc or injected fault still counts
 * every event before the throw).  With observability off it costs an
 * add per event and one branch at the end.  A batch must end inside
 * the phase its events belong to.
 */
class CountBatch
{
  public:
    explicit CountBatch(Counter counter) : counter_(counter) {}

    ~CountBatch()
    {
        if (n_ != 0)
            counter_.inc(n_);
    }

    CountBatch(const CountBatch &) = delete;
    CountBatch &operator=(const CountBatch &) = delete;

    void add(std::uint64_t n = 1) { n_ += n; }

  private:
    Counter counter_;
    std::uint64_t n_ = 0;
};

} // namespace sched91::obs

#endif // SCHED91_OBS_COUNTERS_HH
