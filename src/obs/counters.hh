/**
 * @file
 * Event-counter registry: the observability layer's answer to the
 * paper's Table 1 cost legend.  Every heuristic is classified by
 * *when* its work happens — 'a' at add-arc time, 'f' in the forward
 * pass, 'b' in the backward pass, 'v' at node visitation — and the
 * counters here count exactly those events (`dag.arcs_added`,
 * `heur.forward_visits`, `sched.node_visits`, ...), turning the
 * classification into measurable quantities per run, per block, and
 * per phase.
 *
 * Design (gem5-style stats registry discipline):
 *
 *  - a process-wide CounterRegistry holds named 64-bit slots with
 *    stable addresses;
 *  - instrumentation sites hold a Counter handle (one pointer);
 *    increments cost a single predictable branch on the global
 *    enable flag — nothing else — so the hot paths of Tables 4/5
 *    are unaffected when observability is off (the default);
 *  - values travel by counter id until output: a CounterShard is a
 *    flat array of slots indexed like the registry, and names are
 *    resolved (CounterShard::named) only when a document is written.
 *
 * Parallel runs route increments into shards: the pipeline installs
 * one per worker (ScopedCounterShard), instrumentation sites count
 * into it, and after the parallel region the shards fold, in a fixed
 * order, into the run's total.  The same id-indexed arrays serve as
 * phase-boundary snapshots, per-phase and per-event deltas, and phase
 * tree nodes.  Each counter carries a CounterKind so folds know how to
 * combine values: Sum counters add, Max counters (gauges such as
 * `sched.ready_list_peak`) take the high-water mark.  Folds read the
 * kinds from one flat array (CounterRegistry::kinds), one pass per
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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
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
 * An ordered name -> value mapping: a snapshot of a registry, or a
 * delta between two snapshots.  Plain data, mergeable.
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
 * Registry of named counters.  One process-wide instance backs the
 * instrumented library; tests may create private instances.
 *
 * Registration, name-indexed reads, snapshots and shard flushes are
 * internally locked: a handle may bind on whatever thread first uses
 * it, and concurrent pipelines without an installed shard flush their
 * run totals here.  Id-indexed hot-path accessors (size, increment,
 * value, kind, slotAddress) stay lock-free: every per-id container is
 * a deque, so registration never relocates an existing slot, and the
 * size is published only after the new slot is in place.
 */
class CounterRegistry
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** The process-wide registry the Counter handles bind to. */
    static CounterRegistry &global();

    CounterRegistry() = default;
    CounterRegistry(const CounterRegistry &) = delete;
    CounterRegistry &operator=(const CounterRegistry &) = delete;

    /**
     * Register a new counter.  A duplicate name is a programming
     * error and panics; use getOrAdd() for idempotent binding.
     */
    std::size_t add(std::string_view name,
                    CounterKind kind = CounterKind::Sum);

    /** Id of an existing counter, or register it. */
    std::size_t getOrAdd(std::string_view name,
                         CounterKind kind = CounterKind::Sum);

    /** Id by name, npos when absent. */
    std::size_t find(std::string_view name) const;

    std::size_t size() const { return size_.load(); }
    const std::string &name(std::size_t id) const { return names_[id]; }
    CounterKind kind(std::size_t id) const { return kinds()[id]; }

    /**
     * Every counter's kind, indexed by id: a flat array valid for each
     * id below a size() read before the call.  Lock-free, so folds read
     * it once and index it per counter.
     */
    const CounterKind *kinds() const { return kinds_.load(); }
    std::uint64_t value(std::size_t id) const { return slots_[id]; }

    /** Kind by name; Sum when the name is not registered. */
    CounterKind kindByName(std::string_view name) const;

    /** Value by name; 0 when absent (so probes never fault). */
    std::uint64_t valueByName(std::string_view name) const;

    void increment(std::size_t id, std::uint64_t by = 1)
    {
        slots_[id] += by;
    }

    /** Raise a high-water-mark counter to @p v if it is larger. */
    void recordMax(std::size_t id, std::uint64_t v)
    {
        if (v > slots_[id])
            slots_[id] = v;
    }

    /** Zero every slot (registrations are kept). */
    void resetAll();

    /** Snapshot of all counters. */
    CounterSet snapshot() const;

    /** Every id in ascending name order, the order a CounterSet keeps:
     * built once and cached until the next registration. */
    std::shared_ptr<const std::vector<std::size_t>> idsByName() const;

    /** now - before, name by name (names absent from @p before count
     * from zero). */
    CounterSet deltaSince(const CounterSet &before) const;

    /** Stable slot address for handle-based increments. */
    std::uint64_t *slotAddress(std::size_t id) { return &slots_[id]; }

  private:
    friend class CounterShard; ///< locked flushes

    std::size_t addLocked(std::string_view name, CounterKind kind);
    std::size_t findLocked(std::string_view name) const;

    /** Guards registration, the name index and whole-registry reads
     * and writes; by-id access needs no lock (deques keep existing
     * elements in place on append, and kinds() is published). */
    mutable std::mutex regMu_;
    std::deque<std::string> names_;
    std::deque<std::uint64_t> slots_; ///< deque: stable addresses
    /** kinds()'s storage.  A registration past the last table's
     * capacity publishes a copy twice as large; older tables stay
     * alive for readers that loaded them. */
    std::vector<std::unique_ptr<CounterKind[]>> kindTables_;
    std::size_t kindCapacity_ = 0;
    std::atomic<const CounterKind *> kinds_{nullptr};
    std::map<std::string, std::size_t, std::less<>> index_;
    std::atomic<std::size_t> size_{0}; ///< ids below it are complete
    /** idsByName()'s cache; stale once its size falls behind. */
    mutable std::shared_ptr<const std::vector<std::size_t>> byName_;
};

/**
 * Bookkeeping for periodic delta emission (`--snapshot-seconds`):
 * remembers the previous observation and yields the kind-aware delta
 * each time a new snapshot arrives.  Sum counters subtract (clamped at
 * zero, so a reset source never yields an underflowed delta); Max
 * gauges report the current value as-is — a high-water mark has no
 * meaningful subtraction.  Names only in the previous observation are
 * dropped; names unknown to the registry count as Sum.  The first
 * advance() deltas against zero, so the first emitted snapshot covers
 * everything since startup.
 */
class SnapshotDeltaTracker
{
  public:
    explicit SnapshotDeltaTracker(const CounterRegistry &registry)
        : registry_(&registry)
    {
    }

    /** Delta of @p now against the previous call; remembers @p now. */
    CounterSet advance(const CounterSet &now);

  private:
    const CounterRegistry *registry_;
    CounterSet last_;
};

/**
 * Counter values indexed by registry id: the one in-flight counter
 * representation.  As a thread's installed shard it takes the
 * increments instead of the shared registry slots, so workers never
 * write the same memory; as a copy it is a phase-boundary snapshot, a
 * delta, or a phase-tree node.  Folds (flushInto) are kind-aware, and
 * names are looked up only by named() and value(name), when output is
 * written.
 *
 * The pipeline clears its worker shards at each block boundary, which
 * also makes Max gauges *per-block* peaks — exactly the value a
 * per-block delta should report, independent of which blocks ran
 * earlier on the same worker.
 */
class CounterShard
{
  public:
    /** An all-zero shard of the global registry. */
    CounterShard() : CounterShard(CounterRegistry::global()) {}

    explicit CounterShard(CounterRegistry &registry)
        : registry_(&registry)
    {
    }

    CounterRegistry &registry() const { return *registry_; }

    void
    add(std::size_t id, std::uint64_t n)
    {
        grow(id);
        slots_[id] += n;
    }

    void
    recordMax(std::size_t id, std::uint64_t v)
    {
        grow(id);
        if (v > slots_[id])
            slots_[id] = v;
    }

    std::uint64_t
    value(std::size_t id) const
    {
        return id < slots_.size() ? slots_[id] : 0;
    }

    /** Value by name, 0 when absent.  The lookup locks the registry:
     * for tests and reports, not for hot paths. */
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

    /** Every registry name with this shard's value, in name order:
     * where ids become names, once per run result or document.  One
     * append per counter, in the registry's cached name order. */
    CounterSet named() const;

    /** Fold this shard into another (kind-aware); both must mirror the
     * same registry. */
    void flushInto(CounterShard &into) const;

    /** Fold this shard into the shared registry slots (kind-aware),
     * under the registry's lock. */
    void flushInto(CounterRegistry &into) const;

    /** Fold into the calling thread's active sink: its installed shard
     * if that mirrors the same registry, else the registry itself. */
    void flushIntoActive() const;

  private:
    void
    grow(std::size_t id)
    {
        if (id >= slots_.size())
            slots_.resize(std::max(registry_->size(), id + 1), 0);
    }

    CounterRegistry *registry_;
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
 * Cheap instrumentation handle bound to one registry slot.  Intended
 * for namespace-scope inline definitions (see obs/events.hh): binding
 * happens once at static initialization, and the hot-path cost of
 * inc()/max() with observability disabled is the single branch the
 * acceptance contract allows.  When enabled, increments divert to the
 * calling thread's installed CounterShard, if any.
 */
class Counter
{
  public:
    /** Bind to (registering if needed) @p name in the global registry. */
    explicit Counter(const char *name,
                     CounterKind kind = CounterKind::Sum)
        : Counter(CounterRegistry::global(), name, kind)
    {
    }

    Counter(CounterRegistry &registry, const char *name,
            CounterKind kind = CounterKind::Sum)
        : registry_(&registry), id_(registry.getOrAdd(name, kind)),
          slot_(registry.slotAddress(id_)), name_(name)
    {
    }

    void inc(std::uint64_t n = 1)
    {
        if (!detail::g_enabled)
            return;
        if (CounterShard *shard = detail::t_shard;
            shard && &shard->registry() == registry_)
            shard->add(id_, n);
        else
            *slot_ += n;
    }

    /** Record a high-water mark (gauge-style counter). */
    void max(std::uint64_t v)
    {
        if (!detail::g_enabled)
            return;
        if (CounterShard *shard = detail::t_shard;
            shard && &shard->registry() == registry_)
            shard->recordMax(id_, v);
        else if (v > *slot_)
            *slot_ = v;
    }

    std::uint64_t value() const { return *slot_; }
    std::size_t id() const { return id_; }
    const char *name() const { return name_; }

  private:
    CounterRegistry *registry_;
    std::size_t id_;
    std::uint64_t *slot_;
    const char *name_;
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
    explicit CountBatch(Counter &counter) : counter_(&counter) {}

    ~CountBatch()
    {
        if (n_ != 0)
            counter_->inc(n_);
    }

    CountBatch(const CountBatch &) = delete;
    CountBatch &operator=(const CountBatch &) = delete;

    void add(std::uint64_t n = 1) { n_ += n; }

  private:
    Counter *counter_;
    std::uint64_t n_ = 0;
};

} // namespace sched91::obs

#endif // SCHED91_OBS_COUNTERS_HH
