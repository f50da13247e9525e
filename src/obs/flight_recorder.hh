/**
 * @file
 * Crash-safe flight recorder (docs/FORENSICS.md).
 *
 * Each worker lane owns a fixed-size ring of compact POD events
 * (block begin/end, phase transitions, diagnostics, cancellations,
 * counter snapshots).  On a panic, fatal signal, or std::terminate the
 * process dumps the last-N events across all lanes plus the memory
 * gauges as one well-formed JSON document — a dying run always leaves
 * a triage artifact.
 *
 * Everything on the crash path is async-signal-safe: the rings are
 * static storage claimed with an atomic counter, events hold only
 * fixed-size char arrays (sanitized to printable ASCII at record time,
 * so the dump needs no JSON escaping), and the dump itself formats
 * into a caller-supplied buffer with no allocation, then write(2)s it.
 *
 * Determinism: events are keyed (blockKey, seq) where blockKey is
 * 0 before the parallel region, `block + 1` during it, and
 * UINT64_MAX after the join; seq resets at each key change.  The
 * pipeline's chunked self-scheduling hands each lane a strictly
 * ascending block sequence, so every ring is already sorted by key
 * and the dump — a k-way merge truncated to the newest
 * min(kRingCapacity, total) events — is byte-identical at every
 * thread count once timestamps are zeroed (`--zero-times`).  An event
 * can only be evicted from a ring after >= kRingCapacity later events
 * with keys >= its own, so an evicted event is never part of the
 * global tail.
 */

#ifndef SCHED91_OBS_FLIGHT_RECORDER_HH
#define SCHED91_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sched91::obs::flight
{

enum class EventKind : std::uint8_t
{
    RunBegin,
    BlockBegin,
    PhaseEnd,
    Diag,
    Cancel,
    CounterSnap,
    BlockEnd,
    RunEnd,
};

/** "run_begin" / "phase_end" / ... as emitted in dumps. */
std::string_view eventKindName(EventKind kind);

/** Compact fixed-size event; POD so the ring never allocates. */
struct Event
{
    std::uint64_t blockKey = 0; ///< 0 pre-run, block+1, UINT64_MAX post.
    std::uint32_t seq = 0;      ///< Per-key sequence number.
    EventKind kind = EventKind::RunBegin;
    char tag[16] = {};    ///< Short site label ("build", "sched", ...).
    char detail[44] = {}; ///< Free text, truncated + ASCII-sanitized.
    std::uint64_t a = 0;  ///< Kind-specific payload.
    std::uint64_t b = 0;  ///< Kind-specific payload.
    std::uint64_t ns = 0; ///< Nanoseconds since run epoch (0 if zeroed).
};

/** Events retained per lane (and in the merged dump tail). */
inline constexpr std::size_t kRingCapacity = 256;

/** Static recorder slots; lanes beyond this record nothing. */
inline constexpr std::size_t kMaxRecorders = 64;

/** Per-lane event ring.  Not thread-safe; one lane per recorder. */
class Recorder
{
  public:
    void reset();

    /** Key subsequent events as belonging to block @p block. */
    void
    setBlock(std::uint64_t block)
    {
        key_ = block + 1;
        seq_ = 0;
    }

    /** Key subsequent events as after the parallel join. */
    void
    setPostRun()
    {
        key_ = ~std::uint64_t{0};
        seq_ = 0;
    }

    void record(EventKind kind, std::string_view tag,
                std::string_view detail = {}, std::uint64_t a = 0,
                std::uint64_t b = 0);

    /** Events ever recorded (>= kept()). */
    std::uint64_t total() const { return total_; }

    /** Events still in the ring. */
    std::size_t kept() const;

    /** i-th kept event, oldest first. */
    const Event &keptAt(std::size_t i) const;

  private:
    Event ring_[kRingCapacity];
    std::uint64_t total_ = 0;
    std::uint64_t key_ = 0;
    std::uint32_t seq_ = 0;
};

/** Whether record()/gauges are live (off by default; ~1 branch when
 * off). */
bool enabled();
void setEnabled(bool on);

/**
 * Start a run: resets all recorder slots, the claim counter, the
 * gauges, and the timestamp epoch.  Call once before claiming.
 */
void beginRun();

/**
 * Hand ring ownership to an outer host (the scheduling daemon).
 * beginRun() resets *every* recorder slot, which is correct for the
 * one-run CLI but destroys concurrent requests' history in a
 * long-lived process.  While externally managed, runPipeline skips
 * its begin/claim/run-bracket entirely; record() still flows through
 * whatever recorder the host installed on the calling thread, so
 * per-request events land in the host's rings.
 */
void setExternallyManaged(bool on);
bool externallyManaged();

/** Claim a recorder slot; nullptr once kMaxRecorders are claimed. */
Recorder *claim();

/** RAII installer: route this thread's events into @p recorder. */
class ScopedRecorder
{
  public:
    explicit ScopedRecorder(Recorder *recorder);
    ~ScopedRecorder();

    ScopedRecorder(const ScopedRecorder &) = delete;
    ScopedRecorder &operator=(const ScopedRecorder &) = delete;

  private:
    Recorder *prev_;
};

/** The calling thread's installed recorder (may be null). */
Recorder *current();

/** Record through the thread's recorder; no-op when disabled or none
 * installed. */
void record(EventKind kind, std::string_view tag,
            std::string_view detail = {}, std::uint64_t a = 0,
            std::uint64_t b = 0);

/** setBlock()/setPostRun() through the thread's recorder. */
void setBlock(std::uint64_t block);
void setPostRun();

/** Process-wide gauges included in every dump. */
enum class Gauge : std::size_t
{
    BlocksTotal,
    BlocksDone,
    ArenaHighWaterBytes,
    DagArcBytes,
    Count,
};

void setGauge(Gauge g, std::uint64_t value);
void addGauge(Gauge g, std::uint64_t delta);

/** Context for a dump; reason must be a NUL-terminated literal or a
 * buffer that outlives the call. */
struct DumpInfo
{
    bool crashed = false;
    int signal = 0; ///< 0 when not signal-initiated.
    const char *reason = "";
    bool zeroTimes = false;
};

/**
 * Format the flight-recorder document into @p buf (allocation-free;
 * safe inside a signal handler).  Returns bytes written, truncating
 * whole events (never mid-token) if the buffer runs out.
 */
std::size_t dumpJsonTo(char *buf, std::size_t cap, const DumpInfo &info);

/** Convenience heap wrapper for tests and the CLI's panic path. */
std::string dumpJson(const DumpInfo &info);

/**
 * Arm the crash path: dumps go to @p path ("-" or empty = stderr),
 * with timestamps zeroed when @p zeroTimes.
 */
void setCrashDump(std::string_view path, bool zeroTimes);

/**
 * Install fatal-signal (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT) and
 * std::terminate handlers that write the crash dump then re-raise.
 */
void installCrashHandlers();

/** Write the crash dump once from a caught fatal error (panic path). */
void writeCrashDump(const char *reason);

} // namespace sched91::obs::flight

#endif // SCHED91_OBS_FLIGHT_RECORDER_HH
