/**
 * @file
 * Chrome Trace Event Format sink: serializes the pipeline's per-block
 * phase events as a JSON document loadable in `about://tracing`,
 * Perfetto, or speedscope — one `ph:"X"` complete event per phase,
 * `pid` = run, `tid` = worker lane, args carrying block id and size.
 *
 * Format reference: the "Trace Event Format" document (JSON Object
 * Format variant: `{"traceEvents": [...]}`).
 *
 * The pipeline derives events from each block's PhaseRecord and
 * delivers them post-join in block order, not in wall-clock order, so
 * the sink synthesizes timestamps: each lane carries a cumulative
 * clock and an event occupies [clock, clock + duration) on its lane.
 * The visual result is a compact per-lane timeline of where the run's
 * time went — the paper's Tables 4/5 phase asymmetry, one box per phase.
 *
 * With zero_times the lane is forced to 0 and durations to 0 (lane
 * assignment and wall-clock both vary run to run), making the whole
 * document byte-comparable across runs and thread counts — the same
 * contract JSONL traces honor under `--zero-times`.
 */

#ifndef SCHED91_OBS_CHROME_TRACE_HH
#define SCHED91_OBS_CHROME_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hh"

namespace sched91::obs
{

/** Buffers trace events and writes one Trace Event Format JSON
 * document on close() (or destruction). */
class ChromeTraceSink final : public TraceSink
{
  public:
    /** @p out must outlive the sink. */
    explicit ChromeTraceSink(std::ostream &out, bool zero_times = false)
        : out_(&out), zeroTimes_(zero_times)
    {
    }

    ~ChromeTraceSink() override { close(); }

    void event(const TraceEvent &ev) override;

    /** Write the buffered document.  Idempotent; called by the
     * destructor if the owner did not. */
    void close();

  private:
    std::ostream *out_;
    bool zeroTimes_;
    bool closed_ = false;
    std::vector<TraceEvent> events_;
};

/**
 * One span of a service request's trace tree (`sched91 serve`).
 * Parent spans (request, queue wait, ladder rungs, worker respawns)
 * are measured in the daemon; worker spans (the per-phase timings a
 * sandbox worker reports back in its response envelope) are stitched
 * in under the rung that dispatched them, so one request renders as
 * one connected tree whether it ran in-process or crossed — or died
 * at — the sandbox-worker boundary.
 */
struct ServiceSpan
{
    std::string traceId; ///< request trace id (daemon-assigned)
    std::string name;    ///< request|queue|rung|respawn|parse|...
    std::string note;    ///< outcome detail ("ok", "crash: ...")
    unsigned lane = 0;   ///< daemon worker lane
    int rung = -1;       ///< ladder attempt, -1 for request-level
    std::uint64_t startNs = 0; ///< relative to the daemon epoch
    std::uint64_t durNs = 0;
    bool worker = false; ///< measured inside a sandbox worker
};

/**
 * Thread-safe bounded append log of service spans.  Lanes record as
 * requests complete; `trace-dump` (or the drain path) renders the
 * whole log as one Chrome Trace Event Format document at any time.
 * When full, further spans are counted as dropped rather than
 * evicting history — the log is a flight record, not a ring.
 */
class ServiceTraceLog
{
  public:
    explicit ServiceTraceLog(std::size_t capacity = 16384)
        : capacity_(capacity)
    {
    }

    void record(ServiceSpan span);

    std::size_t size() const;
    std::uint64_t dropped() const;

    /**
     * All spans, sorted by (trace id, start, worker flag), as one
     * Chrome Trace Event Format document: `ph:"X"` complete events,
     * tid = lane, trace id / rung / note under args.  Under
     * @p zeroTimes all timestamps, durations, and lanes are zeroed
     * (byte-comparable across runs).
     */
    std::string chromeJson(bool zeroTimes = false) const;

  private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::vector<ServiceSpan> spans_;
};

/**
 * Per-request recording context handed down the service call chain
 * (daemon lane -> engine ladder / supervisor dispatch).  Null @ref
 * log (or a null context pointer) disables recording; callers only
 * ever invoke span() and nowNs(), which are no-op safe.
 */
struct RequestTrace
{
    ServiceTraceLog *log = nullptr;
    std::string traceId;
    unsigned lane = 0;
    /** The daemon's start instant; every span is relative to it. */
    std::chrono::steady_clock::time_point epoch{};

    /** Nanoseconds since the epoch (0 before it). */
    std::uint64_t nowNs() const;

    /** Record [startNs, endNs) as one span; no-op without a log. */
    void span(std::string_view name, int rung, std::uint64_t startNs,
              std::uint64_t endNs, std::string_view note = {},
              bool worker = false) const;
};

} // namespace sched91::obs

#endif // SCHED91_OBS_CHROME_TRACE_HH
