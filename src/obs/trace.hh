/**
 * @file
 * Per-block per-phase trace events and the JSONL sink that serializes
 * them — one event per line, so a run over thousands of blocks streams
 * without buffering and the output is trivially greppable/parsable.
 *
 * The pipeline derives one TraceEvent per phase of every block it
 * schedules from the block's PhaseRecord (obs/phase.hh), carrying the
 * counter deltas attributable to that phase — the per-block resolution
 * at which the paper discusses construction cost growth (Tables 4/5).
 * Deltas travel by counter id; the JSONL sink names them as it writes
 * each line.
 */

#ifndef SCHED91_OBS_TRACE_HH
#define SCHED91_OBS_TRACE_HH

#include <cstdint>
#include <ostream>

#include "obs/counters.hh"

namespace sched91::obs
{

/** One phase of one block. */
struct TraceEvent
{
    std::size_t block = 0;     ///< block index within the run
    std::uint32_t begin = 0;   ///< first program index of the block
    std::uint32_t size = 0;    ///< instructions in the block
    const char *phase = "";    ///< "build", "heur", "sched", ...
    double seconds = 0.0;
    /** Pipeline lane that processed the block.  Consumed by the
     * Chrome-trace sink (`tid`); deliberately *not* serialized by
     * JsonlTraceSink — lane assignment varies with thread count, and
     * JSONL traces are byte-compared across thread counts. */
    unsigned worker = 0;
    CounterShard counters;     ///< event deltas within the phase
};

/** Abstract consumer of trace events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void event(const TraceEvent &ev) = 0;
};

/** Writes each event as one JSON object per line (JSONL). */
class JsonlTraceSink final : public TraceSink
{
  public:
    /**
     * @p out must outlive the sink.  With @p zero_times the `seconds`
     * field is written as 0 — wall-clock is inherently run-to-run
     * noise, and zeroing it makes traces byte-comparable across runs
     * and thread counts.
     */
    explicit JsonlTraceSink(std::ostream &out, bool zero_times = false)
        : out_(&out), zeroTimes_(zero_times)
    {
    }

    void event(const TraceEvent &ev) override;

    std::size_t eventsWritten() const { return events_; }

  private:
    std::ostream *out_;
    bool zeroTimes_;
    std::size_t events_ = 0;
};

} // namespace sched91::obs

#endif // SCHED91_OBS_TRACE_HH
