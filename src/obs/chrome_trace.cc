#include "obs/chrome_trace.hh"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "obs/json.hh"

namespace sched91::obs
{

namespace
{

/**
 * One Trace Event Format document: the `{"displayTimeUnit": "ms",
 * "traceEvents": [...]}` envelope and the fields every `ph:"X"`
 * complete event shares, written once for both trace writers.  Each
 * caller fills its events' `args`.  Under zero times every timestamp,
 * duration and lane is written as 0.
 */
class ChromeDocument
{
  public:
    explicit ChromeDocument(bool zeroTimes) : zeroTimes_(zeroTimes)
    {
        w_.beginObject();
        w_.key("displayTimeUnit").value("ms");
        w_.key("traceEvents").beginArray();
    }

    /** One complete event on lane @p tid of the one process; @p args
     * writes the members of its `args` object. */
    template <class Args>
    void
    event(std::string_view name, const char *cat, double ts, double dur,
          unsigned tid, Args &&args)
    {
        w_.beginObject()
            .key("name").value(name)
            .key("cat").value(cat)
            .key("ph").value("X")
            .key("ts").value(zeroTimes_ ? 0.0 : ts)
            .key("dur").value(zeroTimes_ ? 0.0 : dur)
            .key("pid").value(std::uint64_t{0})
            .key("tid")
            .value(static_cast<std::uint64_t>(zeroTimes_ ? 0 : tid));
        w_.key("args").beginObject();
        args(w_);
        w_.endObject().endObject();
    }

    /** Close the envelope and return the document. */
    std::string
    take()
    {
        w_.endArray().endObject();
        return w_.take();
    }

  private:
    bool zeroTimes_;
    JsonWriter w_;
};

} // namespace

void
ChromeTraceSink::event(const TraceEvent &ev)
{
    events_.push_back(ev);
}

void
ChromeTraceSink::close()
{
    if (closed_)
        return;
    closed_ = true;

    ChromeDocument doc(zeroTimes_);
    // Synthetic per-lane clocks in microseconds: events arrive in
    // block order, so stacking them end to end per lane reconstructs
    // each lane's share of the run.
    std::map<unsigned, double> clocks;
    for (const TraceEvent &ev : events_) {
        const double dur = ev.seconds * 1e6;
        double &clock = clocks[ev.worker];
        doc.event(ev.phase, "block", clock, dur, ev.worker,
                  [&](JsonWriter &w) {
                      w.key("block")
                          .value(static_cast<std::uint64_t>(ev.block))
                          .key("begin").value(ev.begin)
                          .key("insts").value(ev.size);
                  });
        clock += dur;
    }
    *out_ << doc.take() << '\n';
}

// --- Service span log ------------------------------------------------

void
ServiceTraceLog::record(ServiceSpan span)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    spans_.push_back(std::move(span));
}

std::size_t
ServiceTraceLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::uint64_t
ServiceTraceLog::dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

std::string
ServiceTraceLog::chromeJson(bool zeroTimes) const
{
    std::vector<ServiceSpan> spans;
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans = spans_;
    }
    // Group each request's tree together, outermost span first.
    std::stable_sort(
        spans.begin(), spans.end(),
        [](const ServiceSpan &a, const ServiceSpan &b) {
            return std::tie(a.traceId, a.startNs, a.worker) <
                   std::tie(b.traceId, b.startNs, b.worker);
        });

    ChromeDocument doc(zeroTimes);
    for (const ServiceSpan &s : spans) {
        doc.event(s.name, "svc", static_cast<double>(s.startNs) / 1e3,
                  static_cast<double>(s.durNs) / 1e3, s.lane,
                  [&](JsonWriter &w) {
                      w.key("trace_id").value(s.traceId);
                      if (s.rung >= 0)
                          w.key("rung").value(s.rung);
                      if (!s.note.empty())
                          w.key("note").value(s.note);
                      if (s.worker)
                          w.key("worker").value(true);
                  });
    }
    return doc.take();
}

std::uint64_t
RequestTrace::nowNs() const
{
    const auto now = std::chrono::steady_clock::now();
    if (now <= epoch)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                             epoch)
            .count());
}

void
RequestTrace::span(std::string_view name, int rung,
                   std::uint64_t startNs, std::uint64_t endNs,
                   std::string_view note, bool worker) const
{
    if (!log)
        return;
    ServiceSpan s;
    s.traceId = traceId;
    s.name = std::string(name);
    s.note = std::string(note);
    s.lane = lane;
    s.rung = rung;
    s.startNs = startNs;
    s.durNs = endNs > startNs ? endNs - startNs : 0;
    s.worker = worker;
    log->record(std::move(s));
}

} // namespace sched91::obs
