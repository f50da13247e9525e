#include "obs/trace.hh"

#include "obs/json.hh"

namespace sched91::obs
{

void
JsonlTraceSink::event(const TraceEvent &ev)
{
    JsonWriter w;
    w.beginObject()
        .key("block").value(static_cast<std::uint64_t>(ev.block))
        .key("begin").value(ev.begin)
        .key("size").value(ev.size)
        .key("phase").value(ev.phase)
        .key("seconds").value(zeroTimes_ ? 0.0 : ev.seconds);
    w.key("counters").beginObject();
    // Named binding: items() references the set's own storage.
    const CounterSet named = ev.counters.named();
    for (const auto &[name, value] : named.items())
        if (value != 0)
            w.key(name).value(value);
    w.endObject().endObject();
    *out_ << w.take() << '\n';
    ++events_;
}

} // namespace sched91::obs
