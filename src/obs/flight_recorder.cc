/**
 * @file
 * Flight recorder implementation: static ring storage, the
 * allocation-free JSON dump, and the fatal-signal/terminate hooks.
 */

#include "obs/flight_recorder.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

namespace sched91::obs::flight
{

namespace
{

/** All recorder storage is static so the crash path never allocates. */
Recorder g_recorders[kMaxRecorders];
std::atomic<std::size_t> g_claimed{0};
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_gauges[static_cast<std::size_t>(Gauge::Count)];
std::chrono::steady_clock::time_point g_epoch;

thread_local Recorder *t_recorder = nullptr;

/** Crash-dump arming state; path copied into static storage. */
char g_dumpPath[512] = {};
bool g_zeroTimes = false;
std::atomic<bool> g_dumped{false};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g_epoch)
            .count());
}

/** Copy into a fixed field, truncating and forcing printable ASCII so
 * the dump can emit the bytes verbatim inside a JSON string. */
void
sanitizeInto(char *dst, std::size_t cap, std::string_view src)
{
    std::size_t n = std::min(src.size(), cap - 1);
    for (std::size_t i = 0; i < n; ++i) {
        char c = src[i];
        bool printable = c >= 0x20 && c < 0x7f && c != '"' && c != '\\';
        dst[i] = printable ? c : '_';
    }
    dst[n] = '\0';
}

} // namespace

std::string_view
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::RunBegin:
        return "run_begin";
      case EventKind::BlockBegin:
        return "block_begin";
      case EventKind::PhaseEnd:
        return "phase_end";
      case EventKind::Diag:
        return "diag";
      case EventKind::Cancel:
        return "cancel";
      case EventKind::CounterSnap:
        return "counter_snap";
      case EventKind::BlockEnd:
        return "block_end";
      case EventKind::RunEnd:
        return "run_end";
    }
    return "?";
}

void
Recorder::reset()
{
    total_ = 0;
    key_ = 0;
    seq_ = 0;
}

void
Recorder::record(EventKind kind, std::string_view tag,
                 std::string_view detail, std::uint64_t a, std::uint64_t b)
{
    Event &e = ring_[total_++ % kRingCapacity];
    e.blockKey = key_;
    e.seq = seq_++;
    e.kind = kind;
    sanitizeInto(e.tag, sizeof(e.tag), tag);
    sanitizeInto(e.detail, sizeof(e.detail), detail);
    e.a = a;
    e.b = b;
    e.ns = nowNs();
}

std::size_t
Recorder::kept() const
{
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(total_, kRingCapacity));
}

const Event &
Recorder::keptAt(std::size_t i) const
{
    std::size_t first =
        total_ > kRingCapacity
            ? static_cast<std::size_t>(total_ % kRingCapacity)
            : 0;
    return ring_[(first + i) % kRingCapacity];
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

void
beginRun()
{
    for (Recorder &r : g_recorders)
        r.reset();
    g_claimed.store(0, std::memory_order_relaxed);
    for (auto &g : g_gauges)
        g.store(0, std::memory_order_relaxed);
    g_epoch = std::chrono::steady_clock::now();
}

namespace
{
std::atomic<bool> g_external{false};
} // namespace

void
setExternallyManaged(bool on)
{
    g_external.store(on, std::memory_order_relaxed);
}

bool
externallyManaged()
{
    return g_external.load(std::memory_order_relaxed);
}

Recorder *
claim()
{
    std::size_t slot = g_claimed.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxRecorders)
        return nullptr;
    return &g_recorders[slot];
}

ScopedRecorder::ScopedRecorder(Recorder *recorder) : prev_(t_recorder)
{
    t_recorder = recorder;
}

ScopedRecorder::~ScopedRecorder() { t_recorder = prev_; }

Recorder *
current()
{
    return t_recorder;
}

void
record(EventKind kind, std::string_view tag, std::string_view detail,
       std::uint64_t a, std::uint64_t b)
{
    if (!enabled() || !t_recorder)
        return;
    t_recorder->record(kind, tag, detail, a, b);
}

void
setBlock(std::uint64_t block)
{
    if (t_recorder)
        t_recorder->setBlock(block);
}

void
setPostRun()
{
    if (t_recorder)
        t_recorder->setPostRun();
}

void
setGauge(Gauge g, std::uint64_t value)
{
    g_gauges[static_cast<std::size_t>(g)].store(value,
                                                std::memory_order_relaxed);
}

void
addGauge(Gauge g, std::uint64_t delta)
{
    g_gauges[static_cast<std::size_t>(g)].fetch_add(
        delta, std::memory_order_relaxed);
}

// --- Allocation-free JSON dump -------------------------------------

namespace
{

/** Bounded text sink; drops bytes once full (the caller sizes the
 * buffer so truncation only loses trailing events). */
struct Sink
{
    char *buf;
    std::size_t cap;
    std::size_t len = 0;

    void
    put(char c)
    {
        if (len < cap)
            buf[len++] = c;
    }

    void
    str(std::string_view s)
    {
        for (char c : s)
            put(c);
    }

    void
    u64(std::uint64_t v)
    {
        char tmp[20];
        std::size_t n = 0;
        do {
            tmp[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v);
        while (n)
            put(tmp[--n]);
    }

    void
    i64(std::int64_t v)
    {
        if (v < 0) {
            put('-');
            u64(static_cast<std::uint64_t>(-v));
        } else {
            u64(static_cast<std::uint64_t>(v));
        }
    }

    /** Emit a NUL-terminated field verbatim, re-sanitizing in case the
     * buffer was never written through sanitizeInto. */
    void
    field(const char *s, std::size_t cap_)
    {
        for (std::size_t i = 0; i < cap_ && s[i]; ++i) {
            char c = s[i];
            bool ok = c >= 0x20 && c < 0x7f && c != '"' && c != '\\';
            put(ok ? c : '_');
        }
    }
};

std::string_view
gaugeName(Gauge g)
{
    switch (g) {
      case Gauge::BlocksTotal:
        return "blocks_total";
      case Gauge::BlocksDone:
        return "blocks_done";
      case Gauge::ArenaHighWaterBytes:
        return "arena_high_water_bytes";
      case Gauge::DagArcBytes:
        return "dag_arc_bytes";
      case Gauge::Count:
        break;
    }
    return "?";
}

bool
eventBefore(const Event &a, std::size_t recA, const Event &b,
            std::size_t recB)
{
    if (a.blockKey != b.blockKey)
        return a.blockKey < b.blockKey;
    if (a.seq != b.seq)
        return a.seq < b.seq;
    return recA < recB;
}

} // namespace

std::size_t
dumpJsonTo(char *buf, std::size_t cap, const DumpInfo &info)
{
    Sink out{buf, cap};
    std::size_t lanes =
        std::min(g_claimed.load(std::memory_order_relaxed), kMaxRecorders);

    std::uint64_t totalEver = 0;
    std::size_t totalKept = 0;
    std::size_t idx[kMaxRecorders] = {};
    for (std::size_t r = 0; r < lanes; ++r) {
        totalEver += g_recorders[r].total();
        totalKept += g_recorders[r].kept();
    }

    // Dump tail = newest min(kRingCapacity, totalKept) events in
    // (blockKey, seq) order: advance past the smallest-keyed events
    // until only the tail remains, then merge-emit the rest.
    std::size_t tail = std::min(totalKept, kRingCapacity);
    std::size_t skip = totalKept - tail;
    for (std::size_t s = 0; s < skip; ++s) {
        std::size_t best = kMaxRecorders;
        for (std::size_t r = 0; r < lanes; ++r) {
            if (idx[r] >= g_recorders[r].kept())
                continue;
            if (best == kMaxRecorders ||
                eventBefore(g_recorders[r].keptAt(idx[r]), r,
                            g_recorders[best].keptAt(idx[best]), best))
                best = r;
        }
        if (best == kMaxRecorders)
            break;
        ++idx[best];
    }

    out.str("{\"sched91_flight\":1,\"crashed\":");
    out.str(info.crashed ? "true" : "false");
    out.str(",\"signal\":");
    out.i64(info.signal);
    out.str(",\"reason\":\"");
    if (info.reason)
        out.field(info.reason, 256);
    out.str("\",\"events_total\":");
    out.u64(totalEver);
    out.str(",\"events\":[");
    bool first = true;
    for (std::size_t e = 0; e < tail; ++e) {
        std::size_t best = kMaxRecorders;
        for (std::size_t r = 0; r < lanes; ++r) {
            if (idx[r] >= g_recorders[r].kept())
                continue;
            if (best == kMaxRecorders ||
                eventBefore(g_recorders[r].keptAt(idx[r]), r,
                            g_recorders[best].keptAt(idx[best]), best))
                best = r;
        }
        if (best == kMaxRecorders)
            break;
        const Event &ev = g_recorders[best].keptAt(idx[best]++);
        if (!first)
            out.put(',');
        first = false;
        out.str("{\"block\":");
        if (ev.blockKey == 0)
            out.i64(-1);
        else if (ev.blockKey == ~std::uint64_t{0})
            out.i64(-2);
        else
            out.u64(ev.blockKey - 1);
        out.str(",\"seq\":");
        out.u64(ev.seq);
        out.str(",\"kind\":\"");
        out.str(eventKindName(ev.kind));
        out.str("\",\"tag\":\"");
        out.field(ev.tag, sizeof(ev.tag));
        out.str("\",\"detail\":\"");
        out.field(ev.detail, sizeof(ev.detail));
        out.str("\",\"a\":");
        out.u64(ev.a);
        out.str(",\"b\":");
        out.u64(ev.b);
        out.str(",\"ns\":");
        out.u64(info.zeroTimes ? 0 : ev.ns);
        out.put('}');
    }
    out.str("],\"memory\":{");
    for (std::size_t g = 0; g < static_cast<std::size_t>(Gauge::Count);
         ++g) {
        if (g)
            out.put(',');
        out.put('"');
        out.str(gaugeName(static_cast<Gauge>(g)));
        out.str("\":");
        out.u64(g_gauges[g].load(std::memory_order_relaxed));
    }
    out.str("}}\n");
    if (out.len < cap)
        buf[out.len] = '\0';
    else if (cap)
        buf[cap - 1] = '\0';
    return std::min(out.len, cap);
}

std::string
dumpJson(const DumpInfo &info)
{
    // Generous fixed bound: ~220 bytes per event plus header/gauges.
    std::string s(kRingCapacity * 256 + 4096, '\0');
    std::size_t n = dumpJsonTo(s.data(), s.size(), info);
    s.resize(n);
    return s;
}

// --- Crash path ----------------------------------------------------

namespace
{

/** Static buffer for the signal-handler dump (128 KiB holds the full
 * 256-event tail comfortably). */
char g_crashBuf[128 * 1024];

void
writeDumpRaw(const DumpInfo &info)
{
    if (g_dumped.exchange(true))
        return;
    std::size_t n = dumpJsonTo(g_crashBuf, sizeof(g_crashBuf), info);
    int fd = STDERR_FILENO;
    bool opened = false;
    if (g_dumpPath[0] && std::strcmp(g_dumpPath, "-") != 0) {
        int f = ::open(g_dumpPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (f >= 0) {
            fd = f;
            opened = true;
        }
    }
    std::size_t off = 0;
    while (off < n) {
        ssize_t w = ::write(fd, g_crashBuf + off, n - off);
        if (w <= 0)
            break;
        off += static_cast<std::size_t>(w);
    }
    if (opened)
        ::close(fd);
}

void
fatalSignalHandler(int sig)
{
    DumpInfo info;
    info.crashed = true;
    info.signal = sig;
    info.reason = "fatal signal";
    info.zeroTimes = g_zeroTimes;
    writeDumpRaw(info);
    ::raise(sig); // SA_RESETHAND restored the default action.
}

std::terminate_handler g_prevTerminate = nullptr;

[[noreturn]] void
terminateHandler()
{
    DumpInfo info;
    info.crashed = true;
    info.reason = "std::terminate";
    info.zeroTimes = g_zeroTimes;
    writeDumpRaw(info);
    if (g_prevTerminate)
        g_prevTerminate();
    std::abort();
}

} // namespace

void
setCrashDump(std::string_view path, bool zeroTimes)
{
    std::size_t n = std::min(path.size(), sizeof(g_dumpPath) - 1);
    std::memcpy(g_dumpPath, path.data(), n);
    g_dumpPath[n] = '\0';
    g_zeroTimes = zeroTimes;
    g_dumped.store(false);
}

void
installCrashHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = fatalSignalHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
        ::sigaction(sig, &sa, nullptr);
    g_prevTerminate = std::set_terminate(terminateHandler);
}

void
writeCrashDump(const char *reason)
{
    DumpInfo info;
    info.crashed = true;
    info.reason = reason ? reason : "";
    info.zeroTimes = g_zeroTimes;
    writeDumpRaw(info);
}

} // namespace sched91::obs::flight
