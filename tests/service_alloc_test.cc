/**
 * @file
 * Allocation budget of the in-process request path: decoding a wire
 * line (parseRequestLine) and answering it (Engine::process) take at
 * most 110 heap allocations per request on average, over requests
 * shaped like the serve corpus, with observability on and a lane
 * shard installed the way the daemon's worker lanes install one.
 * The path decodes each line once, moves the source out of the
 * decoded value, and writes the schedule from the parsed instruction
 * text.  The engine runs the pipeline without its run report (no
 * named counter set, histograms or phase tree), so what remains is
 * mostly the parse and the pipeline's per-block work.  A library that
 * builds the report for the engine reads about 138 and fails.
 *
 * Its own executable: it replaces the global operator new.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/program_gen.hh"
#include "obs/counters.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "service/engine.hh"
#include "service/protocol.hh"
#include "support/string_util.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// Out of line, so the compiler never pairs an inlined free() with a
// call to operator new (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sched91
{
namespace
{

/** The serve corpus's shape: 1-8 blocks of at most 64 instructions,
 * asking for the schedule. */
std::vector<std::string>
serveShapedRequests(int count)
{
    std::vector<std::string> lines;
    for (int i = 0; i < count; ++i) {
        fuzz::GenParams p;
        p.seed = 2501 + static_cast<std::uint64_t>(i);
        p.numBlocks = 1 + i % 8;
        p.maxBlockSize = 64;
        obs::JsonWriter w;
        w.beginObject();
        w.key("id").value(numbered("r", static_cast<std::uint64_t>(i)));
        w.key("source").value(fuzz::generateSource(p));
        w.key("emit").value("schedule");
        w.endObject();
        lines.push_back(w.take());
    }
    return lines;
}

TEST(ServiceAllocations, AtMost110PerServeShapedRequest)
{
    const std::vector<std::string> lines = serveShapedRequests(512);

    service::EngineConfig cfg;
    cfg.maxBlockInsts = 400; // `sched91 serve`'s default
    service::Engine engine(cfg);

    // A daemon worker lane: observability on, the lane's shard
    // installed, published and cleared after every request.
    obs::setEnabled(true);
    obs::CounterShard lane, published;
    obs::ScopedCounterShard lane_scope(lane);

    const auto serve = [&](const std::string &line) {
        std::string error;
        std::optional<service::RequestSpec> spec =
            service::parseRequestLine(line, error);
        EXPECT_TRUE(spec) << error;
        return spec ? engine.process(*spec, 0.0) : std::string();
    };

    // Warm up: first-use statics, the lane's pool and scratch arenas.
    for (int i = 0; i < 16; ++i)
        serve(lines[static_cast<std::size_t>(i)]);
    lane.clear();

    std::size_t allocs = 0;
    std::size_t ok = 0;
    for (const std::string &line : lines) {
        allocations = 0;
        counting = true;
        const std::string response = serve(line);
        counting = false;
        allocs += allocations;
        ok += obs::parseJson(response).strOr("status", "") == "ok";
        lane.flushInto(published);
        lane.clear();
    }
    obs::setEnabled(false);

    EXPECT_EQ(ok, lines.size());
    const double per_request =
        static_cast<double>(allocs) / static_cast<double>(lines.size());
    std::printf("serve-shaped: %.1f allocations per request\n",
                per_request);
    EXPECT_LE(per_request, 110.0);
}

} // namespace
} // namespace sched91
