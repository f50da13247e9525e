/**
 * @file
 * Wire protocol of the scheduling daemon (`sched91 serve`): one JSON
 * object per line in each direction, over a local stream socket.
 *
 * Request line:
 *
 *     {"id": "r1", "source": "add %r1, %r2, %r3\n...",
 *      "algorithm": "warren", "builder": "table-fwd",
 *      "policy": "base-offset", "machine": "sparcstation2",
 *      "deadline_ms": 250, "evaluate": true, "emit": "schedule"}
 *
 * Only `source` is required; every other field falls back to the
 * daemon's configured defaults.  Configuration tokens are the CLI's
 * (`--algorithm`/`--builder`/`--policy` spellings); the display names
 * used by stats-JSON meta sections are accepted too, so a captured
 * bundle's meta can be replayed verbatim.
 *
 * Response line: `{"id": ..., "status": ...}` plus status-specific
 * fields.  `status` is one of:
 *
 *  - "ok"        scheduled normally (possibly after a ladder retry);
 *  - "degraded"  some or all blocks kept original order (deadline,
 *                contained fault, quarantine, or last-rung fallback);
 *  - "rejected"  not processed: queue full, daemon draining, or the
 *                deadline expired before a worker picked it up
 *                (`reason` says which) — the 429 of this protocol;
 *  - "error"     the request itself was malformed (bad JSON, bad
 *                config token); `error` carries the message.
 *
 * Control lines (in-band introspection, served without entering the
 * admission queue):
 *
 *     {"type": "stats", "id": "s1"}                      -> stats doc
 *     {"type": "stats", "format": "prometheus"}          -> exposition
 *     {"type": "health"}                                 -> health doc
 *     {"type": "trace-dump"}                             -> span trees
 *
 * A line with a "type" key is a control request; everything else goes
 * down the ordinary scheduling path.  Responses stay one JSON object
 * per line: the Prometheus text exposition rides inside the JSON
 * response as an "exposition" string so framing never changes.
 *
 * Tracing: the daemon stamps every admitted request with a trace id
 * ("trace_id", client-suppliable).  The id rides through the sandbox
 * envelope into workers, which echo it back along with per-phase span
 * timings ("spans": parse/build/heur/sched/verify, nanoseconds), so
 * the supervisor can stitch worker time into the request's span tree
 * (docs/OBSERVABILITY.md).  Both keys are ordinary JSON fields that
 * plain parsers ignore — the wire format stays backward compatible.
 *
 * The reader (obs/json_parse) and writer (obs/json) are the repo's
 * own; the protocol deliberately stays within what they emit/accept.
 * The writer escapes only quotes, backslashes and control characters
 * and passes other bytes through, so sources travel as raw UTF-8; the
 * reader also decodes any \uXXXX escape (surrogate pairs included)
 * to UTF-8, so a client whose encoder escapes non-ASCII sends the same
 * source.  The daemon decodes each line once: controlFromJson() and
 * requestFromJson() classify the decoded value.
 */

#ifndef SCHED91_SERVICE_PROTOCOL_HH
#define SCHED91_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dag/builder.hh"
#include "sched/registry.hh"

namespace sched91::obs
{
class JsonValue;
}

namespace sched91::service
{

/** Parsed request, before defaults are applied. */
struct RequestSpec
{
    std::string id;     ///< echoed back; may be empty
    std::string source; ///< assembly text (required)

    /** Optional overrides; nullopt = daemon default. */
    std::optional<AlgorithmKind> algorithm;
    std::optional<BuilderKind> builder;
    std::optional<AliasPolicy> policy;
    std::optional<std::string> machine;

    /** Per-request deadline in milliseconds; 0 = daemon default. */
    double deadlineMs = 0.0;

    /** Simulate original vs scheduled cycles (adds simulator time). */
    bool evaluate = false;

    /** Include the scheduled instruction text in the response. */
    bool emitSchedule = false;

    /** Trace id ("trace_id"): assigned by the daemon at admission
     * when the client did not supply one; propagated through the
     * sandbox envelope and echoed in responses. */
    std::string traceId;
};

/**
 * Parse one request line.  Returns the spec, or sets @p error and
 * returns nullopt on malformed JSON / unknown tokens (the caller
 * answers status "error").
 */
std::optional<RequestSpec> parseRequestLine(const std::string &line,
                                            std::string &error);

/** Decode one wire line into @p doc; false, with the reader's message
 * in @p error, when it is not JSON. */
bool decodeLine(std::string_view line, obs::JsonValue &doc,
                std::string &error);

/**
 * parseRequestLine() from a line already decoded — the daemon decodes
 * each wire line once and classifies it with controlFromJson() first.
 * Moves the "source" string out of @p doc.
 */
std::optional<RequestSpec> requestFromJson(obs::JsonValue &doc,
                                           std::string &error);

/**
 * Per-phase wall-clock spans of one attempt, in nanoseconds — the
 * child spans a sandbox worker reports back ("spans" response key) so
 * the supervisor can stitch them under the dispatching rung.
 */
struct PhaseSpans
{
    std::uint64_t parseNs = 0;
    std::uint64_t buildNs = 0;
    std::uint64_t heurNs = 0;
    std::uint64_t schedNs = 0;
    std::uint64_t verifyNs = 0;

    bool
    any() const
    {
        return (parseNs | buildNs | heurNs | schedNs | verifyNs) != 0;
    }
};

/** One field of PhaseSpans: its span name, its key in the "spans"
 * object and its member.  The encoder, the decoder and the span
 * stitcher all iterate kPhaseSpanFields. */
struct PhaseSpanField
{
    const char *name;
    const char *key;
    std::uint64_t PhaseSpans::*ns;
};

inline constexpr PhaseSpanField kPhaseSpanFields[] = {
    {"parse", "parse_ns", &PhaseSpans::parseNs},
    {"build", "build_ns", &PhaseSpans::buildNs},
    {"heur", "heur_ns", &PhaseSpans::heurNs},
    {"sched", "sched_ns", &PhaseSpans::schedNs},
    {"verify", "verify_ns", &PhaseSpans::verifyNs},
};

/** The "spans" object of a decoded response; all-zero spans when
 * absent or malformed (error lines). */
PhaseSpans phaseSpansFromResponse(const obs::JsonValue &response);

/** Outcome summary serialized into ok/degraded responses. */
struct ResponseBody
{
    std::string status = "ok"; ///< "ok" | "degraded"
    std::size_t blocks = 0;
    std::size_t insts = 0;
    std::size_t degradedBlocks = 0;
    std::size_t builderFallbacks = 0;
    std::size_t verifierRejections = 0;
    std::size_t parseErrors = 0;
    std::size_t parseWarnings = 0;
    int attempts = 1;         ///< ladder attempts consumed (1..3)
    bool downgradedBuilder = false; ///< answered by the retry rung
    bool quarantined = false; ///< short-circuited by quarantine
    bool deadlineHit = false; ///< a block degraded on the budget rung
                              ///< (emitted only when true; lets the
                              ///< supervisor attribute deadline
                              ///< expiry across the process boundary)
    long long cyclesOriginal = 0;  ///< only when evaluate
    long long cyclesScheduled = 0; ///< only when evaluate
    bool haveCycles = false;

    /** Scheduled instruction text, only when emitSchedule.  Views,
     * not copies: the engine points them at the request's parsed
     * instructions (Instruction::text()), and its ParsedRequest, which
     * owns those instructions and the toString() of any instruction
     * without text, outlives the responseLine() call that writes
     * them. */
    std::vector<std::string_view> schedule;

    std::string traceId; ///< echoed when the request carried one
    PhaseSpans spans;    ///< emitted when any phase was timed
};

/** Serialize an ok/degraded response (no trailing newline). */
std::string responseLine(const std::string &id, const ResponseBody &body);

/** Serialize a rejection: reason is "overloaded" | "draining" |
 * "deadline". */
std::string rejectedLine(const std::string &id, const std::string &reason);

/** Serialize a request-level error. */
std::string errorLine(const std::string &id, const std::string &message);

/** Kind of an in-band introspection request. */
enum class ControlType
{
    None,      ///< not a control line: take the scheduling path
    Stats,     ///< full stats snapshot (JSON or Prometheus text)
    Health,    ///< cheap liveness/pressure probe
    TraceDump, ///< merged Chrome-trace span trees
    Invalid,   ///< has a "type" key but it is unusable (see error)
};

/**
 * An in-band introspection request (`{"type": ...}`) — answered by
 * the daemon's I/O thread directly, never admitted to the queue, so
 * the endpoint stays responsive while the service is saturated.
 */
struct ControlRequest
{
    ControlType type = ControlType::None;
    std::string id;            ///< echoed back; may be empty
    std::string format;        ///< stats: "json" (default) |
                               ///< "prometheus"
    std::string error;         ///< set when type == Invalid
};

/**
 * Classify one decoded wire line.  Returns type None for anything
 * without a "type" string key (take the scheduling path); Invalid
 * with @ref ControlRequest::error set for an unknown type or format.
 * Malformed JSON never gets here: the caller answers its decode
 * error.
 */
ControlRequest controlFromJson(const obs::JsonValue &doc);

/** CLI/display token parsers shared with `sched91 serve` defaults;
 * throw FatalError on unknown names. */
AlgorithmKind algorithmFromToken(const std::string &name);
BuilderKind builderFromToken(const std::string &name);
AliasPolicy policyFromToken(const std::string &name);

/**
 * Supervisor -> sandbox-worker dispatch envelope
 * (`sched91 serve --isolate=process`, docs/ROBUSTNESS.md): the wire
 * request format with every daemon default already resolved by the
 * supervisor, plus which ladder attempt the worker is carrying out.
 * The extra fields ride as ordinary JSON keys that plain
 * parseRequestLine() callers ignore, so the envelope *is* a valid
 * request line.
 */
struct SandboxEnvelope
{
    RequestSpec spec; ///< deadlineMs = remaining seconds * 1000
    int attempt = 0;  ///< ladder attempt (fault salt, attempts count)
    bool downgraded = false; ///< answered by the builder-retry rung
};

/** Serialize an envelope (no trailing newline). */
std::string sandboxEnvelopeLine(const SandboxEnvelope &env);

/** Parse an envelope, decoding it once; sets @p error and returns
 * nullopt when malformed (the worker answers status "error"). */
std::optional<SandboxEnvelope>
parseSandboxEnvelopeLine(std::string_view line, std::string &error);

} // namespace sched91::service

#endif // SCHED91_SERVICE_PROTOCOL_HH
