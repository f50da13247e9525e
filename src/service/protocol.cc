#include "service/protocol.hh"

#include "dag/memdep.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "support/logging.hh"

namespace sched91::service
{

namespace
{

/** Accept both the CLI token and the stats-JSON display name, so a
 * request can be assembled from either a command line or a captured
 * meta section. */
template <typename Kind, std::size_t N>
std::optional<Kind>
lookup(const std::string &name,
       const std::pair<const char *, Kind> (&tokens)[N],
       std::string_view (*displayName)(Kind))
{
    for (const auto &entry : tokens)
        if (name == entry.first)
            return entry.second;
    for (const auto &entry : tokens)
        if (displayName(entry.second) == name)
            return entry.second;
    return std::nullopt;
}

constexpr std::pair<const char *, BuilderKind> kBuilderTokens[] = {
    {"n2-fwd", BuilderKind::N2Forward},
    {"n2-bwd", BuilderKind::N2Backward},
    {"landskov", BuilderKind::N2Landskov},
    {"table-fwd", BuilderKind::TableForward},
    {"table-bwd", BuilderKind::TableBackward},
};

constexpr std::pair<const char *, AliasPolicy> kPolicyTokens[] = {
    {"serialize", AliasPolicy::SerializeAll},
    {"base-offset", AliasPolicy::BaseOffset},
    {"storage", AliasPolicy::StorageClassed},
    {"symbolic", AliasPolicy::SymbolicExpr},
};

} // namespace

AlgorithmKind
algorithmFromToken(const std::string &name)
{
    for (AlgorithmKind kind : allAlgorithms())
        if (algorithmName(kind) == name)
            return kind;
    fatal("unknown algorithm '", name, "'");
}

BuilderKind
builderFromToken(const std::string &name)
{
    if (auto kind = lookup(name, kBuilderTokens, builderKindName))
        return *kind;
    fatal("unknown builder '", name, "'");
}

AliasPolicy
policyFromToken(const std::string &name)
{
    if (auto kind = lookup(name, kPolicyTokens, aliasPolicyName))
        return *kind;
    fatal("unknown alias policy '", name, "'");
}

bool
decodeLine(std::string_view line, obs::JsonValue &doc, std::string &error)
{
    try {
        doc = obs::parseJson(line);
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }
    return true;
}

std::optional<RequestSpec>
requestFromJson(obs::JsonValue &doc, std::string &error)
{
    if (!doc.isObject()) {
        error = "request is not a JSON object";
        return std::nullopt;
    }

    RequestSpec spec;
    spec.id = doc.strOr("id", "");
    try {
        auto &members = std::get<obs::JsonValue::Object>(doc.v);
        const auto source = members.find("source");
        if (source == members.end() || !source->second.isString()) {
            error = "request has no string 'source' field";
            return std::nullopt;
        }
        // The largest member by far: taken, not copied.
        spec.source = std::move(std::get<std::string>(source->second.v));
        if (doc.has("algorithm"))
            spec.algorithm =
                algorithmFromToken(doc.at("algorithm").str());
        if (doc.has("builder"))
            spec.builder = builderFromToken(doc.at("builder").str());
        if (doc.has("policy"))
            spec.policy = policyFromToken(doc.at("policy").str());
        if (doc.has("machine"))
            spec.machine = doc.at("machine").str();
        spec.deadlineMs = doc.numberOr("deadline_ms", 0.0);
        if (spec.deadlineMs < 0.0) {
            error = "deadline_ms must be >= 0";
            return std::nullopt;
        }
        if (doc.has("evaluate"))
            spec.evaluate = doc.at("evaluate").boolean();
        if (doc.has("emit")) {
            const std::string &emit = doc.at("emit").str();
            if (emit == "schedule")
                spec.emitSchedule = true;
            else if (emit != "none") {
                error = "unknown emit mode '" + emit + "'";
                return std::nullopt;
            }
        }
        spec.traceId = doc.strOr("trace_id", "");
    } catch (const std::exception &e) {
        // Wrong-typed field (std::get), unknown token (FatalError).
        error = e.what();
        return std::nullopt;
    }
    return spec;
}

std::optional<RequestSpec>
parseRequestLine(const std::string &line, std::string &error)
{
    obs::JsonValue doc;
    if (!decodeLine(line, doc, error))
        return std::nullopt;
    return requestFromJson(doc, error);
}

std::string
responseLine(const std::string &id, const ResponseBody &body)
{
    obs::JsonWriter w;
    // The fixed keys take under 512 bytes; the schedule's lines add
    // their own length, two quotes and a comma each.
    std::size_t bytes = 512 + id.size() + body.traceId.size();
    for (std::string_view line : body.schedule)
        bytes += line.size() + 3;
    w.reserve(bytes);
    w.beginObject();
    w.key("id").value(id);
    w.key("status").value(body.status);
    w.key("blocks").value(static_cast<std::uint64_t>(body.blocks));
    w.key("insts").value(static_cast<std::uint64_t>(body.insts));
    w.key("degraded_blocks")
        .value(static_cast<std::uint64_t>(body.degradedBlocks));
    w.key("builder_fallbacks")
        .value(static_cast<std::uint64_t>(body.builderFallbacks));
    w.key("verifier_rejections")
        .value(static_cast<std::uint64_t>(body.verifierRejections));
    w.key("parse_errors")
        .value(static_cast<std::uint64_t>(body.parseErrors));
    w.key("parse_warnings")
        .value(static_cast<std::uint64_t>(body.parseWarnings));
    w.key("attempts").value(body.attempts);
    w.key("downgraded_builder").value(body.downgradedBuilder);
    w.key("quarantined").value(body.quarantined);
    if (body.deadlineHit)
        w.key("deadline_hit").value(true);
    if (body.haveCycles) {
        w.key("cycles_original").value(body.cyclesOriginal);
        w.key("cycles_scheduled").value(body.cyclesScheduled);
    }
    if (!body.schedule.empty()) {
        w.key("schedule").beginArray();
        for (std::string_view line : body.schedule)
            w.value(line);
        w.endArray();
    }
    if (!body.traceId.empty())
        w.key("trace_id").value(body.traceId);
    if (body.spans.any()) {
        w.key("spans").beginObject();
        for (const PhaseSpanField &f : kPhaseSpanFields)
            w.key(f.key).value(body.spans.*f.ns);
        w.endObject();
    }
    w.endObject();
    return w.take();
}

PhaseSpans
phaseSpansFromResponse(const obs::JsonValue &response)
{
    PhaseSpans spans;
    try {
        if (!response.has("spans") || !response.at("spans").isObject())
            return spans;
        const obs::JsonValue &s = response.at("spans");
        for (const PhaseSpanField &f : kPhaseSpanFields) {
            const double v = s.numberOr(f.key, 0.0);
            spans.*f.ns = v > 0.0 ? static_cast<std::uint64_t>(v) : 0;
        }
    } catch (const std::exception &) {
        // Malformed spans: they simply stay empty.
    }
    return spans;
}

std::string
sandboxEnvelopeLine(const SandboxEnvelope &env)
{
    const RequestSpec &spec = env.spec;
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(spec.id);
    w.key("source").value(spec.source);
    // Display-name spellings, which parseRequestLine() accepts; the
    // supervisor resolved the daemon defaults, so every field is
    // explicit on the wire.
    if (spec.algorithm)
        w.key("algorithm")
            .value(std::string(algorithmName(*spec.algorithm)));
    if (spec.builder)
        w.key("builder")
            .value(std::string(builderKindName(*spec.builder)));
    if (spec.policy)
        w.key("policy")
            .value(std::string(aliasPolicyName(*spec.policy)));
    if (spec.machine)
        w.key("machine").value(*spec.machine);
    if (spec.deadlineMs > 0.0)
        w.key("deadline_ms").value(spec.deadlineMs);
    if (spec.evaluate)
        w.key("evaluate").value(true);
    if (spec.emitSchedule)
        w.key("emit").value("schedule");
    if (!spec.traceId.empty())
        w.key("trace_id").value(spec.traceId);
    w.key("attempt").value(env.attempt);
    if (env.downgraded)
        w.key("downgraded").value(true);
    w.endObject();
    return w.take();
}

std::optional<SandboxEnvelope>
parseSandboxEnvelopeLine(std::string_view line, std::string &error)
{
    obs::JsonValue doc;
    if (!decodeLine(line, doc, error))
        return std::nullopt;
    std::optional<RequestSpec> spec = requestFromJson(doc, error);
    if (!spec)
        return std::nullopt;
    SandboxEnvelope env;
    env.spec = std::move(*spec);
    try {
        env.attempt = static_cast<int>(doc.numberOr("attempt", 0.0));
        if (doc.has("downgraded"))
            env.downgraded = doc.at("downgraded").boolean();
    } catch (const std::exception &e) {
        error = e.what();
        return std::nullopt;
    }
    if (env.attempt < 0) {
        error = "attempt must be >= 0";
        return std::nullopt;
    }
    return env;
}

std::string
rejectedLine(const std::string &id, const std::string &reason)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("status").value("rejected");
    w.key("reason").value(reason);
    w.endObject();
    return w.take();
}

std::string
errorLine(const std::string &id, const std::string &message)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("status").value("error");
    w.key("error").value(message);
    w.endObject();
    return w.take();
}

ControlRequest
controlFromJson(const obs::JsonValue &doc)
{
    ControlRequest req;
    if (!doc.isObject() || !doc.has("type") ||
        !doc.at("type").isString())
        return req;

    req.id = doc.strOr("id", "");
    const std::string &type = doc.at("type").str();
    if (type == "stats")
        req.type = ControlType::Stats;
    else if (type == "health")
        req.type = ControlType::Health;
    else if (type == "trace-dump")
        req.type = ControlType::TraceDump;
    else {
        req.type = ControlType::Invalid;
        req.error = "unknown control type '" + type + "'";
        return req;
    }

    req.format = doc.strOr("format", "json");
    if (req.format != "json" && req.format != "prometheus") {
        req.error = "unknown format '" + req.format + "'";
        req.type = ControlType::Invalid;
    }
    return req;
}

} // namespace sched91::service
