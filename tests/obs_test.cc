/**
 * @file
 * Observability-layer tests: counter semantics (counts reach only the
 * thread's installed shard, the roster in name order, set merges),
 * recorded phases folding the block shard's change into per-phase
 * totals and a run tree, a phase's idempotent stop,
 * zero-cost-when-disabled behavior, the JSON/JSONL emitters
 * round-tripped through a minimal parser, and the builder counter
 * asymmetry (pairwise compares vs table probes) the instrumentation
 * exists to expose.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/pipeline.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "obs/emitter.hh"
#include "obs/events.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "obs/phase.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "workload/kernels.hh"

namespace sched91
{
namespace
{

/**
 * Minimal recursive-descent JSON reader, just enough to round-trip
 * the emitters' output: objects, arrays, strings (common escapes),
 * numbers (as doubles), booleans, null.
 */
struct JsonValue
{
    using Object = std::map<std::string, JsonValue>;
    using Array = std::vector<JsonValue>;

    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        v;

    bool isObject() const { return std::holds_alternative<Object>(v); }
    const Object &object() const { return std::get<Object>(v); }
    const Array &array() const { return std::get<Array>(v); }
    double number() const { return std::get<double>(v); }
    const std::string &str() const { return std::get<std::string>(v); }

    bool has(const std::string &k) const
    {
        return isObject() && object().count(k) > 0;
    }
    const JsonValue &at(const std::string &k) const
    {
        return object().at(k);
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue parse()
    {
        JsonValue v = parseValue();
        skipWs();
        EXPECT_EQ(pos_, text_.size()) << "trailing garbage";
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void expect(char c)
    {
        EXPECT_EQ(peek(), c);
        ++pos_;
    }

    JsonValue parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue{parseString()};
          case 't': pos_ += 4; return JsonValue{true};
          case 'f': pos_ += 5; return JsonValue{false};
          case 'n': pos_ += 4; return JsonValue{nullptr};
          default: return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue::Object obj;
        if (peek() != '}') {
            while (true) {
                std::string key = parseString();
                expect(':');
                obj.emplace(std::move(key), parseValue());
                if (peek() != ',')
                    break;
                ++pos_;
            }
        }
        expect('}');
        return JsonValue{std::move(obj)};
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue::Array arr;
        if (peek() != ']') {
            while (true) {
                arr.push_back(parseValue());
                if (peek() != ',')
                    break;
                ++pos_;
            }
        }
        expect(']');
        return JsonValue{std::move(arr)};
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size()) {
                char e = text_[pos_++];
                switch (e) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u':
                    // The emitters only produce \u00xx escapes.
                    out += static_cast<char>(
                        std::stoi(std::string(text_.substr(pos_, 4)),
                                  nullptr, 16));
                    pos_ += 4;
                    break;
                  default: out += e;
                }
            } else {
                out += c;
            }
        }
        expect('"');
        return out;
    }

    JsonValue parseNumber()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        return JsonValue{
            std::stod(std::string(text_.substr(start, pos_ - start)))};
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/** RAII reset of the process-wide observability state around a test. */
class ObsStateGuard
{
  public:
    ObsStateGuard() { obs::setEnabled(false); }
    ~ObsStateGuard() { obs::setEnabled(false); }
};

// ---------------------------------------------------------------------
// Counter / CounterSet
// ---------------------------------------------------------------------

TEST(CounterSet, MergeAndNonzero)
{
    obs::CounterSet x, y;
    x.set("a", 1);
    x.set("b", 0);
    y.set("a", 2);
    y.set("c", 3);
    x.merge(y);
    EXPECT_EQ(x.value("a"), 3u);
    EXPECT_EQ(x.value("b"), 0u);
    EXPECT_EQ(x.value("c"), 3u);

    obs::CounterSet nz = x.nonzero();
    EXPECT_TRUE(nz.contains("a"));
    EXPECT_FALSE(nz.contains("b"));
    EXPECT_EQ(nz.size(), 2u);
}

TEST(Counter, HandleCountsOnlyWhenEnabled)
{
    ObsStateGuard guard;
    obs::CounterShard shard;
    obs::ScopedCounterShard scope(shard);
    const obs::Counter c = obs::ev::fuzzOracleRuns;

    c.inc(5); // disabled: must not count
    EXPECT_EQ(shard.value("fuzz.oracle_runs"), 0u);

    obs::setEnabled(true);
    c.inc(5);
    c.max(3); // below current value? no: 5 > 3 keeps 5
    EXPECT_EQ(shard.value("fuzz.oracle_runs"), 5u);
    c.max(8);
    EXPECT_EQ(shard.value("fuzz.oracle_runs"), 8u);
}

TEST(Counter, CountsGoOnlyToTheInstalledShard)
{
    // Two threads count the same counter, first with no shard (the
    // counts are not kept anywhere), then each into its own shard:
    // each shard holds exactly its own thread's count.
    ObsStateGuard guard;
    obs::setEnabled(true);
    constexpr std::uint64_t kEvents = 20000;
    obs::CounterShard shards[2];
    const auto own = [](int t) {
        return kEvents * static_cast<std::uint64_t>(t + 1);
    };
    const auto count = [&](int t) {
        for (std::uint64_t i = 0; i < kEvents; ++i)
            obs::ev::fuzzOracleRuns.inc();
        obs::ScopedCounterShard scope(shards[t]);
        for (std::uint64_t i = 0; i < own(t); ++i)
            obs::ev::fuzzOracleRuns.inc();
    };
    std::thread other(count, 1);
    count(0);
    other.join();
    for (int t = 0; t < 2; ++t) {
        EXPECT_EQ(shards[t].value(obs::ev::fuzzOracleRuns.id()), own(t))
            << "thread " << t;
        EXPECT_EQ(shards[t].named().nonzero().size(), 1u);
    }
}

TEST(Counter, NamedListsTheRosterInNameOrder)
{
    // Every roster counter, zeros included, in name order: what
    // ProgramResult::counters and the stats documents list.
    const obs::CounterSet all = obs::CounterShard().named();
    ASSERT_EQ(all.size(), std::size(obs::kCounters));
    EXPECT_TRUE(std::is_sorted(all.items().begin(), all.items().end()));
    EXPECT_EQ(obs::ev::schedReadyListPeak.name(), "sched.ready_list_peak");
    EXPECT_EQ(obs::kindOf("sched.ready_list_peak"), obs::CounterKind::Max);
    EXPECT_EQ(obs::kindOf("dag.arcs_added"), obs::CounterKind::Sum);
    EXPECT_EQ(obs::kindOf("svc.requests_ok"), obs::CounterKind::Sum)
        << "a name outside the roster";
}

// ---------------------------------------------------------------------
// ScopedPhase / PhaseRecord
// ---------------------------------------------------------------------

TEST(ScopedPhase, StopIsIdempotentAndRecordsOnce)
{
    ObsStateGuard guard;

    // Disabled: the phase still times itself and writes its seconds.
    obs::PhaseRecord record;
    record.mark = obs::PhaseRecord::Clock::now();
    obs::ScopedPhase p(obs::Phase::Sched, &record);
    double t1 = p.stop();
    EXPECT_EQ(p.stop(), t1) << "stop() is idempotent";
    EXPECT_GE(t1, 0.0);
    EXPECT_EQ(record.startedMask,
              1u << static_cast<unsigned>(obs::Phase::Sched))
        << "only sched started";
    EXPECT_EQ(record.seconds(obs::Phase::Sched), t1);
}

TEST(ScopedPhase, EachPhaseRunsFromThePreviousBoundary)
{
    // A phase starts where the phase before it ended, so a block's
    // phases add up to the time from its mark to the end of its last
    // phase; a sub-phase starts with heur.
    using Clock = obs::PhaseRecord::Clock;
    auto seconds = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    obs::PhaseRecord record;
    record.mark = Clock::now();
    const Clock::time_point begin = record.mark;
    {
        obs::ScopedPhase build(obs::Phase::Build, &record);
    }
    const Clock::time_point build_end = record.mark;
    EXPECT_EQ(record.seconds(obs::Phase::Build),
              seconds(build_end - begin));
    {
        obs::ScopedPhase heur(obs::Phase::Heur, &record);
        obs::ScopedPhase bwd(obs::Phase::HeurBwd, &record);
        bwd.stop();
        EXPECT_EQ(record.seconds(obs::Phase::HeurBwd),
                  seconds(record.mark - build_end));
    }
    EXPECT_EQ(record.seconds(obs::Phase::Heur),
              seconds(record.mark - build_end));
    EXPECT_NEAR(record.mainSeconds(), seconds(record.mark - begin), 1e-12);
    EXPECT_EQ(record.last(), obs::Phase::Heur) << "sub-phases are not last";
}

TEST(ScopedPhase, RecordedPhasesCountIntoTheirOwnShards)
{
    ObsStateGuard guard;
    obs::setEnabled(true);
    const obs::Counter events = obs::ev::schedNodeVisits;
    const obs::Counter peak = obs::ev::schedReadyListPeak;

    obs::CounterShard block;
    obs::PhaseShards lane;
    obs::PhaseRecord record;
    record.shards = &lane;
    record.mark = obs::PhaseRecord::Clock::now();
    {
        obs::ScopedCounterShard scope(block);
        events.inc(1); // between phases: in no phase node
        {
            obs::ScopedPhase build(obs::Phase::Build, &record);
            events.inc(2);
            peak.max(5);
        }
        {
            obs::ScopedPhase heur(obs::Phase::Heur, &record);
            {
                obs::ScopedPhase fwd(obs::Phase::HeurFwd, &record);
                events.inc(4);
            }
            events.inc(8); // in heur, outside its sub-phase
        }
        try {
            obs::ScopedPhase sched(obs::Phase::Sched, &record);
            events.inc(16);
            peak.max(3);
            throw std::runtime_error("thrown inside sched");
        } catch (const std::runtime_error &) {
        }
        EXPECT_EQ(obs::detail::t_shard, &block);
    }
    EXPECT_EQ(block.value(events.id()), 31u)
        << "the block shard ends as if counted straight into it";
    EXPECT_EQ(block.value(peak.id()), 5u);
    EXPECT_TRUE(record.started(obs::Phase::Build));
    EXPECT_TRUE(record.started(obs::Phase::Heur));
    EXPECT_TRUE(record.started(obs::Phase::Sched))
        << "a phase that throws keeps its seconds";
    EXPECT_EQ(record.last(), obs::Phase::Sched);
    EXPECT_TRUE(record.started(obs::Phase::HeurFwd));
    EXPECT_FALSE(record.started(obs::Phase::HeurBwd));

    obs::PhaseStats tree;
    tree.add(record);
    tree.add(lane);
    ASSERT_EQ(tree.children.size(), 3u);
    const char *order[] = {"build", "heur", "sched"};
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(tree.children[i].name, order[i]);
    auto expectNode = [](const obs::PhaseStats *node, std::uint64_t n,
                         std::uint64_t max) {
        ASSERT_NE(node, nullptr);
        EXPECT_EQ(node->entries, 1u) << node->name;
        EXPECT_EQ(node->counters.value("sched.node_visits"), n)
            << node->name;
        EXPECT_EQ(node->counters.value("sched.ready_list_peak"), max)
            << node->name << ": the block's running peak at its end";
    };
    const obs::PhaseStats *heur = tree.child("heur");
    ASSERT_NE(heur, nullptr);
    expectNode(tree.child("build"), 2, 5);
    expectNode(heur, 12, 5);
    expectNode(heur->child("heur-fwd"), 4, 5);
    expectNode(tree.child("sched"), 16, 5);
    EXPECT_EQ(tree.child("heur-fwd"), nullptr) << "nested under heur";
}

// ---------------------------------------------------------------------
// JSON writer / emitters
// ---------------------------------------------------------------------

TEST(JsonWriter, EscapesAndNesting)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("s").value("a\"b\\c\nd")
        .key("n").value(std::uint64_t{42})
        .key("d").value(1.5)
        .key("t").value(true)
        .key("xs").beginArray().value(1).value(2).endArray()
        .endObject();
    std::string text = w.take();

    JsonValue v = JsonParser(text).parse();
    EXPECT_EQ(v.at("s").str(), "a\"b\\c\nd");
    EXPECT_EQ(v.at("n").number(), 42.0);
    EXPECT_EQ(v.at("d").number(), 1.5);
    EXPECT_EQ(v.at("xs").array().size(), 2u);
}

TEST(JsonWriter, NumberFormats)
{
    // Pinned textual forms: integers must print as integers (no
    // double rounding past 2^53), doubles locale-independently via
    // %.9g, non-finite values as null.
    obs::JsonWriter w;
    w.beginObject()
        .key("u64max").value(~std::uint64_t{0})
        .key("i64min").value(std::int64_t{-9223372036854775807LL - 1})
        .key("tenth").value(0.1)
        .key("big").value(1e300)
        .key("negzero").value(-0.0)
        .key("nan").value(std::nan(""))
        .key("inf").value(std::numeric_limits<double>::infinity())
        .endObject();
    std::string text = w.take();

    EXPECT_NE(text.find("\"u64max\":18446744073709551615"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"i64min\":-9223372036854775808"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"tenth\":0.1"), std::string::npos) << text;
    EXPECT_NE(text.find("\"big\":1e+300"), std::string::npos) << text;
    EXPECT_NE(text.find("\"nan\":null"), std::string::npos) << text;
    EXPECT_NE(text.find("\"inf\":null"), std::string::npos) << text;
}

TEST(JsonWriter, ControlCharacterEscapes)
{
    // The named short escapes plus the \u00xx fallback for the rest
    // of the C0 range; DEL and non-ASCII bytes pass through.
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
    EXPECT_EQ(obs::jsonEscape(std::string_view("\x01\x1f", 2)),
              "\\u0001\\u001f");
    EXPECT_EQ(obs::jsonEscape("\x7f"), "\x7f");

    obs::JsonWriter w;
    w.beginObject().key("k\n").value("v\x02").endObject();
    JsonValue v = JsonParser(w.take()).parse();
    EXPECT_EQ(v.at("k\n").str(), std::string("v\x02"));
}

/** The per-character escape the writer's runs must reproduce: the
 * named short escapes, \u00xx for the rest of the C0 range, every other
 * byte as itself. */
std::string
referenceEscape(std::string_view s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Every byte alone, inside a run, at the start and at the end of a
 * string, and at each offset of the two eight-byte words the scans
 * test at once; then all 256 in one string, so escapes meet back to
 * back. */
std::vector<std::string>
everyByteCases()
{
    std::vector<std::string> cases{std::string()};
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        cases.emplace_back(1, c);
        cases.push_back(std::string("run ") + c + " run");
        cases.push_back(c + std::string("tail"));
        cases.push_back(std::string("head") + c);
        for (std::size_t at = 0; at <= 16; ++at)
            cases.push_back(std::string(at, 'a') + c +
                            std::string(16 - at, 'b'));
        all += c;
    }
    cases.push_back(all);
    cases.push_back(all + all);
    return cases;
}

TEST(JsonWriter, RunEscapingMatchesAPerCharacterReference)
{
    for (const std::string &s : everyByteCases()) {
        const std::string want = referenceEscape(s);
        EXPECT_EQ(obs::jsonEscape(s), want);

        obs::JsonWriter w;
        w.beginObject().key(s).value(s).endObject();
        const std::string object = w.take();
        EXPECT_EQ(object, "{\"" + want + "\":\"" + want + "\"}");
        w.beginArray().value(s).endArray();
        EXPECT_EQ(w.take(), "[\"" + want + "\"]");

        const obs::JsonValue back = obs::parseJson(object);
        ASSERT_EQ(back.object().size(), 1u);
        EXPECT_EQ(back.object().begin()->first, s);
        EXPECT_EQ(back.object().begin()->second.str(), s);
    }
}

/** parseJson's error message for @p text ("" when it parses). */
std::string
parseError(std::string_view text)
{
    try {
        obs::parseJson(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(JsonParse, StringErrorsKeepTheirMessagesAndOffsets)
{
    EXPECT_EQ(parseError("\"abc"),
              "malformed JSON at offset 4: unterminated string");
    EXPECT_EQ(parseError("{\"k\":\"v\\n"),
              "malformed JSON at offset 9: unterminated string");
    EXPECT_EQ(parseError("\"abc\\"),
              "malformed JSON at offset 5: unterminated escape");
    EXPECT_EQ(parseError("\"a\\u00g0\""),
              "malformed JSON at offset 7: bad \\u escape");
    EXPECT_EQ(parseError("\"a\\u00"),
              "malformed JSON at offset 4: truncated \\u escape");
    EXPECT_EQ(parseError("\"a\\q\""),
              "malformed JSON at offset 4: unknown escape");
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8)
{
    const auto decoded = [](std::string_view text) {
        return obs::parseJson(text).str();
    };
    EXPECT_EQ(decoded(R"("\u0000")"), std::string(1, '\0'));
    EXPECT_EQ(decoded(R"("A\u007f")"), "A\x7f");
    // Two bytes: the latin-1 range no longer reads as single bytes.
    EXPECT_EQ(decoded(R"("\u0080")"), "\xc2\x80");
    EXPECT_EQ(decoded(R"("caf\u00e9")"), "caf\xc3\xa9");
    EXPECT_EQ(decoded(R"("\u07ff")"), "\xdf\xbf");
    // Three bytes: an em dash, the top of the basic plane.
    EXPECT_EQ(decoded(R"("a\u2014b")"), "a\xe2\x80\x94" "b");
    EXPECT_EQ(decoded(R"("\u0800\uffff")"), "\xe0\xa0\x80\xef\xbf\xbf");
    // Four bytes, from surrogate pairs.
    EXPECT_EQ(decoded(R"("\ud83d\ude00")"), "\xf0\x9f\x98\x80");
    EXPECT_EQ(decoded(R"("\ud800\udc00")"), "\xf0\x90\x80\x80");
    EXPECT_EQ(decoded(R"("\udbff\udfff!")"), "\xf4\x8f\xbf\xbf!");
    // Raw UTF-8 passes through unchanged.
    EXPECT_EQ(decoded("\"\xe2\x80\x94\""), "\xe2\x80\x94");
}

TEST(JsonParse, LoneSurrogatesAreMalformed)
{
    const std::string lone = "lone surrogate in \\u escape";
    EXPECT_EQ(parseError(R"("\ude00")"),
              "malformed JSON at offset 7: " + lone);
    EXPECT_EQ(parseError(R"("\ud83d")"),
              "malformed JSON at offset 7: " + lone);
    EXPECT_EQ(parseError(R"("\ud83dx")"),
              "malformed JSON at offset 7: " + lone);
    EXPECT_EQ(parseError(R"("\ud83d\n")"),
              "malformed JSON at offset 7: " + lone);
    EXPECT_EQ(parseError(R"("\ud83d\ud83d")"),
              "malformed JSON at offset 13: " + lone);
    EXPECT_EQ(parseError(R"("\ud83d\u0041")"),
              "malformed JSON at offset 13: " + lone);
    // The pair's second escape is checked like any other.
    EXPECT_EQ(parseError(R"("\ud83d\ude0)"),
              "malformed JSON at offset 9: truncated \\u escape");
    EXPECT_EQ(parseError(R"("\ud83d\ude0")"),
              "malformed JSON at offset 13: bad \\u escape");
}

TEST(JsonWriter, EmptyContainersAndNesting)
{
    obs::JsonWriter w;
    w.beginObject()
        .key("eo").beginObject().endObject()
        .key("ea").beginArray().endArray()
        .key("aa").beginArray()
        .beginArray().value(1).endArray()
        .beginArray().endArray()
        .endArray()
        .endObject();
    std::string text = w.take();
    EXPECT_EQ(text, "{\"eo\":{},\"ea\":[],\"aa\":[[1],[]]}");
}

TEST(Emitter, ProgramResultJsonRoundTrips)
{
    ObsStateGuard guard;
    obs::setEnabled(true);

    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    opts.evaluate = true;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);

    obs::RunMeta meta;
    meta.command = "test";
    meta.input = "daxpy";
    meta.builder = "table-fwd";
    meta.algorithm = "simple-forward";
    meta.machine = "sparcstation2";

    std::string text =
        obs::programResultJson(r, meta, r.counters, &r.phaseTree);
    JsonValue v = JsonParser(text).parse();

    EXPECT_EQ(v.at("meta").at("input").str(), "daxpy");
    EXPECT_EQ(v.at("blocks").number(),
              static_cast<double>(r.numBlocks));
    EXPECT_GE(v.at("phases").at("build_seconds").number(), 0.0);
    EXPECT_GT(v.at("dag").at("total_arcs").number(), 0.0);
    EXPECT_GT(v.at("cycles").at("original").number(), 0.0);
    EXPECT_GT(v.at("counters").at("dag.arcs_added").number(), 0.0);

    // Phase tree: build/heur/sched children with entries per block.
    ASSERT_TRUE(v.has("phase_tree"));
    bool saw_build = false;
    for (const JsonValue &c : v.at("phase_tree").array()) {
        if (c.at("name").str() == "build") {
            saw_build = true;
            EXPECT_EQ(c.at("entries").number(),
                      static_cast<double>(r.numBlocks));
        }
    }
    EXPECT_TRUE(saw_build);
}

TEST(Emitter, HistogramAndMemorySectionsRoundTrip)
{
    ObsStateGuard guard;
    obs::setEnabled(true);

    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);

    obs::RunMeta meta;
    meta.command = "test";
    std::string text = obs::programResultJson(r, meta, r.counters,
                                              nullptr);
    JsonValue v = JsonParser(text).parse();

    // Deterministic size histogram: one sample per block, bucket
    // counts summing to the total, percentiles within [min, max].
    ASSERT_TRUE(v.at("histograms").has("block.insts"));
    const JsonValue &bi = v.at("histograms").at("block.insts");
    EXPECT_EQ(bi.at("count").number(),
              static_cast<double>(r.numBlocks));
    double bucket_total = 0.0;
    for (const JsonValue &b : bi.at("buckets").array()) {
        EXPECT_LE(b.at("lo").number(), b.at("hi").number());
        bucket_total += b.at("count").number();
    }
    EXPECT_EQ(bucket_total, bi.at("count").number());
    EXPECT_LE(bi.at("min").number(), bi.at("p50").number());
    EXPECT_LE(bi.at("p50").number(), bi.at("p99").number());
    EXPECT_LE(bi.at("p99").number(), bi.at("max").number());

    // Duration histograms follow the _ns convention and see one
    // event per block too.
    ASSERT_TRUE(v.at("histograms").has("lat.build_ns"));
    EXPECT_EQ(v.at("histograms").at("lat.build_ns").at("count").number(),
              static_cast<double>(r.numBlocks));

    // Memory telemetry: the deterministic gauges must be real.
    const JsonValue &m = v.at("memory");
    EXPECT_GT(m.at("arena_bytes_allocated").number(), 0.0);
    EXPECT_GE(m.at("arena_high_water_bytes").number(),
              m.at("arena_bytes_allocated").number() /
                  static_cast<double>(r.numBlocks));
    EXPECT_GT(m.at("dag_arcs").number(), 0.0);
    // dag_arc_bytes is dag_arcs * sizeof(Arc): an exact multiple,
    // strictly larger than the arc count.
    EXPECT_GT(m.at("dag_arc_bytes").number(), m.at("dag_arcs").number());
    EXPECT_EQ(std::fmod(m.at("dag_arc_bytes").number(),
                        m.at("dag_arcs").number()),
              0.0);

    // zeroTimes: duration histogram values and environmental memory
    // gauges go to zero, but deterministic counts survive.
    obs::EmitOptions zt;
    zt.zeroTimes = true;
    JsonValue z = JsonParser(
                      obs::programResultJson(r, meta, r.counters,
                                             nullptr, zt))
                      .parse();
    const JsonValue &zlat = z.at("histograms").at("lat.build_ns");
    EXPECT_EQ(zlat.at("count").number(),
              static_cast<double>(r.numBlocks));
    EXPECT_EQ(zlat.at("sum").number(), 0.0);
    EXPECT_EQ(zlat.at("p99").number(), 0.0);
    EXPECT_TRUE(zlat.at("buckets").array().empty());
    EXPECT_EQ(z.at("histograms").at("block.insts").at("sum").number(),
              bi.at("sum").number())
        << "size histograms are deterministic, not zeroed";
    EXPECT_EQ(z.at("memory").at("peak_rss_bytes").number(), 0.0);
    EXPECT_EQ(z.at("memory").at("arena_reserved_bytes").number(), 0.0);
    EXPECT_EQ(z.at("memory").at("arena_bytes_allocated").number(),
              m.at("arena_bytes_allocated").number());
}

TEST(Trace, JsonlLinesParse)
{
    ObsStateGuard guard;
    obs::setEnabled(true);

    std::ostringstream out;
    obs::JsonlTraceSink sink(out);

    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    opts.trace = &sink;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);

    // One event per block per phase (build/heur/sched/verify; no
    // evaluate).
    EXPECT_EQ(sink.eventsWritten(), r.numBlocks * 4);

    std::istringstream in(out.str());
    std::string line;
    std::size_t lines = 0;
    std::uint64_t arcs = 0;
    while (std::getline(in, line)) {
        ++lines;
        JsonValue v = JsonParser(line).parse();
        EXPECT_TRUE(v.has("block"));
        EXPECT_TRUE(v.has("phase"));
        EXPECT_GE(v.at("seconds").number(), 0.0);
        if (v.at("phase").str() == "build" &&
            v.at("counters").has("dag.arcs_added"))
            arcs += static_cast<std::uint64_t>(
                v.at("counters").at("dag.arcs_added").number());
    }
    EXPECT_EQ(lines, sink.eventsWritten());
    EXPECT_EQ(arcs, r.counters.value("dag.arcs_added"))
        << "per-block build deltas sum to the run total";
}

TEST(Emitter, RenderCountersTable)
{
    obs::CounterSet cs;
    cs.set("a.long_name", 12);
    cs.set("b", 0); // dropped: zero
    cs.set("c", 7);
    std::string table = obs::renderCounters(cs);
    EXPECT_NE(table.find("a.long_name"), std::string::npos);
    EXPECT_NE(table.find("12"), std::string::npos);
    EXPECT_EQ(table.find("b "), std::string::npos);
}

// ---------------------------------------------------------------------
// Pipeline integration: the asymmetry the counters exist to expose
// ---------------------------------------------------------------------

/** What a run of @p builder over daxpy counts into the caller's
 * installed shard. */
obs::CounterSet
countedRun(BuilderKind builder)
{
    obs::CounterShard shard;
    obs::ScopedCounterShard scope(shard);
    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    opts.builder = builder;
    runPipeline(prog, sparcstation2(), opts);
    return shard.named();
}

TEST(ObsPipeline, BuilderCounterAsymmetry)
{
    ObsStateGuard guard;
    obs::setEnabled(true);
    const obs::CounterSet n2_delta = countedRun(BuilderKind::N2Forward);
    const obs::CounterSet table_delta =
        countedRun(BuilderKind::TableForward);

    // The n**2 builder does pairwise comparisons and never probes a
    // definition table; the table builder is the exact opposite.
    EXPECT_GT(n2_delta.value("dag.pairwise_compares"), 0u);
    EXPECT_EQ(n2_delta.value("dag.table_probes"), 0u);
    EXPECT_GT(table_delta.value("dag.table_probes"), 0u);
    EXPECT_EQ(table_delta.value("dag.pairwise_compares"), 0u);

    // Both reach the same dependence structure.
    EXPECT_GT(n2_delta.value("dag.arcs_added"), 0u);
    EXPECT_GT(table_delta.value("dag.arcs_added"), 0u);
}

TEST(ObsPipeline, DisabledRunCountsNothing)
{
    ObsStateGuard guard; // leaves counting disabled
    obs::CounterShard shard;
    obs::ScopedCounterShard scope(shard);

    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);

    EXPECT_TRUE(shard.named().nonzero().empty());
    EXPECT_TRUE(r.counters.empty());
    EXPECT_GE(r.totalSeconds(), 0.0) << "timing still works";
}

// ---------------------------------------------------------------------
// Forensic documents round-trip through the real reader (json_parse)
// ---------------------------------------------------------------------

TEST(Emitter, DecisionsSectionRoundTrips)
{
    ObsStateGuard guard;
    obs::setEnabled(true);

    Program prog = kernelProgram("daxpy");
    PipelineOptions opts;
    opts.explainBlock = 0;
    ProgramResult r = runPipeline(prog, sparcstation2(), opts);
    ASSERT_FALSE(r.decisions.empty());

    obs::RunMeta meta;
    meta.command = "profile";
    meta.policy = "base-offset";
    obs::EmitOptions emit;
    emit.zeroTimes = true;
    std::string json = obs::programResultJson(r, meta, r.counters,
                                              nullptr, emit);

    obs::JsonValue doc = obs::parseJson(json);
    EXPECT_EQ(doc.at("meta").strOr("policy", ""), "base-offset");
    ASSERT_TRUE(doc.has("decisions"));
    const obs::JsonValue &dec = doc.at("decisions");
    EXPECT_EQ(dec.numberOr("block", -1), 0);
    EXPECT_EQ(dec.at("algorithm").str(), r.decisions.algorithm);
    EXPECT_EQ(dec.numberOr("total_picks", -1),
              static_cast<double>(r.decisions.stats.totalPicks));
    const obs::JsonValue::Array &ranks = dec.at("ranks").array();
    ASSERT_EQ(ranks.size(), r.decisions.rankNames.size());
    const obs::JsonValue::Array &log = dec.at("log").array();
    ASSERT_EQ(log.size(), r.decisions.stats.log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(log[i].numberOr("pick", -1),
                  static_cast<double>(i));
        EXPECT_GE(log[i].numberOr("ready", 0), 1.0);
        EXPECT_FALSE(log[i].at("decided_by").str().empty());
        EXPECT_FALSE(log[i].at("inst").str().empty());
    }
}

TEST(FlightDump, CrashDocumentRoundTrips)
{
    namespace flight = obs::flight;
    flight::setEnabled(true);
    flight::beginRun();
    {
        flight::Recorder *rec = flight::claim();
        ASSERT_NE(rec, nullptr);
        flight::ScopedRecorder scope(rec);
        flight::record(flight::EventKind::RunBegin, "run", "", 2, 10);
        flight::setBlock(0);
        flight::record(flight::EventKind::BlockBegin, "block",
                       "kernel \"daxpy\"\\n", 5);
        flight::record(flight::EventKind::PhaseEnd, "build", "", 5, 7);
        flight::record(flight::EventKind::BlockEnd, "block");
        flight::setPostRun();
        flight::record(flight::EventKind::RunEnd, "run");
    }
    flight::setGauge(flight::Gauge::BlocksTotal, 2);
    flight::DumpInfo info;
    info.crashed = true;
    info.signal = 6;
    info.reason = "test crash";
    info.zeroTimes = true;
    std::string doc = flight::dumpJson(info);
    flight::setEnabled(false);
    flight::beginRun();

    obs::JsonValue v = obs::parseJson(doc);
    EXPECT_EQ(v.numberOr("sched91_flight", 0), 1);
    EXPECT_TRUE(v.at("crashed").boolean());
    EXPECT_EQ(v.numberOr("signal", 0), 6);
    EXPECT_EQ(v.at("reason").str(), "test crash");
    EXPECT_EQ(v.numberOr("events_total", 0), 5);
    const obs::JsonValue::Array &events = v.at("events").array();
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].at("kind").str(), "run_begin");
    EXPECT_EQ(events[0].numberOr("block", 0), -1);
    EXPECT_EQ(events[1].at("kind").str(), "block_begin");
    EXPECT_EQ(events[1].numberOr("block", -9), 0);
    // The quote and backslash were sanitized at record time, so the
    // document needed no escaping to stay well-formed JSON.
    EXPECT_EQ(events[1].at("detail").str().find('"'), std::string::npos);
    EXPECT_EQ(events[4].numberOr("block", 0), -2);
    EXPECT_EQ(v.at("memory").numberOr("blocks_total", 0), 2);
}

} // namespace
} // namespace sched91
