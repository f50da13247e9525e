/**
 * @file
 * Differential test of parseAssembly() against the reference parser
 * (fuzz/reference_parser.hh).  Over the program_gen sweep with syntax
 * corruption on, the malformed corpus, the Table 3 corpus and a list
 * of edge cases, both must give the same Program (rendering, labels,
 * which indexes carry one, interned expressions and every instruction
 * field) and the same diagnostics (severity, line, column and
 * message).  A text large enough to parse on lanes must do so at
 * every lane count, every piece's generations counting on from the
 * pieces before it, and a strict or capped engine must stop it with
 * the same message, diagnostics and counts as a one-lane parse.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/program_gen.hh"
#include "fuzz/reference_parser.hh"
#include "ir/parser.hh"
#include "obs/counters.hh"
#include "obs/events.hh"
#include "support/diagnostics.hh"
#include "support/logging.hh"
#include "support/string_util.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

template <typename Span>
std::string
list(const Span &items)
{
    std::ostringstream os;
    os << '[';
    for (const auto &x : items) {
        if constexpr (std::is_same_v<std::decay_t<decltype(x)>, Resource>)
            os << x.toString() << ' ';
        else
            os << static_cast<int>(x) << ' ';
    }
    os << ']';
    return os.str();
}

/** Every field of @p inst, rendered for an exact comparison. */
std::string
fields(const Instruction &inst)
{
    std::ostringstream os;
    os << "op=" << opcodeName(inst.op()) << " index=" << inst.index()
       << " uses=" << list(inst.uses())
       << " positions=" << list(inst.usePositions())
       << " defs=" << list(inst.defs())
       << " halves=" << list(inst.defPairHalves()) << " imm=" << inst.imm()
       << " usesImm=" << inst.usesImm() << " annul=" << inst.annul()
       << " target='" << inst.target() << "' text='" << inst.text() << "'";
    if (const auto &m = inst.mem())
        os << " mem={base=" << m->base << " index=" << m->index
           << " offset=" << m->offset << " symbol='" << m->symbol
           << "' width=" << int(m->width) << " expr=" << m->exprId
           << " baseGen=" << m->baseGen << " indexGen=" << m->indexGen
           << '}';
    return os.str();
}

std::string
render(const Diag &d)
{
    std::ostringstream os;
    os << severityName(d.severity) << ' ' << d.line << ':' << d.col << ' '
       << d.message;
    return os.str();
}

/**
 * Parse @p text with both parsers, parseAssembly on @p threads lanes,
 * and require the same result, under a lenient engine or, for a text
 * with no malformed line, a strict one.
 */
void
expectSameParse(std::string_view text, const std::string &what,
                unsigned threads = 0, bool strict = false)
{
    DiagnosticEngine::Options opts;
    opts.maxErrors = 0; // compare every line, not just the first 64
    opts.strict = strict;
    DiagnosticEngine got_diags(opts), want_diags(opts);
    Program got = parseAssembly(text, got_diags, "t.s", threads);
    Program want = fuzz::referenceParseAssembly(text, want_diags, "t.s");

    EXPECT_EQ(got.toString(), want.toString()) << what;
    EXPECT_EQ(got.labels(), want.labels()) << what;
    for (std::uint32_t i = 0; i <= want.size(); ++i)
        ASSERT_EQ(got.hasLabelAt(i), want.hasLabelAt(i))
            << what << ", index " << i;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(fields(got[i]), fields(want[i])) << what << ", inst " << i;
    ASSERT_EQ(got.memExprs().size(), want.memExprs().size()) << what;
    for (std::uint32_t id = 0; id < got.memExprs().size(); ++id)
        EXPECT_EQ(got.memExprs().key(id), want.memExprs().key(id)) << what;

    ASSERT_EQ(got_diags.diags().size(), want_diags.diags().size())
        << what << "\nparseAssembly:\n"
        << got_diags.render() << "reference:\n"
        << want_diags.render();
    for (std::size_t i = 0; i < got_diags.diags().size(); ++i)
        ASSERT_EQ(render(got_diags.diags()[i]), render(want_diags.diags()[i]))
            << what;
}

TEST(ParserOracle, CorruptedProgramGenSweep)
{
    // differential_test's sweep schedule, every program corrupted.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        fuzz::GenParams p;
        p.seed = 0x5eed0000 + i;
        p.numBlocks = 1 + static_cast<int>(i % 3);
        p.maxBlockSize = 4 + static_cast<int>(i % 28);
        p.fpMix = (i % 5) / 10.0;
        p.memMix = (i % 7) / 10.0;
        p.storeBias = 0.5;
        p.branchProb = (i % 4) / 3.0;
        p.intRegPool = 2 + static_cast<int>(i % 10);
        p.fpRegPool = 2 + static_cast<int>(i % 6);
        p.memExprPool = 1 + static_cast<int>(i % 6);
        p.symbolMix = (i % 3) / 4.0;
        p.bigImmMix = (i % 10 == 0) ? 0.3 : 0.0;
        p.corruption = 0.05 + (i % 4) * 0.1;
        expectSameParse(fuzz::generateSource(p),
                        "sweep program " + std::to_string(i));
    }
}

TEST(ParserOracle, MalformedCorpus)
{
    namespace fs = std::filesystem;
    int files = 0;
    for (const auto &entry :
         fs::directory_iterator(SCHED91_SOURCE_DIR "/tests/corpus/malformed")) {
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        expectSameParse(text.str(), entry.path().filename().string());
        ++files;
    }
    EXPECT_GE(files, 8);
}

TEST(ParserOracle, Table3Corpus)
{
    for (const WorkloadProfile &profile : allProfiles())
        expectSameParse(generateProgram(profile).toString(), profile.name);
}

TEST(ParserOracle, EdgeCases)
{
    const char *const lines[] = {
        // Addresses: operator soup, signs, %lo, symbols, overflow.
        "ld [%g1 -], %g2", "ld [%g1 - - 4], %g2", "ld [%g1 + + 4], %g2",
        "ld [-4], %g2", "ld [+%g1], %g2", "ld [-%g1], %g2", "ld [-sym], %g2",
        "ld [%g1+%g2+%g3], %g4", "ld [a+b], %g1", "ld [%lo(a+b)], %g1",
        "ld [%lo(-x)+%g1], %g2", "ld [%lo(sym)+%g1+4], %g2",
        "ld [ %g1 + 8 ] , %g2", "ld [%f2+4], %g1", "ld [%y], %g1",
        "ld [08], %g1", "ld [%g1+08], %g1", "ld [%g1+0x], %g1",
        "ld [%g1+0x10-0X1f], %g1", "ld [%g1+07], %g1",
        "ld [%g1-9223372036854775808], %g2",
        "ld [%g1-9223372036854775808-1], %g2",
        "ld [%g1+9223372036854775808], %g2",
        "ld [%g1+0x7fffffffffffffff+1], %g2",
        "ld [%g1+0xffffffffffffffff], %g2", "ld [%g1 +], %g3",
        "ld [], %g3", "ld [ ], %g3", "ld [%g1+4, %g2", "ld %g1], [%g2",
        "st %g1, [%g2]]", "std %f2, [%sp+64]", "ldd [%o0], %f4",
        "ld [%o0], %f1", "st %f1, [%o0]", "ldub [%o0+1], %g1",
        // Around the common shapes an address is read straight in.
        "ld [%o0 - 48], %g1", "ld [%o0 -48], %g1", "ld [%o0+0], %g1",
        "ld [%o0+123456789012345678], %g1",
        "ld [%o0-1234567890123456789], %g1", "ld [%o0 + %o1 ], %g1",
        "ld [%o0\t+\t4], %g1", "ld [%o0 +\v4], %g1", "ld [%o8], %g1",
        "ld [%G1+4], %g1", "ld [%o0+48x], %g1", "ld [%o0-%o1], %g1",
        "ld [%o0+%o1+4], %g1", "ld [%i7+4095], %g1", "ld [%sp+64], %g1",
        // Integers and immediates.
        "add %g1, 0x, %g2", "add %g1, 08, %g2", "add %g1, 0777, %g2",
        "add %g1, -0x8000000000000000, %g2",
        "add %g1, 9223372036854775807, %g2",
        "add %g1, 9223372036854775808, %g2",
        "add %g1, -9223372036854775809, %g2", "add %g1, +5, %g2",
        "add %g1, +-5, %g2", "add %g1, - 5, %g2", "add %g1, 5x, %g2",
        "mov 99999999999999999999999999, %g1", "mov -4097, %g3",
        "cmp %g1, 4096", "sethi %hi(buf), %g1", "sethi 99999999999999999999, %g1",
        "sethi %g1, %g2", "add %g1, %lo(x), %g2", "add %g1, %hi(, %g2",
        "restore %g1, 5, %g2", "restore %g1, %g2, %g3", "restore",
        "restore %g1, 99999999999999999999, %g2", "restore %g1",
        // Mnemonics, case, annul, operand counts.
        "ADD %g1, 1, %g2", "add %G1, 1, %g2", "BNE,A .L1", "bne,a .L1",
        "add,a %g1, %g2, %g3", ",a x", "x,a", "abcdefghijklmnopqrstuvwxyz,a",
        "ABCDEFGHIJKLMNOPQ,A y", "fsqrtd,a %f0, %f2", "ba", "call",
        "nop %g1", "add %g1, %g2", "add %g1,, %g2, %g3",
        "add %g1, %g2, %g3, %g4, %g5", "add add", "or %g1, 5, 5",
        "fadds %q1, %q2, %q3", "fmovs %q1, %q2", "fcmps %q1, %q2",
        "fitod %f1, %q2", "faddd %f0, %f2, %f4", "fcmpd %f0, %f2",
        "jmpl %o7, %g0", "call printf", "ret", "retl",
        // Lines, labels, directives, comments, whitespace.
        "nop ! comment", "  # only a comment", ".text", ".L1:", ".L1: nop",
        "a:b", "top:", "top:", "label with space:", "nop\r", "\tadd\t%g1,\t2,\t%g3\t",
        "add\v%g1, 1, %g2", "add %g1, 1, %g2 ! [%g1", "ld [%g1 # 4], %g2",
        "   ", "", "\f", "nop\v",
    };
    std::string all;
    for (const char *line : lines) {
        expectSameParse(line, line);
        all += line;
        all += '\n';
    }
    expectSameParse(all, "all edge cases");
    expectSameParse(std::string_view("add %g1, 1\0, %g2\nnop", 20), "NUL");
    expectSameParse("nop\n\n\n", "trailing newlines");
}

/**
 * 400 corrupted program_gen programs back to back (about 240 KB, far
 * above the size at which parseAssembly uses lanes), each defining L0,
 * L1, ...: errors, warnings and duplicate labels fall on both sides of
 * every chunk border, and a duplicate's first definition is usually in
 * an earlier chunk.  One line in the middle ends in CRLF.
 */
std::string
corruptedCorpus()
{
    std::string text;
    for (std::uint64_t i = 0; i < 400; ++i) {
        fuzz::GenParams p;
        p.seed = 0x1a9e0000 + i;
        p.numBlocks = 1 + static_cast<int>(i % 4);
        p.maxBlockSize = 8 + static_cast<int>(i % 24);
        p.fpMix = (i % 5) / 10.0;
        p.memMix = (i % 7) / 10.0;
        p.memExprPool = 1 + static_cast<int>(i % 6);
        p.symbolMix = (i % 3) / 4.0;
        p.bigImmMix = (i % 10 == 0) ? 0.3 : 0.0;
        p.corruption = 0.05 + (i % 4) * 0.05;
        text += fuzz::generateSource(p);
        if (i == 200)
            text += "    add %g1, 2, %g3\r\n";
    }
    return text;
}

TEST(ParserOracle, LanesMatchTheReferenceAtEveryLaneCount)
{
    const std::string text = corruptedCorpus();
    ASSERT_GT(text.size(), 200u * 1024);
    // The same text with no newline after its last line.
    const std::string unterminated =
        text + "L1:\n    add %g1, 1, %g2 ! no newline";
    for (unsigned lanes : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(lanes) + " lanes");
        expectSameParse(text, "corrupted corpus", lanes);
        expectSameParse(unterminated, "no final newline", lanes);
    }
}

/** How a parse ended: its exception, diagnostics and counts. */
struct Outcome
{
    std::string thrown; ///< the FatalError's message; empty if none
    std::string diags;  ///< every recorded diagnostic, rendered
    std::uint64_t warnings = 0; ///< robust.parse_warnings
    std::uint64_t errors = 0;   ///< robust.parse_errors
};

/** Parse @p text on @p lanes lanes under @p opts, counting into a
 * shard of the calling thread's. */
Outcome
parseOutcome(std::string_view text, DiagnosticEngine::Options opts,
             unsigned lanes)
{
    Outcome out;
    DiagnosticEngine diags(opts);
    obs::CounterShard shard;
    {
        obs::ScopedCounterShard scope(shard);
        try {
            parseAssembly(text, diags, "t.s", lanes);
        } catch (const FatalError &e) {
            out.thrown = e.what();
        }
    }
    out.diags = diags.render();
    out.warnings = shard.value(obs::ev::robustParseWarnings.id());
    out.errors = shard.value(obs::ev::robustParseErrors.id());
    return out;
}

/** Each line of piecewiseText(), padded to this many bytes. */
constexpr std::size_t kLineBytes = 24;

/**
 * About 56 KB of lines of kLineBytes bytes each, cut as parseAssembly
 * cuts a text for 2, 3, 4 and 8 lanes: every piece but the last ends
 * in a malformed line and then a label, whose instruction is the next
 * piece's first.
 */
std::string
piecewiseText()
{
    constexpr std::size_t kLines = 2400;
    std::vector<std::string> lines(kLines);
    for (std::size_t i = 0; i < kLines; ++i)
        lines[i] = i % 3 == 0   ? "    ld [%o0 + 8], %o1"
                   : i % 3 == 1 ? "    add %o1, 1, %o2"
                                : "    st %o2, [%o0 + %o3]";
    // A piece ends at the first newline at or past size / n * i: the
    // end of the line holding that byte.
    const std::size_t size = kLines * kLineBytes;
    for (std::size_t n : {2u, 3u, 4u, 8u})
        for (std::size_t i = 1; i < n; ++i) {
            const std::size_t last = size / n * i / kLineBytes;
            lines[last - 1] = "    frobnicate %o1";
            lines[last] = numbered("P", last) + ":";
        }
    std::string text;
    for (std::string &line : lines) {
        line.resize(kLineBytes - 1, ' ');
        text += line;
        text += '\n';
    }
    return text;
}

TEST(ParserOracle, PiecesEndingInAnErrorAndALabel)
{
    const std::string text = piecewiseText();
    ASSERT_GE(text.size(), kLaneParseBytes);
    DiagnosticEngine::Options strict;
    strict.strict = true;
    DiagnosticEngine::Options lenient;
    lenient.maxErrors = 0;
    obs::setEnabled(true);
    const Outcome strict_one = parseOutcome(text, strict, 1);
    const Outcome lenient_one = parseOutcome(text, lenient, 1);
    EXPECT_FALSE(strict_one.thrown.empty());
    EXPECT_EQ(lenient_one.errors, 9u); // one per distinct cut
    {
        DiagnosticEngine diags(lenient);
        const Program prog = parseAssembly(text, diags, "t.s", 1);
        EXPECT_EQ(prog.labels().size(), 9u);
        // Its 1200 lines before, less four labels and five errors.
        EXPECT_EQ(prog.labelTarget(numbered("P", 1200)), 1191);
    }
    for (unsigned lanes : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(lanes) + " lanes");
        expectSameParse(text, "pieces ending in an error and a label",
                        lanes);
        const Outcome got_strict = parseOutcome(text, strict, lanes);
        EXPECT_EQ(got_strict.thrown, strict_one.thrown);
        EXPECT_EQ(got_strict.diags, strict_one.diags);
        EXPECT_EQ(got_strict.errors, strict_one.errors);
        const Outcome got_lenient = parseOutcome(text, lenient, lanes);
        EXPECT_EQ(got_lenient.diags, lenient_one.diags);
        EXPECT_EQ(got_lenient.errors, lenient_one.errors);
    }
    obs::setEnabled(false);
}

/**
 * About 144 KB of lines of kLineBytes bytes each that load and store
 * through base and index registers redefined every few lines, %sp
 * among them, with @p mark's line (a label, a branch, a call or a
 * save) as the last line of every piece parseAssembly cuts for 2, 3, 4
 * and 8 lanes, the line before it and the next piece's first.  Each
 * piece's generations count on from the pieces before it only if the
 * lane merge rebases them.
 */
std::string
markedText(const std::string &mark)
{
    constexpr std::size_t kLines = 6000;
    static constexpr const char *kPattern[] = {
        "    ld [%o0 + 8], %o1",    "    add %o0, 4, %o0",
        "    st %o1, [%o0 + %o2]",  "    add %o2, %o1, %o2",
        "    ldd [%o2 + 16], %f2",  "    ld [%sp + 64], %o3",
        "    st %o3, [%o1 + %o0]",
    };
    std::vector<std::string> lines(kLines);
    for (std::size_t i = 0; i < kLines; ++i)
        lines[i] = kPattern[i % std::size(kPattern)];
    const std::size_t size = kLines * kLineBytes;
    for (std::size_t n : {2u, 3u, 4u, 8u})
        for (std::size_t i = 1; i < n; ++i) {
            const std::size_t last = size / n * i / kLineBytes;
            for (std::size_t at = last - 1; at <= last + 1; ++at)
                lines[at] = mark == "label" ? numbered("M", at) + ":"
                                            : "    " + mark;
        }
    std::string text;
    for (std::string &line : lines) {
        line.resize(kLineBytes - 1, ' ');
        text += line;
        text += '\n';
    }
    return text;
}

TEST(ParserOracle, LanesRebaseGenerationsAtEveryPieceBoundary)
{
    for (const std::string mark :
         {"label", "ba M0", "call foo", "save %sp, -96, %sp"}) {
        const std::string text = markedText(mark);
        ASSERT_GE(text.size(), kLaneParseBytes);
        for (unsigned lanes : {2u, 3u, 4u, 8u})
            for (bool strict : {false, true}) {
                SCOPED_TRACE(mark + " at " + std::to_string(lanes) +
                             (strict ? " lanes, strict" : " lanes"));
                expectSameParse(text, mark, lanes, strict);
            }
    }
}

TEST(ParserOracle, LanesStopWhereOneLaneStops)
{
    const std::string text = corruptedCorpus();
    DiagnosticEngine::Options strict;
    strict.strict = true;
    DiagnosticEngine::Options capped;
    capped.maxErrors = 64;
    DiagnosticEngine::Options uncapped;
    uncapped.maxErrors = 0;

    obs::setEnabled(true);
    for (const auto &[name, opts] :
         {std::pair{"strict", strict}, std::pair{"capped", capped},
          std::pair{"uncapped", uncapped}}) {
        const Outcome one = parseOutcome(text, opts, 1);
        if (opts.maxErrors == 0) {
            EXPECT_TRUE(one.thrown.empty()) << name;
            EXPECT_GT(one.errors, 64u) << name;
        } else {
            EXPECT_FALSE(one.thrown.empty()) << name;
        }
        EXPECT_GT(one.warnings, 0u) << name;
        for (unsigned lanes : {2u, 3u, 4u, 8u}) {
            SCOPED_TRACE(std::string(name) + " at " +
                         std::to_string(lanes) + " lanes");
            const Outcome got = parseOutcome(text, opts, lanes);
            EXPECT_EQ(got.thrown, one.thrown);
            EXPECT_EQ(got.diags, one.diags);
            EXPECT_EQ(got.warnings, one.warnings);
            EXPECT_EQ(got.errors, one.errors);
        }
    }
    obs::setEnabled(false);
}

} // namespace
} // namespace sched91
