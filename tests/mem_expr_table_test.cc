/**
 * @file
 * MemExprTable against plain string interning.  The table interns an
 * operand by value, from its fields; its ids must be the ones a
 * std::unordered_map over MemOperand::exprKey() hands out in order of
 * first appearance, and key(id) that string, over the serve-shaped
 * programs, the Table 3 texts (also parsed on lanes, which merges the
 * chunks' tables), generateProgram's programs (built through
 * Program::append) and the malformed corpus.  parser_oracle_test
 * cannot see an interning mistake: its reference parser interns
 * through the same table.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "fuzz/program_gen.hh"
#include "ir/parser.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

/** @p prog's expression ids and keys, checked against string interning. */
void
expectStringInterning(const Program &prog, const std::string &what)
{
    std::unordered_map<std::string, std::uint32_t> ids;
    for (const Instruction &inst : prog.insts()) {
        const auto &mem = inst.mem();
        if (!mem)
            continue;
        const std::string key = mem->exprKey();
        const auto [it, added] = ids.try_emplace(
            key, static_cast<std::uint32_t>(ids.size()));
        ASSERT_EQ(mem->exprId, it->second)
            << what << ", inst " << inst.index() << " '" << key << "'";
        ASSERT_EQ(prog.memExprs().key(mem->exprId), key) << what;
    }
    EXPECT_EQ(prog.memExprs().size(), ids.size()) << what;
}

Program
parseLenient(std::string_view text, unsigned threads = 1)
{
    DiagnosticEngine::Options opts;
    opts.maxErrors = 0;
    DiagnosticEngine diags(opts);
    return parseAssembly(text, diags, "t.s", threads);
}

TEST(MemExprTable, ServeShapedProgramsInternAsStrings)
{
    for (int i = 0; i < 2048; ++i) {
        fuzz::GenParams p;
        p.seed = 801 + static_cast<std::uint64_t>(i);
        p.numBlocks = 1 + i % 8;
        p.maxBlockSize = 64;
        expectStringInterning(parseLenient(fuzz::generateSource(p)),
                              "serve-shaped program " + std::to_string(i));
    }
}

TEST(MemExprTable, Table3TextsInternAsStringsOnEveryLaneCount)
{
    for (const WorkloadProfile &profile : allProfiles()) {
        const std::string text = generateProgram(profile).toString();
        for (unsigned lanes : {1u, 4u})
            expectStringInterning(parseLenient(text, lanes),
                                  profile.name + " at " +
                                      std::to_string(lanes) + " lanes");
    }
}

TEST(MemExprTable, GeneratedProgramsInternAsStrings)
{
    for (const WorkloadProfile &profile : allProfiles())
        expectStringInterning(generateProgram(profile), profile.name);
}

TEST(MemExprTable, MalformedCorpusInternsAsStrings)
{
    namespace fs = std::filesystem;
    int files = 0;
    for (const auto &entry : fs::directory_iterator(
             SCHED91_SOURCE_DIR "/tests/corpus/malformed")) {
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        expectStringInterning(parseLenient(text.str()),
                              entry.path().filename().string());
        ++files;
    }
    EXPECT_GE(files, 8);
}

TEST(MemExprTable, OperandsWhoseKeysMatchShareAnId)
{
    // A %lo() symbol that reads as a register and a register base
    // render alike, so they share an id, as their key strings would.
    const Program prog = parseLenient("ld [%lo(%g1)], %g2\n"
                                      "ld [%g1], %g3\n"
                                      "ld [%g1+4], %g4\n"
                                      "ld [%g1+%g2], %g5\n"
                                      "ld [%lo(%g1)+%g2], %g6\n"
                                      "ld [%g1+%g2+0], %g7\n");
    ASSERT_EQ(prog.size(), 6u);
    expectStringInterning(prog, "edge cases");
    EXPECT_EQ(prog[0].mem()->exprId, prog[1].mem()->exprId);
    EXPECT_EQ(prog[3].mem()->exprId, prog[4].mem()->exprId);
    EXPECT_EQ(prog[3].mem()->exprId, prog[5].mem()->exprId);
    EXPECT_EQ(prog.memExprs().size(), 3u);
}

} // namespace
} // namespace sched91
