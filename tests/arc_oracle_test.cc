/**
 * @file
 * Arc-sequence oracle for the DAG builders.  For every builder and
 * alias policy, each input's DAGs are hashed arc by arc, in arc-id
 * order: (from, to, kind, delay, resource), with each block's size
 * and arc count in front.  The expected hashes below were made with
 * the library as it was before the table builders indexed their
 * memory table, so they pin that an index changes only how many
 * questions the alias oracle is asked: never an arc, its order or
 * its delay.
 *
 * Inputs: the nine Table 3 profiles (the n**2 builders skip blocks
 * over kN2MaxInsts instructions, as the pipeline's fallback would),
 * fpppp at windows 1000/2000/4000, the differential sweep's 1000
 * programs (fuzz::sweepParams), and hand-made blocks, each written
 * so that one way of getting the memory index wrong changes its arcs:
 * an index-register reference (the side list), a base register
 * redefined mid-block (generations), overlapping byte ranges of
 * different widths, symbol-only references, and shapes that share a
 * hash bucket.
 *
 * A hash that is missing from kExpected or differs fails the test,
 * which also prints the row as it would read.  So to regenerate the
 * table, empty kExpected, build this file against the library whose
 * arcs it should pin, and paste in what
 *
 *     arc_oracle_test | grep -A1 --no-group-separator '^    {"'
 *
 * prints.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dag/builder.hh"
#include "dag/memdep.hh"
#include "fuzz/program_gen.hh"
#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "support/diagnostics.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

constexpr std::array<AliasPolicy, 4> kPolicies = {
    AliasPolicy::SerializeAll,
    AliasPolicy::BaseOffset,
    AliasPolicy::StorageClassed,
    AliasPolicy::SymbolicExpr,
};

/** Largest block the n**2 builders are run on here. */
constexpr std::uint32_t kN2MaxInsts = 2000;

/** Hand-made blocks, one trap each (see the file comment). */
struct HandBlock
{
    const char *name;
    const char *text;
};

constexpr HandBlock kHandBlocks[] = {
    // Entry 0 has an index register, so it goes on the side list.
    // The load at 2 has none: it must meet entry 0 before its own
    // shape's entry 1 (entry order); the indexed load at 3 meets all.
    {"indexed", R"(
    st    %o1, [%o0+%o2]
    st    %o3, [%o4+8]
    ld    [%o4+8], %o5
    ld    [%o0+%o2], %l0
    st    %l1, [%o4+16]
    ld    [%o4+16], %l2
    st    %l3, [%o0+%o2]
)"},
    // %o0 is redefined twice.  A reference of one generation may
    // alias any of another generation's, whatever the offsets; the
    // load at 6 meets entries of two older generations, which must
    // come in entry order.
    {"generations", R"(
    st    %o1, [%o0+8]
    ld    [%o0+16], %o2
    add   %o0, 4, %o0
    ld    [%o0+16], %o3
    st    %o4, [%o0+24]
    add   %o0, 4, %o0
    ld    [%o0+0], %o5
    st    %o5, [%o0+16]
)"},
    // Byte ranges of widths 1, 2, 4 and 8 that overlap without equal
    // offsets, so entries sorted by offset are not in entry order.
    {"widths", R"(
    st    %o1, [%o0+4]
    std   %o2, [%o0+0]
    ld    [%o0+4], %o4
    stb   %o5, [%o0+7]
    lduh  [%o0+6], %l0
    ld    [%o0+8], %l1
    ldd   [%o0-4], %l2
    stx   %l4, [%o0+2]
)"},
    // References through a symbol and no register: distinct symbols
    // never alias, the same symbol at a disjoint offset neither.
    {"symbols", R"(
    st    %o1, [data0+8]
    st    %o2, [data1+8]
    ld    [data0+8], %o3
    ld    [data0+16], %o4
    st    %o5, [data1+12]
    ld    [%lo(data0)+%o1], %l0
    st    %l1, [data0]
    ld    [data1+8], %l2
)"},
    // s0 and s10 share a home bucket of the shape table, and so do
    // %g1 and s2: a lookup that does not compare the whole shape finds
    // the wrong one.
    {"bucket", R"(
    st    %o1, [s0+8]
    st    %o2, [s10+8]
    ld    [s10+8], %o3
    ld    [s0+8], %o4
    st    %o5, [%g1+16]
    st    %l0, [s2+16]
    ld    [s2+16], %l1
    ld    [%g1+16], %l2
)"},
};

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    // FNV-1a over the value's eight bytes.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Fold every block of @p prog built by @p builder into @p h. */
std::uint64_t
hashProgram(std::uint64_t h, const Program &prog,
            const std::vector<BasicBlock> &blocks, BuilderKind builder,
            AliasPolicy policy)
{
    const MachineModel machine = sparcstation2();
    const bool n2 = builder == BuilderKind::N2Forward ||
                    builder == BuilderKind::N2Backward ||
                    builder == BuilderKind::N2Landskov;
    BuildOptions opts;
    opts.memPolicy = policy;
    auto b = makeBuilder(builder);
    for (const BasicBlock &bb : blocks) {
        if (n2 && bb.size() > kN2MaxInsts)
            continue;
        Dag dag = b->build(BlockView(prog, bb), machine, opts);
        h = mix(h, dag.size());
        h = mix(h, dag.numArcs());
        for (const Arc &arc : dag.arcs()) {
            h = mix(h, arc.from);
            h = mix(h, arc.to);
            h = mix(h, static_cast<std::uint64_t>(arc.kind));
            h = mix(h, static_cast<std::uint64_t>(arc.delay));
            h = mix(h, static_cast<std::uint64_t>(arc.res.slot() + 1));
        }
    }
    return h;
}

/** One input: its programs and their blocks. */
struct Input
{
    std::string name;
    std::vector<Program> programs;
    std::vector<std::vector<BasicBlock>> blocks;

    void
    add(Program prog, const PartitionOptions &partition = {})
    {
        programs.push_back(std::move(prog));
        blocks.push_back(partitionBlocks(programs.back(), partition));
    }

    std::uint64_t
    hash(BuilderKind builder, AliasPolicy policy) const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::size_t i = 0; i < programs.size(); ++i)
            h = hashProgram(h, programs[i], blocks[i], builder, policy);
        return h;
    }
};

std::vector<Input>
table3Inputs()
{
    std::vector<Input> inputs;
    for (const WorkloadProfile &profile : allProfiles()) {
        inputs.push_back(Input{profile.name, {}, {}});
        inputs.back().add(generateProgram(profile));
    }
    return inputs;
}

std::vector<Input>
windowInputs(int window)
{
    PartitionOptions partition;
    partition.window = window;
    std::vector<Input> inputs;
    inputs.push_back(Input{"fpppp-" + std::to_string(window), {}, {}});
    inputs.back().add(generateProgram(profileByName("fpppp")), partition);
    return inputs;
}

std::vector<Input>
sweepInputs()
{
    Input sweep{"sweep", {}, {}};
    for (std::uint64_t i = 0; i < 1000; ++i) {
        DiagnosticEngine::Options dopts;
        dopts.maxErrors = 0;
        DiagnosticEngine diags(dopts);
        sweep.add(parseAssembly(fuzz::generateSource(fuzz::sweepParams(i)),
                                diags, "<sweep>", 1));
    }
    std::vector<Input> inputs;
    inputs.push_back(std::move(sweep));
    return inputs;
}

std::vector<Input>
handInputs()
{
    std::vector<Input> inputs;
    for (const HandBlock &block : kHandBlocks) {
        inputs.push_back(Input{block.name, {}, {}});
        inputs.back().add(parseAssembly(block.text));
    }
    return inputs;
}

struct Expected
{
    const char *input;
    BuilderKind builder;
    AliasPolicy policy;
    std::uint64_t hash;
};

// clang-format off
const std::vector<Expected> kExpected = {
    {"grep", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x247171687c78c38dull},
    {"grep", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xea3f08cc64abb2e3ull},
    {"grep", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0xea3f08cc64abb2e3ull},
    {"grep", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x49d3d75d58ef5f88ull},
    {"grep", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xcb5db59bbdefcfadull},
    {"grep", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x00bea84567ce4b43ull},
    {"grep", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x00bea84567ce4b43ull},
    {"grep", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x0d4d9865a59a1e88ull},
    {"grep", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0xdaf03d58c6eb76e1ull},
    {"grep", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x42a46555ce4f9a28ull},
    {"grep", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x42a46555ce4f9a28ull},
    {"grep", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0xd7b2635fb3b9ec82ull},
    {"grep", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x7e9baf05334a7235ull},
    {"grep", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xd138fd9711ad2ebfull},
    {"grep", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xd138fd9711ad2ebfull},
    {"grep", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0xd3ce969abcc3b894ull},
    {"grep", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0xbaeb98bf134c3615ull},
    {"grep", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0xe534df03a1b2b15cull},
    {"grep", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0xe534df03a1b2b15cull},
    {"grep", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0xf6986b22b777f5d4ull},
    {"regex", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xba3c4f334f6f9e46ull},
    {"regex", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x07bd624f7a1d6ff6ull},
    {"regex", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0xcaf01d8c9b4c727cull},
    {"regex", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x5ff4ef43b6725aa4ull},
    {"regex", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x8b0cea50b7d60c86ull},
    {"regex", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x0ce16f84f4f805b6ull},
    {"regex", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x73df6d922ca0d03cull},
    {"regex", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x9c51411f59d5c784ull},
    {"regex", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0xc4935a4afdf76822ull},
    {"regex", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x14d075495c1ade4full},
    {"regex", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x14f00a3a1e6befd7ull},
    {"regex", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x0f0644843b4acc0bull},
    {"regex", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0xfada9a5d7a7f80d3ull},
    {"regex", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xe5416e73886157c7ull},
    {"regex", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xb6ba57e4620f18e3ull},
    {"regex", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x025b9e07c27ca15bull},
    {"regex", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x6ed12ac303da03d3ull},
    {"regex", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x3ecf44f2a188360aull},
    {"regex", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0xc0f78951cad5c75full},
    {"regex", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x03da31aac25d727bull},
    {"dfa", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x148cf8d09423d5e7ull},
    {"dfa", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x7eb72e952f0a7ab4ull},
    {"dfa", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0xb22f78da3cb0b534ull},
    {"dfa", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x91d5754b059ca516ull},
    {"dfa", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xd52316e86dea6d27ull},
    {"dfa", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x8152840e60db0a94ull},
    {"dfa", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0xaaedb5068d0ddab4ull},
    {"dfa", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xb8459a0f4af1c516ull},
    {"dfa", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0xd70c206e3328a57aull},
    {"dfa", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x92c02306bf9e63ebull},
    {"dfa", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x177d2a5d033d8226ull},
    {"dfa", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x6b557fd10d028277ull},
    {"dfa", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x765575083c990df3ull},
    {"dfa", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0x270cdc8b8cdd5530ull},
    {"dfa", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xa4e71585a91d81a2ull},
    {"dfa", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x5551df03f61714ecull},
    {"dfa", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0xb3ca25fc204c2af3ull},
    {"dfa", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0xbb749619f72fafaaull},
    {"dfa", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x9e8534f7d48517acull},
    {"dfa", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x43c22d8d17179b4cull},
    {"cccp", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x6bc06d2eb59ca20eull},
    {"cccp", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x9a7c2a2b18ca0fc1ull},
    {"cccp", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0xb62afb621ef99a5bull},
    {"cccp", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x562a21e94aa82368ull},
    {"cccp", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x62b9c9940431864eull},
    {"cccp", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0xfdc3f9413e908f81ull},
    {"cccp", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x17a7614c8e26271bull},
    {"cccp", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x61b31b44c792b428ull},
    {"cccp", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x43d42440ba02b8a8ull},
    {"cccp", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x01bcc7718fa3f854ull},
    {"cccp", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x94024cd14ccf03aaull},
    {"cccp", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x441d098bb50c440eull},
    {"cccp", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x90f48c8613ac03ddull},
    {"cccp", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xc436fd3f9168bc17ull},
    {"cccp", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x810efe6b312d26cfull},
    {"cccp", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x8e91f2e2df566090ull},
    {"cccp", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0xdbe540a9f06e6bbdull},
    {"cccp", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x7e41c745385e7d7eull},
    {"cccp", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x9f9349b423b00740ull},
    {"cccp", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x51a20722bac17db0ull},
    {"linpack", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x090e4a7056f35a1eull},
    {"linpack", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xf357a7492c2e3108ull},
    {"linpack", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0xc077ae1659bb5196ull},
    {"linpack", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x8550aa93159e81f4ull},
    {"linpack", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x32371eb09076361eull},
    {"linpack", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x0f5d5e4d3eedb648ull},
    {"linpack", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0xcb388e989fb0a176ull},
    {"linpack", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x21df45be73336c34ull},
    {"linpack", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x81cae95bfcd826e3ull},
    {"linpack", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x6dc20de5bc46800bull},
    {"linpack", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x932c835a85e8a8f8ull},
    {"linpack", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x5f992281e6ce49d8ull},
    {"linpack", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x81146336030689f2ull},
    {"linpack", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xa4de3b11bf7ba8ceull},
    {"linpack", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xfc7dc718ffb78e65ull},
    {"linpack", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x8722839cdc56027bull},
    {"linpack", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x361ed52820656ed2ull},
    {"linpack", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x40f08e64bd4bcd74ull},
    {"linpack", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x398c53a0980845feull},
    {"linpack", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x12a347381b1cb7dbull},
    {"lloops", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x61f7531a8ae91620ull},
    {"lloops", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x0a0f62337b848298ull},
    {"lloops", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x270c24525fb42929ull},
    {"lloops", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x50b7e862351a026cull},
    {"lloops", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x9d58a31e5a8ed760ull},
    {"lloops", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x11d85b8dd09cd2f8ull},
    {"lloops", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x6aa9196a89d6e569ull},
    {"lloops", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xf65d4033a211454cull},
    {"lloops", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0xfef260b7a7489775ull},
    {"lloops", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0xe1cd68093dc09db4ull},
    {"lloops", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0xfceea275d8dab20aull},
    {"lloops", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x17f4307109dbb27bull},
    {"lloops", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x60b1bbc90197b728ull},
    {"lloops", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0x88e54fba599690d4ull},
    {"lloops", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x997477d8a4f81298ull},
    {"lloops", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x226c08dff02c1c08ull},
    {"lloops", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0xf7820ca5194c9168ull},
    {"lloops", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0xc709fac10db9cc8cull},
    {"lloops", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0xf80f64d5f9b2bbe2ull},
    {"lloops", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0xbe9c86e7a2879568ull},
    {"tomcatv", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xd9918d4153781304ull},
    {"tomcatv", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xcadaac6df815932eull},
    {"tomcatv", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x834b9a91eb6d07baull},
    {"tomcatv", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x9add0c089ec397f4ull},
    {"tomcatv", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x6b10a6a955bdf1d0ull},
    {"tomcatv", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x810d7a40ae6083eeull},
    {"tomcatv", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x6e9f50c2fec781c2ull},
    {"tomcatv", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x7f4dc150e4890698ull},
    {"tomcatv", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x020c819d4f143bf0ull},
    {"tomcatv", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x00f7639dce8bfaf9ull},
    {"tomcatv", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x218069ddc701aaf5ull},
    {"tomcatv", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x5d0c2b8b18bb9f65ull},
    {"tomcatv", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0xd24f006a112f9331ull},
    {"tomcatv", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xe451aef862c5ceb0ull},
    {"tomcatv", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x3dd928fc48ed35fcull},
    {"tomcatv", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x154a774c42970e2eull},
    {"tomcatv", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0xbc10279e59866361ull},
    {"tomcatv", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x0d23862cc6257f84ull},
    {"tomcatv", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x83c401cb45588e64ull},
    {"tomcatv", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x4357ceebd42b6b9eull},
    {"nasa7", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x1db012a9cb31f802ull},
    {"nasa7", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x7ee55323046ca42cull},
    {"nasa7", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x2223831077bec645ull},
    {"nasa7", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x17df3063afaa8102ull},
    {"nasa7", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xdd67adc497d08676ull},
    {"nasa7", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0xa272eea4ca30ab1cull},
    {"nasa7", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0xc8fbe78af770f469ull},
    {"nasa7", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x07e6937c0de37992ull},
    {"nasa7", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x14d2fce7abdee618ull},
    {"nasa7", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x88db153f40681a2eull},
    {"nasa7", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0xa3584a33e13bdca9ull},
    {"nasa7", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0xc8b8b7b9dd4a13caull},
    {"nasa7", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x072465636b260d68ull},
    {"nasa7", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0x00f3c685ced8b5a5ull},
    {"nasa7", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xaf87a7aefbab381dull},
    {"nasa7", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x8f3b0d2e4e849045ull},
    {"nasa7", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x177d0b73d7ff6564ull},
    {"nasa7", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0xf98ea792cbf98b23ull},
    {"nasa7", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0xcadbff3fbd90c19aull},
    {"nasa7", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x7d6eeab10e21c2ddull},
    {"fpppp", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xd5a15f556983a339ull},
    {"fpppp", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xbec5d65b40091722ull},
    {"fpppp", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x8c31a4ab1ea5fae4ull},
    {"fpppp", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0xfce449bd1bb029c4ull},
    {"fpppp", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x2f031b40650a09f9ull},
    {"fpppp", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x2ddcc843f290d582ull},
    {"fpppp", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x7f7f04763cbcee64ull},
    {"fpppp", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xfa8ee849d92fa7c4ull},
    {"fpppp", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x0039bdac7869a529ull},
    {"fpppp", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0xb8aa79a2d5032475ull},
    {"fpppp", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x180a19db6ec29d2eull},
    {"fpppp", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0xd9798daebbc76001ull},
    {"fpppp", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x64477b8b98866f86ull},
    {"fpppp", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xb464dda0d457f647ull},
    {"fpppp", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x485f9b7041c131fcull},
    {"fpppp", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0xf23e9d2462c69feeull},
    {"fpppp", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x99f37732f3c8c01aull},
    {"fpppp", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x18af0f44f3a56bf0ull},
    {"fpppp", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x410df618afdd048aull},
    {"fpppp", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x1dd62155e737c166ull},
    {"fpppp-1000", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x2a344e65ce306e5aull},
    {"fpppp-1000", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xc93d65b41929cefdull},
    {"fpppp-1000", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x5e4b86bac5ed7852ull},
    {"fpppp-1000", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0xb76b8bf88aec720cull},
    {"fpppp-1000", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xc887575a1838b2b2ull},
    {"fpppp-1000", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0xa9d7d815f9dc53b9ull},
    {"fpppp-1000", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x3aa54078ac0014e6ull},
    {"fpppp-1000", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x7f69f230e8048dfcull},
    {"fpppp-1000", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x590a726c34a3ce35ull},
    {"fpppp-1000", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x3192c9fa02c05db3ull},
    {"fpppp-1000", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0xa9dd5b7beeb64dddull},
    {"fpppp-1000", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x7078c88b0a60e7aaull},
    {"fpppp-1000", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x351ec103de11a4a8ull},
    {"fpppp-1000", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xaa8a9018c9d3f449ull},
    {"fpppp-1000", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x39536c4053d003fcull},
    {"fpppp-1000", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x7e090b4ad399e623ull},
    {"fpppp-1000", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x5cda93ec575b4fa8ull},
    {"fpppp-1000", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0xebda771b7bcf2b05ull},
    {"fpppp-1000", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0xaeae4fc64e3b1a1full},
    {"fpppp-1000", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x61adf062fc065fbbull},
    {"fpppp-2000", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x8f774a82df7862acull},
    {"fpppp-2000", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x5e22a881209095e9ull},
    {"fpppp-2000", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x6f79b4f412e62b48ull},
    {"fpppp-2000", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0xa1dcd2ada9a21b8bull},
    {"fpppp-2000", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xd9c38f05521d5428ull},
    {"fpppp-2000", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x0108390d4b081d4dull},
    {"fpppp-2000", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x06d448dd6f9ac424ull},
    {"fpppp-2000", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x03051087eb55f5b7ull},
    {"fpppp-2000", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x57f71c8a86509c96ull},
    {"fpppp-2000", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0xa07f4b0fb9449105ull},
    {"fpppp-2000", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x801134910d3b17b9ull},
    {"fpppp-2000", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0xc99ee47b94c7d50full},
    {"fpppp-2000", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x35e03d8f92406504ull},
    {"fpppp-2000", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xa6817f3ce79a7336ull},
    {"fpppp-2000", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x83b12b51bf081f6dull},
    {"fpppp-2000", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0xd62cea2533c80d36ull},
    {"fpppp-2000", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x2a34baf8c5260c90ull},
    {"fpppp-2000", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x365f5fb3aa04fab5ull},
    {"fpppp-2000", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x32d9f1cc3b9f768dull},
    {"fpppp-2000", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x04c1a1af4a30792eull},
    {"fpppp-4000", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xd5a15f556983a339ull},
    {"fpppp-4000", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xbec5d65b40091722ull},
    {"fpppp-4000", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x8c31a4ab1ea5fae4ull},
    {"fpppp-4000", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0xfce449bd1bb029c4ull},
    {"fpppp-4000", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x2f031b40650a09f9ull},
    {"fpppp-4000", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x2ddcc843f290d582ull},
    {"fpppp-4000", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x7f7f04763cbcee64ull},
    {"fpppp-4000", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xfa8ee849d92fa7c4ull},
    {"fpppp-4000", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x0039bdac7869a529ull},
    {"fpppp-4000", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0xb8aa79a2d5032475ull},
    {"fpppp-4000", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x180a19db6ec29d2eull},
    {"fpppp-4000", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0xd9798daebbc76001ull},
    {"fpppp-4000", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x3443290303919142ull},
    {"fpppp-4000", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xece80b647ca037e6ull},
    {"fpppp-4000", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x58afffa3e178d1adull},
    {"fpppp-4000", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x05f65d55d2e75ea7ull},
    {"fpppp-4000", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x8c7c1577d268b61aull},
    {"fpppp-4000", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0xfb1a96ff03cb89d9ull},
    {"fpppp-4000", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0xa5ff80af5434547full},
    {"fpppp-4000", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x35b1cfa075daf2efull},
    {"sweep", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xa8c4b31aeba7c5d2ull},
    {"sweep", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x05acd0eb4b12397full},
    {"sweep", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x05acd0eb4b12397full},
    {"sweep", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0xe3d8f0c9586fcd53ull},
    {"sweep", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x1210a04e3ad3a792ull},
    {"sweep", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x43819461a02215dfull},
    {"sweep", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x43819461a02215dfull},
    {"sweep", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xbbaa4943bb092ef3ull},
    {"sweep", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0xdb1b67d1ac5d3803ull},
    {"sweep", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0xe74fa82c78c3ef03ull},
    {"sweep", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0xe74fa82c78c3ef03ull},
    {"sweep", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x2325e7da3f5f1da7ull},
    {"sweep", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0xe285f024194689ceull},
    {"sweep", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xf3244b395c733958ull},
    {"sweep", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xf3244b395c733958ull},
    {"sweep", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x839222a6fb81569cull},
    {"sweep", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x192ec20b3a3fc589ull},
    {"sweep", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x561994f295b9044cull},
    {"sweep", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x561994f295b9044cull},
    {"sweep", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0xc35dfd41034bdcfaull},
    {"indexed", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x1a3150275524bfb3ull},
    {"indexed", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xa8752a49f500c3a9ull},
    {"indexed", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0xa8752a49f500c3a9ull},
    {"indexed", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0xa8752a49f500c3a9ull},
    {"indexed", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x4032a2334e6f43f3ull},
    {"indexed", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0xd5879e3a2367ece9ull},
    {"indexed", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0xd5879e3a2367ece9ull},
    {"indexed", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xd5879e3a2367ece9ull},
    {"indexed", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x2f858f541ed215a6ull},
    {"indexed", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0xed6133c0414d6a44ull},
    {"indexed", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0xed6133c0414d6a44ull},
    {"indexed", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0xed6133c0414d6a44ull},
    {"indexed", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x3f7925a668c16b46ull},
    {"indexed", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xa92c42ad451efd8aull},
    {"indexed", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xa92c42ad451efd8aull},
    {"indexed", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0xa92c42ad451efd8aull},
    {"indexed", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x2b621d2ae5718b06ull},
    {"indexed", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x6ca27d6d7fb8b9abull},
    {"indexed", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x6ca27d6d7fb8b9abull},
    {"indexed", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x6ca27d6d7fb8b9abull},
    {"generations", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xf2b2e59ba3b0b913ull},
    {"generations", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x977f333c655a9b58ull},
    {"generations", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x977f333c655a9b58ull},
    {"generations", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x977f333c655a9b58ull},
    {"generations", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xfd4218b093290133ull},
    {"generations", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x2f4589ccc839c278ull},
    {"generations", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x2f4589ccc839c278ull},
    {"generations", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x2f4589ccc839c278ull},
    {"generations", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0xd4b7d50fc928da02ull},
    {"generations", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x78aa6634bdeecbe2ull},
    {"generations", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x78aa6634bdeecbe2ull},
    {"generations", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x78aa6634bdeecbe2ull},
    {"generations", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0xc1d429e0e91727e1ull},
    {"generations", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xb8e4a5c19bff557cull},
    {"generations", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xb8e4a5c19bff557cull},
    {"generations", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0xb8e4a5c19bff557cull},
    {"generations", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0xb345696fd34471c1ull},
    {"generations", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x7ddc28bcf95dad7cull},
    {"generations", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x7ddc28bcf95dad7cull},
    {"generations", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x7ddc28bcf95dad7cull},
    {"widths", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xb095314e0433fcfdull},
    {"widths", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x086e162b7951ac3dull},
    {"widths", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x086e162b7951ac3dull},
    {"widths", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x086e162b7951ac3dull},
    {"widths", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0x89272aac17e8489dull},
    {"widths", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0xcfdc53f31d332efdull},
    {"widths", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0xcfdc53f31d332efdull},
    {"widths", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xcfdc53f31d332efdull},
    {"widths", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x177e4156c01b2da0ull},
    {"widths", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x32deeed46a240c06ull},
    {"widths", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x32deeed46a240c06ull},
    {"widths", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x32deeed46a240c06ull},
    {"widths", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0x7a564a59fc81a5a0ull},
    {"widths", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0xf0ec2990e2862b87ull},
    {"widths", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0xf0ec2990e2862b87ull},
    {"widths", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0xf0ec2990e2862b87ull},
    {"widths", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x8a9d7bdeaf27b2a0ull},
    {"widths", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x31b566e7c618ae9dull},
    {"widths", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x31b566e7c618ae9dull},
    {"widths", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x31b566e7c618ae9dull},
    {"symbols", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0x52d8f6cd0cf39edbull},
    {"symbols", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0x6c339445c363220full},
    {"symbols", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0x6c339445c363220full},
    {"symbols", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0x0d2999d4c34da1ebull},
    {"symbols", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xf3834bf639f4fa5bull},
    {"symbols", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0xf2c7dbdd5d35c04full},
    {"symbols", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0xf2c7dbdd5d35c04full},
    {"symbols", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0x9e3e29b31b45af2bull},
    {"symbols", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0x978326dfe3af0fc4ull},
    {"symbols", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x27d49a6bb3ea320full},
    {"symbols", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x27d49a6bb3ea320full},
    {"symbols", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0x0d2999d4c34da1ebull},
    {"symbols", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0xdb95fbcfd9f62964ull},
    {"symbols", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0x6c339445c363220full},
    {"symbols", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x6c339445c363220full},
    {"symbols", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0x0d2999d4c34da1ebull},
    {"symbols", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x8a55be5b2fb536c4ull},
    {"symbols", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x8531a84d2d27992full},
    {"symbols", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x8531a84d2d27992full},
    {"symbols", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0x9e3e29b31b45af2bull},
    {"bucket", BuilderKind::N2Forward, AliasPolicy::SerializeAll,
     0xe76fecf1bbbdeb5bull},
    {"bucket", BuilderKind::N2Forward, AliasPolicy::BaseOffset,
     0xd71bf036ad85fd43ull},
    {"bucket", BuilderKind::N2Forward, AliasPolicy::StorageClassed,
     0xd71bf036ad85fd43ull},
    {"bucket", BuilderKind::N2Forward, AliasPolicy::SymbolicExpr,
     0xbad264bea100b229ull},
    {"bucket", BuilderKind::N2Backward, AliasPolicy::SerializeAll,
     0xda03f67238ff519bull},
    {"bucket", BuilderKind::N2Backward, AliasPolicy::BaseOffset,
     0x8282af28527edf63ull},
    {"bucket", BuilderKind::N2Backward, AliasPolicy::StorageClassed,
     0x8282af28527edf63ull},
    {"bucket", BuilderKind::N2Backward, AliasPolicy::SymbolicExpr,
     0xe476c1c00f81f229ull},
    {"bucket", BuilderKind::N2Landskov, AliasPolicy::SerializeAll,
     0xa7e0b9272fb7f524ull},
    {"bucket", BuilderKind::N2Landskov, AliasPolicy::BaseOffset,
     0x5a66fb8355119dc8ull},
    {"bucket", BuilderKind::N2Landskov, AliasPolicy::StorageClassed,
     0x5a66fb8355119dc8ull},
    {"bucket", BuilderKind::N2Landskov, AliasPolicy::SymbolicExpr,
     0xbad264bea100b229ull},
    {"bucket", BuilderKind::TableForward, AliasPolicy::SerializeAll,
     0xebf38e1725ff0ec4ull},
    {"bucket", BuilderKind::TableForward, AliasPolicy::BaseOffset,
     0x3a0ec33d9cac7dc4ull},
    {"bucket", BuilderKind::TableForward, AliasPolicy::StorageClassed,
     0x3a0ec33d9cac7dc4ull},
    {"bucket", BuilderKind::TableForward, AliasPolicy::SymbolicExpr,
     0xbad264bea100b229ull},
    {"bucket", BuilderKind::TableBackward, AliasPolicy::SerializeAll,
     0x77888f4eb3be4d24ull},
    {"bucket", BuilderKind::TableBackward, AliasPolicy::BaseOffset,
     0x066736639ac582e4ull},
    {"bucket", BuilderKind::TableBackward, AliasPolicy::StorageClassed,
     0x066736639ac582e4ull},
    {"bucket", BuilderKind::TableBackward, AliasPolicy::SymbolicExpr,
     0xe476c1c00f81f229ull},
};
// clang-format on

const char *
builderEnumName(BuilderKind kind)
{
    switch (kind) {
      case BuilderKind::N2Forward: return "N2Forward";
      case BuilderKind::N2Backward: return "N2Backward";
      case BuilderKind::N2Landskov: return "N2Landskov";
      case BuilderKind::TableForward: return "TableForward";
      case BuilderKind::TableBackward: return "TableBackward";
    }
    return "?";
}

const char *
policyEnumName(AliasPolicy policy)
{
    switch (policy) {
      case AliasPolicy::SerializeAll: return "SerializeAll";
      case AliasPolicy::BaseOffset: return "BaseOffset";
      case AliasPolicy::StorageClassed: return "StorageClassed";
      case AliasPolicy::SymbolicExpr: return "SymbolicExpr";
    }
    return "?";
}

/**
 * Compare every (builder, policy) hash of @p inputs with kExpected,
 * printing each row that is missing or differs as it should read.
 */
void
expectPinned(const std::vector<Input> &inputs)
{
    for (const Input &input : inputs) {
        for (BuilderKind builder : allBuilderKinds()) {
            for (AliasPolicy policy : kPolicies) {
                const std::uint64_t got = input.hash(builder, policy);
                const Expected *want = nullptr;
                for (const Expected &e : kExpected)
                    if (input.name == e.input && e.builder == builder &&
                        e.policy == policy)
                        want = &e;
                if (want != nullptr && want->hash == got)
                    continue;
                std::printf("    {\"%s\", BuilderKind::%s, "
                            "AliasPolicy::%s,\n     0x%016llxull},\n",
                            input.name.c_str(), builderEnumName(builder),
                            policyEnumName(policy),
                            static_cast<unsigned long long>(got));
                ADD_FAILURE() << input.name << ", "
                              << builderKindName(builder) << ", "
                              << aliasPolicyName(policy)
                              << (want ? ": arcs differ from the pinned"
                                       : ": no pinned hash");
            }
        }
    }
}

TEST(ArcOracle, Table3ProfilesKeepTheirArcs)
{
    expectPinned(table3Inputs());
}

TEST(ArcOracle, FppppWindow1000KeepsItsArcs)
{
    expectPinned(windowInputs(1000));
}

TEST(ArcOracle, FppppWindow2000KeepsItsArcs)
{
    expectPinned(windowInputs(2000));
}

TEST(ArcOracle, FppppWindow4000KeepsItsArcs)
{
    expectPinned(windowInputs(4000));
}

TEST(ArcOracle, DifferentialSweepKeepsItsArcs)
{
    expectPinned(sweepInputs());
}

TEST(ArcOracle, HandMadeBlocksKeepTheirArcs)
{
    expectPinned(handInputs());
}

} // namespace
} // namespace sched91
