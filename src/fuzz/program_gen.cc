#include "fuzz/program_gen.hh"

#include <algorithm>
#include <array>
#include <string_view>
#include <vector>

#include "obs/events.hh"
#include "support/prng.hh"
#include "support/string_util.hh"

namespace sched91::fuzz
{

namespace
{

// Register name pools.  The integer pool deliberately avoids %sp/%fp
// (14/30) so generated code never looks like stack traffic unless a
// memory expression asks for it, and avoids %g0 as a destination.
constexpr std::array<std::string_view, 20> kIntRegs = {
    "%o0", "%o1", "%o2", "%o3", "%o4", "%o5", "%l0", "%l1", "%l2",
    "%l3", "%l4", "%l5", "%l6", "%l7", "%i0", "%i1", "%i2", "%i3",
    "%g1", "%g2",
};

constexpr std::array<std::string_view, 16> kFpRegs = {
    "%f0", "%f1", "%f2",  "%f3",  "%f4",  "%f5",  "%f6",  "%f7",
    "%f8", "%f9", "%f10", "%f11", "%f12", "%f13", "%f14", "%f15",
};

constexpr std::array<std::string_view, 8> kAlu3 = {
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra",
};

constexpr std::array<std::string_view, 6> kFp3 = {
    "fadds", "fsubs", "fmuls", "fadds", "fsubs", "fdivs",
};

constexpr std::array<std::string_view, 4> kFp2 = {
    "fmovs", "fnegs", "fabss", "fsqrts",
};

constexpr std::array<std::string_view, 4> kLoads = {"ld", "ld", "ldub",
                                                    "ldsh"};
constexpr std::array<std::string_view, 4> kStores = {"st", "st", "stb",
                                                     "sth"};

constexpr std::array<std::string_view, 8> kCondBranches = {
    "be", "bne", "bg", "ble", "bge", "bl", "bgu", "bcc",
};

double
clamp01(double v)
{
    return std::clamp(v, 0.0, 1.0);
}

int
clampInt(int v, int lo, int hi)
{
    return std::clamp(v, lo, hi);
}

/** A pre-drawn pool of memory address expressions (as operand text). */
std::vector<std::string>
drawMemPool(Prng &rng, const GenParams &p)
{
    std::vector<std::string> pool;
    pool.reserve(static_cast<std::size_t>(p.memExprPool));
    for (int i = 0; i < p.memExprPool; ++i) {
        if (rng.chance(p.symbolMix)) {
            pool.push_back("[var" + std::to_string(rng.below(8)) + "]");
            continue;
        }
        std::string base(
            kIntRegs[rng.below(std::min<std::uint64_t>(4, p.intRegPool))]);
        std::string expr = "[" + base;
        switch (rng.below(3)) {
        case 0: // register + offset
            expr += " + " + std::to_string(4 * rng.below(16));
            break;
        case 1: // register + register
            expr += " + " + std::string(kIntRegs[rng.below(p.intRegPool)]);
            break;
        default: // bare register
            break;
        }
        expr += "]";
        pool.push_back(std::move(expr));
    }
    return pool;
}

/** One immediate operand, occasionally out of simm13 range. */
std::string
drawImm(Prng &rng, const GenParams &p)
{
    if (rng.chance(p.bigImmMix))
        return std::to_string(rng.range(4096, 1 << 20) *
                              (rng.chance(0.5) ? 1 : -1));
    return std::to_string(rng.range(-64, 4095));
}

/** Corrupt @p line in place with one random syntax mutation. */
void
corruptLine(Prng &rng, std::string &line)
{
    obs::ev::fuzzCorruptedLines.inc();
    switch (rng.below(8)) {
    case 0: // delete a character
        if (!line.empty())
            line.erase(rng.below(line.size()), 1);
        break;
    case 1: // duplicate a character
        if (!line.empty()) {
            std::size_t i = rng.below(line.size());
            line.insert(i, 1, line[i]);
        }
        break;
    case 2: { // mangle the mnemonic
        std::size_t sp = line.find_first_of(" \t");
        line.insert(sp == std::string::npos ? line.size() : sp, 1, 'q');
        break;
    }
    case 3: // truncate
        if (!line.empty())
            line.resize(rng.below(line.size()));
        break;
    case 4: { // bracket/comma damage
        std::size_t i = line.find_first_of("],");
        if (i != std::string::npos)
            line.erase(i, 1);
        else if (!line.empty())
            line.erase(line.size() - 1, 1);
        break;
    }
    case 5: { // invalid register
        std::size_t i = line.find('%');
        if (i != std::string::npos && i + 2 < line.size()) {
            line[i + 1] = 'q';
            line[i + 2] = '7';
        }
        break;
    }
    case 6: // extra operand
        line += ", %o0";
        break;
    default: // replace with garbage
        line = "@#$ !! " + std::to_string(rng.below(1000));
        break;
    }
}

} // namespace

GenParams
sanitizeParams(GenParams p)
{
    p.numBlocks = clampInt(p.numBlocks, 1, 16);
    p.maxBlockSize = clampInt(p.maxBlockSize, 1, 256);
    p.fpMix = clamp01(p.fpMix);
    p.memMix = std::clamp(p.memMix, 0.0, 0.9);
    p.storeBias = clamp01(p.storeBias);
    p.branchProb = clamp01(p.branchProb);
    p.intRegPool =
        clampInt(p.intRegPool, 1, static_cast<int>(kIntRegs.size()));
    p.fpRegPool =
        clampInt(p.fpRegPool, 1, static_cast<int>(kFpRegs.size()));
    p.memExprPool = clampInt(p.memExprPool, 1, 32);
    p.symbolMix = clamp01(p.symbolMix);
    p.bigImmMix = clamp01(p.bigImmMix);
    p.corruption = clamp01(p.corruption);
    return p;
}

GenParams
paramsFromBytes(const std::uint8_t *data, std::size_t size)
{
    GenParams p;
    auto byte = [&](std::size_t i) -> std::uint8_t {
        return i < size ? data[i] : 0;
    };
    // Bytes 0..7: seed (little-endian, zero padded).
    std::uint64_t seed = 0;
    for (std::size_t i = 0; i < 8 && i < size; ++i)
        seed |= static_cast<std::uint64_t>(data[i]) << (8 * i);
    p.seed = seed ^ 0x5eed'5eed'5eed'5eedULL;
    if (size > 8)
        p.numBlocks = 1 + byte(8) % 4;
    if (size > 9)
        p.maxBlockSize = 1 + byte(9) % 48;
    if (size > 10)
        p.fpMix = (byte(10) % 101) / 100.0 * 0.6;
    if (size > 11)
        p.memMix = (byte(11) % 101) / 100.0 * 0.6;
    if (size > 12)
        p.branchProb = (byte(12) % 101) / 100.0;
    if (size > 13)
        p.intRegPool = 1 + byte(13) % 16;
    if (size > 14)
        p.fpRegPool = 1 + byte(14) % 12;
    if (size > 15)
        p.memExprPool = 1 + byte(15) % 12;
    if (size > 16)
        p.symbolMix = (byte(16) % 101) / 100.0 * 0.5;
    if (size > 17)
        p.storeBias = 0.2 + (byte(17) % 61) / 100.0;
    if (size > 18)
        p.corruption = (byte(18) % 101) / 100.0 * 0.3;
    if (size > 19)
        p.bigImmMix = (byte(19) % 101) / 100.0 * 0.2;
    if (size > 20)
        p.allowCalls = (byte(20) & 1) != 0;
    return sanitizeParams(p);
}

GenParams
sweepParams(std::uint64_t i)
{
    GenParams p;
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
    // Every fourth program is syntax-corrupted: the oracle then also
    // exercises lenient parsing and checks whatever survived.
    p.corruption = (i % 4 == 3) ? 0.15 : 0.0;
    return p;
}

std::string
generateSource(const GenParams &params)
{
    const GenParams p = sanitizeParams(params);
    Prng rng(p.seed);
    obs::ev::fuzzProgramsGenerated.inc();

    auto intReg = [&] { return kIntRegs[rng.below(p.intRegPool)]; };
    auto fpReg = [&] { return kFpRegs[rng.below(p.fpRegPool)]; };

    std::vector<std::string> mem_pool = drawMemPool(rng, p);
    std::vector<std::string> lines;

    for (int b = 0; b < p.numBlocks; ++b) {
        lines.push_back(numbered("L", static_cast<std::uint64_t>(b)) + ":");
        int n = static_cast<int>(rng.below(p.maxBlockSize)) + 1;
        for (int i = 0; i < n; ++i) {
            std::string line = "    ";
            double r = rng.uniform();
            if (r < p.memMix) {
                const std::string &addr =
                    mem_pool[rng.below(mem_pool.size())];
                if (rng.chance(p.storeBias)) {
                    line += std::string(kStores[rng.below(4)]) + " " +
                            std::string(intReg()) + ", " + addr;
                } else {
                    line += std::string(kLoads[rng.below(4)]) + " " +
                            addr + ", " + std::string(intReg());
                }
            } else if (r < p.memMix + (1.0 - p.memMix) * p.fpMix) {
                if (rng.chance(0.25)) {
                    line += std::string(kFp2[rng.below(4)]) + " " +
                            std::string(fpReg()) + ", " +
                            std::string(fpReg());
                } else {
                    line += std::string(kFp3[rng.below(6)]) + " " +
                            std::string(fpReg()) + ", " +
                            std::string(fpReg()) + ", " +
                            std::string(fpReg());
                }
            } else if (rng.chance(0.08)) {
                line += "sethi %hi(var" +
                        std::to_string(rng.below(8)) + "), " +
                        std::string(intReg());
            } else if (rng.chance(0.06)) {
                line += "mov " + drawImm(rng, p) + ", " +
                        std::string(intReg());
            } else {
                line += std::string(kAlu3[rng.below(8)]) + " " +
                        std::string(intReg()) + ", ";
                if (rng.chance(0.4))
                    line += drawImm(rng, p);
                else
                    line += std::string(intReg());
                line += ", " + std::string(intReg());
            }
            lines.push_back(std::move(line));
        }

        // Block tail: conditional branch, call, or fallthrough.
        if (rng.chance(p.branchProb)) {
            std::string cmp = "    cmp " + std::string(intReg()) + ", ";
            cmp += rng.chance(0.5) ? drawImm(rng, p)
                                   : std::string(intReg());
            lines.push_back(std::move(cmp));
            lines.push_back(
                "    " + std::string(kCondBranches[rng.below(8)]) + " L" +
                std::to_string(rng.below(p.numBlocks)));
        } else if (p.allowCalls && rng.chance(0.3)) {
            lines.push_back("    call fn" + std::to_string(rng.below(4)));
        }
    }

    // Corruption is a separate post-pass over the emitted lines so the
    // clean program for a given seed is a prefix-stable function of the
    // structural knobs alone.
    if (p.corruption > 0.0) {
        for (std::string &line : lines)
            if (rng.chance(p.corruption))
                corruptLine(rng, line);
    }

    std::string out;
    for (const std::string &line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace sched91::fuzz
