/**
 * @file
 * Seeded random SPARC program generator for the adversarial
 * correctness harness (docs/FUZZING.md).
 *
 * generateSource() emits assembly *text*, not a Program: the point is
 * to exercise the whole front half of the pipeline — lexing, operand
 * parsing, diagnostics — exactly as a user input would, and to allow
 * controlled syntax corruption that a pre-built IR could not express.
 * Every knob is clamped by sanitizeParams(), so any byte soup mapped
 * through paramsFromBytes() yields a well-defined (and deterministic)
 * program: same params -> byte-identical source on every platform.
 */

#ifndef SCHED91_FUZZ_PROGRAM_GEN_HH
#define SCHED91_FUZZ_PROGRAM_GEN_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace sched91::fuzz
{

/** Tunable shape of a generated program.  All fields are clamped by
 * sanitizeParams(); the comments give the accepted range. */
struct GenParams
{
    /** PRNG seed; the sole source of randomness. */
    std::uint64_t seed = 1;

    /** Basic blocks to emit. [1, 16] */
    int numBlocks = 2;

    /** Upper bound on instructions per block (the actual size is
     * drawn per block in [1, maxBlockSize]). [1, 256] */
    int maxBlockSize = 24;

    /** Fraction of non-memory slots that are floating point. [0, 1] */
    double fpMix = 0.25;

    /** Fraction of slots that are loads/stores. [0, 0.9] */
    double memMix = 0.35;

    /** Of the memory slots, the fraction that are stores (stores are
     * what creates WAR/WAW memory arcs). [0, 1] */
    double storeBias = 0.4;

    /** Probability a block ends in cmp + conditional branch. [0, 1] */
    double branchProb = 0.6;

    /** Integer registers drawn from (smaller = more pressure and
     * denser register dependences). [1, 20] */
    int intRegPool = 8;

    /** FP registers drawn from. [1, 16] */
    int fpRegPool = 8;

    /** Distinct memory address expressions: a small pool forces
     * aliasing, a large one spreads references out. [1, 32] */
    int memExprPool = 4;

    /** Fraction of memory expressions that are symbol-based rather
     * than register-based. [0, 1] */
    double symbolMix = 0.25;

    /** Probability an immediate operand lands outside the signed
     * 13-bit range (exercises the parser warning channel). [0, 1] */
    double bigImmMix = 0.0;

    /** Per-line probability of a syntax-corruption mutation (char
     * deletion/duplication, bogus mnemonic, truncation, bracket
     * damage, invalid register, extra operand, garbage). [0, 1] */
    double corruption = 0.0;

    /** Allow call instructions in block tails. */
    bool allowCalls = true;
};

/** Clamp every field into its documented range. */
GenParams sanitizeParams(GenParams p);

/**
 * Derive (sanitized) parameters from a raw byte string — the
 * fuzz_pipeline entry point's mapping from fuzzer input to program
 * shape.  Missing bytes fall back to field defaults; the mapping is a
 * pure function of the bytes.
 */
GenParams paramsFromBytes(const std::uint8_t *data, std::size_t size);

/**
 * Program @p i of the pinned differential sweep: a deterministic
 * parameter schedule that covers the knob space, every fourth program
 * syntax-corrupted.  differential_test checks the first thousand.
 */
GenParams sweepParams(std::uint64_t i);

/**
 * Generate one program as assembly text.  Deterministic in @p params
 * (which is sanitized internally).  Counts
 * `fuzz.programs_generated` and `fuzz.corrupted_lines`.
 */
std::string generateSource(const GenParams &params);

} // namespace sched91::fuzz

#endif // SCHED91_FUZZ_PROGRAM_GEN_HH
