/**
 * @file
 * Opcode and instruction-class definitions for the SPARC-like dialect.
 *
 * Instruction classes drive latency lookup (machine/machine_model.hh),
 * function-unit assignment, and the "alternate type" superscalar
 * heuristic of Table 1.
 */

#ifndef SCHED91_IR_OPCODE_HH
#define SCHED91_IR_OPCODE_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace sched91
{

/** Concrete SPARC-like opcodes understood by the parser and executor. */
enum class Opcode : std::uint8_t {
    Invalid,
    // integer ALU
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Addcc, Subcc, Cmp,
    Mov, Sethi, Smul, Sdiv,
    // memory
    Ld, Ldd, Ldub, Lduh, Ldsb, Ldsh, St, Std, Stb, Sth,
    Ldx, Stx,  ///< 64-bit single-register forms (SPARC v9 style)
    Ldf, Lddf, Stf, Stdf,
    // floating point
    Fadds, Faddd, Fsubs, Fsubd, Fmuls, Fmuld, Fdivs, Fdivd,
    Fsqrts, Fsqrtd, Fmovs, Fnegs, Fabss, Fcmps, Fcmpd,
    Fitos, Fitod, Fstoi, Fdtoi, Fstod, Fdtos,
    // control transfer
    Ba, Bn, Be, Bne, Bg, Ble, Bge, Bl, Bgu, Bleu, Bcc, Bcs,
    Fba, Fbe, Fbne, Fbg, Fbl, Fbge, Fble,
    Call, Jmpl, Ret, Retl,
    // register window
    Save, Restore,
    Nop,
    kNumOpcodes,
};

/** Broad instruction classes; one latency / function unit per class. */
enum class InstClass : std::uint8_t {
    IntAlu,    ///< add/sub/logic/shift/sethi/mov
    IntMul,
    IntDiv,
    Load,      ///< integer and FP loads (single word)
    LoadDouble,///< double-word loads (register pairs)
    Store,
    StoreDouble,
    Branch,
    Call,
    WindowOp,  ///< save / restore
    FpAdd,     ///< FP add/sub/convert/compare-free arithmetic
    FpMul,
    FpDiv,
    FpSqrt,
    FpCmp,
    FpMove,
    Nop,
    kNumClasses,
};

/**
 * Issue groups used for the "alternate type" heuristic and the 2-issue
 * superscalar model: a 2-way machine can pair one Int/Control-group
 * instruction with one Memory/FP-group instruction per cycle.
 */
enum class IssueGroup : std::uint8_t {
    Integer,
    Memory,
    FloatingPoint,
    Control,
};

/** Operand-list shapes recognized by the parser. */
enum class OperandSig : std::uint8_t {
    None,       ///< nop, ret, retl
    Alu3,       ///< op rs1, rs2_or_imm, rd
    Cmp2,       ///< cmp rs1, rs2_or_imm
    Mov2,       ///< mov rs_or_imm, rd
    Sethi2,     ///< sethi imm, rd
    LoadOp,     ///< ld [addr], rd
    StoreOp,    ///< st rs, [addr]
    Fp3,        ///< fop rs1, rs2, rd
    Fp2,        ///< fop rs, rd
    Fcmp2,      ///< fcmp rs1, rs2
    BranchOp,   ///< b<cc> label
    CallOp,     ///< call label
    JmplOp,     ///< jmpl addr, rd
};

/** Static per-opcode properties. */
struct OpcodeInfo
{
    Opcode op = Opcode::Invalid;
    const char *mnemonic = "";
    InstClass cls = InstClass::Nop;
    OperandSig sig = OperandSig::None;
    bool isDouble = false;  ///< operates on even/odd register pairs
    bool isFloat = false;   ///< register operands are FP registers
};

/** Lookup static info for an opcode. */
const OpcodeInfo &opcodeInfo(Opcode op);

/** Lookup an opcode by mnemonic (",a" annul suffixes stripped first). */
Opcode opcodeFromMnemonic(std::string_view mnemonic);

/** Mnemonic for an opcode. */
std::string_view opcodeName(Opcode op);

/** Access width in bytes of a memory opcode (4 for any other). */
std::uint8_t memAccessWidth(Opcode op);

/** The FP form of an int-form memory opcode (ld -> ldf, ldd -> lddf,
 * st -> stf, std -> stdf), for an FP register operand; any other
 * opcode unchanged. */
Opcode fpMemoryForm(Opcode op);

/** Instruction class of an opcode. */
InstClass instClass(Opcode op);

/** Issue group of an instruction class. */
IssueGroup issueGroup(InstClass cls);

/** True for control-transfer classes (Branch, Call). */
bool isControlTransfer(InstClass cls);

/** True when the class is a load. */
bool isLoadClass(InstClass cls);

/** True when the class is a store. */
bool isStoreClass(InstClass cls);

/** True for the floating-point arithmetic classes. */
bool isFpClass(InstClass cls);

} // namespace sched91

#endif // SCHED91_IR_OPCODE_HH
