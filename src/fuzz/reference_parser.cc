#include "fuzz/reference_parser.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/string_util.hh"

namespace sched91::fuzz
{

namespace
{

/** Integer literal as strtoll(base 0) reads the whole token. */
ImmStatus
parsePlainInt(std::string_view t, std::int64_t &value)
{
    if (t.empty())
        return ImmStatus::NotImm;
    std::string s(t);
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size())
        return ImmStatus::NotImm;
    if (errno == ERANGE)
        return ImmStatus::OutOfRange;
    value = v;
    return ImmStatus::Ok;
}

/** Immediate operand: integer literal, %hi(sym) or %lo(sym). */
ImmStatus
parseImmediate(std::string_view text, std::int64_t &value)
{
    std::string_view t = trim(text);
    if (t.empty() || t[0] == '%') {
        if (startsWith(t, "%hi(") && t.back() == ')') {
            value = static_cast<std::int64_t>(
                symbolHash(t.substr(4, t.size() - 5)) >> 10 << 10);
            return ImmStatus::Ok;
        }
        if (startsWith(t, "%lo(") && t.back() == ')') {
            value = static_cast<std::int64_t>(
                symbolHash(t.substr(4, t.size() - 5)) & 0x3ff);
            return ImmStatus::Ok;
        }
        return ImmStatus::NotImm;
    }
    return parsePlainInt(t, value);
}

/**
 * "[...]" address: split on top-level + and - first (the sign stays
 * with its piece), then read the pieces in order.  std::nullopt on
 * malformed input; a literal offset beyond 64 bits, alone or summed,
 * also sets @p overflowAt to its offset within @p text.
 */
std::optional<MemOperand>
parseAddress(std::string_view text, std::uint8_t width,
             std::size_t &overflowAt)
{
    std::string_view t = trim(text);
    if (t.size() < 3 || t.front() != '[' || t.back() != ']')
        return std::nullopt;
    t = trim(t.substr(1, t.size() - 2));
    if (t.empty())
        return std::nullopt;

    MemOperand out;
    out.width = width;

    std::vector<std::string_view> pieces;
    std::size_t start = 0;
    for (std::size_t i = 1; i <= t.size(); ++i) {
        if (i == t.size() || ((t[i] == '+' || t[i] == '-') &&
                              t[i - 1] != '(')) {
            pieces.emplace_back(trim(t.substr(start, i - start)));
            if (i < t.size() && t[i] == '-')
                start = i; // keep the minus sign
            else
                start = i + 1;
        }
    }

    for (std::string_view piece : pieces) {
        if (piece.empty())
            return std::nullopt; // dangling operator: "[%g1 +]"
        if (piece[0] == '-' && piece.size() > 1 &&
            !std::isdigit(static_cast<unsigned char>(piece[1]))) {
            return std::nullopt; // -%reg makes no sense
        }
        if (startsWith(piece, "%lo(") && piece.back() == ')') {
            out.symbol = std::string(piece.substr(4, piece.size() - 5));
            continue;
        }
        if (piece[0] == '%') {
            Resource r = parseRegister(piece);
            if (r.kind() != Resource::Kind::IntReg)
                return std::nullopt; // not a register, or not an int one
            if (out.base < 0)
                out.base = r.index();
            else if (out.index < 0)
                out.index = r.index();
            else
                return std::nullopt;
            continue;
        }
        std::int64_t v = 0;
        ImmStatus lit = parsePlainInt(piece, v);
        if (lit == ImmStatus::OutOfRange ||
            (lit == ImmStatus::Ok &&
             __builtin_add_overflow(out.offset, v, &out.offset))) {
            overflowAt = static_cast<std::size_t>(piece.data() -
                                                  text.data());
            return std::nullopt;
        }
        if (lit == ImmStatus::Ok)
            continue;
        if (!out.symbol.empty())
            return std::nullopt;
        out.symbol = std::string(piece);
    }

    if (out.base < 0 && out.symbol.empty())
        return std::nullopt;
    return out;
}

/** Remap int-form memory mnemonics to the FP form for %f operands. */
Opcode
remapFpMemory(Opcode op, Resource reg)
{
    return reg.kind() == Resource::Kind::FpReg ? fpMemoryForm(op) : op;
}

/** Strip trailing comment introduced by '!' or '#'. */
std::string_view
stripComment(std::string_view line)
{
    std::size_t pos = line.find_first_of("!#");
    return pos == std::string_view::npos ? line : line.substr(0, pos);
}

/**
 * Per-line parse failure, caught by the line loop and converted into
 * one Diag.  Never escapes referenceParseAssembly.
 */
struct LineError
{
    int col = 0; ///< 1-based column; 0 = whole line
    std::string message;
};

template <typename... Args>
[[noreturn]] void
lineError(int col, const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    throw LineError{col, os.str()};
}

/**
 * 1-based column of @p tok, a view into the raw source line @p raw
 * (0 = unknown).  Taken from the view's position, not by searching
 * for its text, which may occur earlier in the line.
 */
int
columnOf(std::string_view raw, std::string_view tok)
{
    return tok.empty() ? 0 : static_cast<int>(tok.data() - raw.data()) + 1;
}

Resource
requireReg(std::string_view tok, std::string_view raw)
{
    Resource r = parseRegister(tok);
    if (!r.valid() && tok != "%g0")
        lineError(columnOf(raw, tok), "expected register, got '", tok,
                  "'");
    return r;
}

/**
 * @p tok as an immediate, or std::nullopt when it is not one.  An
 * integer literal that does not fit in 64 bits is a line error.
 */
std::optional<std::int64_t>
immediate(std::string_view tok, std::string_view raw)
{
    std::int64_t v = 0;
    switch (parseImmediate(tok, v)) {
      case ImmStatus::Ok:
        return v;
      case ImmStatus::OutOfRange:
        lineError(columnOf(raw, tok), "integer literal '", tok,
                  "' does not fit in 64 bits");
      default:
        return std::nullopt;
    }
}

/** @p tok as an address; a malformed one is a line error. */
MemOperand
address(std::string_view tok, std::uint8_t width, std::string_view raw)
{
    std::size_t overflow_at = std::string_view::npos;
    auto mem = parseAddress(tok, width, overflow_at);
    if (mem)
        return *std::move(mem);
    if (overflow_at != std::string_view::npos)
        lineError(columnOf(raw, tok) + static_cast<int>(overflow_at),
                  "memory offset does not fit in 64 bits");
    lineError(columnOf(raw, tok), "bad address '", tok, "'");
}

/** SPARC simm13: the signed 13-bit immediate field of ALU-style ops. */
constexpr std::int64_t kSimm13Min = -4096;
constexpr std::int64_t kSimm13Max = 4095;

/**
 * Parseable-but-suspicious findings on one line, handed back to the
 * caller as Severity::Warning diagnostics.  Same shape as LineError
 * but collected, not thrown.
 */
using LineWarnings = std::vector<LineError>;

/**
 * Warn when a *literal* immediate token exceeds the 13-bit signed
 * field.  %hi()/%lo() relocations synthesize values by design and
 * sethi's field is 22 bits wide, so only plain numeric tokens in
 * simm13 positions qualify.
 */
void
warnSimm13(LineWarnings *warnings, std::string_view tok,
           std::string_view raw, std::int64_t value)
{
    if (!warnings || tok.empty() || tok[0] == '%')
        return;
    if (value < kSimm13Min || value > kSimm13Max) {
        std::ostringstream os;
        os << "immediate " << value
           << " outside the signed 13-bit range [-4096, 4095]";
        warnings->push_back(LineError{columnOf(raw, tok), os.str()});
    }
}

/** Same check for the accumulated literal offset of a memory operand. */
void
warnMemOffset(LineWarnings *warnings, std::string_view tok,
              std::string_view raw, const MemOperand &mem)
{
    if (!warnings)
        return;
    if (mem.offset < kSimm13Min || mem.offset > kSimm13Max) {
        std::ostringstream os;
        os << "memory offset " << mem.offset
           << " outside the signed 13-bit range [-4096, 4095]";
        warnings->push_back(LineError{columnOf(raw, tok), os.str()});
    }
}

/**
 * Parse one non-empty, non-label, non-directive source line into an
 * Instruction.  Throws LineError on any malformed piece; the caller
 * owns recovery policy.  Suspicious-but-parseable findings are
 * appended to @p warnings (when non-null) instead of thrown.
 */
Instruction
parseInstructionLine(std::string_view line, std::string_view raw,
                     LineWarnings *warnings = nullptr)
{
    // Split mnemonic from operand list.
    std::size_t sp = line.find_first_of(" \t");
    std::string mnemonic =
        toLower(sp == std::string_view::npos ? line : line.substr(0, sp));
    std::string_view rest =
        sp == std::string_view::npos ? "" : trim(line.substr(sp));

    bool annul = false;
    if (mnemonic.size() > 2 &&
        mnemonic.substr(mnemonic.size() - 2) == ",a") {
        annul = true;
        mnemonic.resize(mnemonic.size() - 2);
    }

    Opcode op = opcodeFromMnemonic(mnemonic);
    if (op == Opcode::Invalid)
        lineError(columnOf(raw, line.substr(0, mnemonic.size())),
                  "unknown mnemonic '", mnemonic, "'");

    const OpcodeInfo &info = opcodeInfo(op);
    std::vector<std::string_view> ops = splitOperands(rest);

    auto need = [&](std::size_t n) {
        if (ops.size() != n)
            lineError(columnOf(raw, rest), "'", mnemonic, "' expects ",
                      n, " operands, got ", ops.size());
    };

    Instruction inst;
    switch (info.sig) {
      case OperandSig::Alu3: {
        need(3);
        Resource rs1 = requireReg(ops[0], raw);
        Resource rs2;
        std::int64_t imm = 0;
        if (auto v = immediate(ops[1], raw)) {
            imm = *v;
            warnSimm13(warnings, ops[1], raw, imm);
        } else {
            rs2 = requireReg(ops[1], raw);
        }
        Resource rd = requireReg(ops[2], raw);
        inst = makeInstruction(op, rs1, rs2, rd, std::nullopt, imm);
        break;
      }
      case OperandSig::Cmp2: {
        need(2);
        Resource rs1 = requireReg(ops[0], raw);
        Resource rs2;
        std::int64_t imm = 0;
        if (auto v = immediate(ops[1], raw)) {
            imm = *v;
            warnSimm13(warnings, ops[1], raw, imm);
        } else {
            rs2 = requireReg(ops[1], raw);
        }
        inst = makeInstruction(op, rs1, rs2, Resource(), std::nullopt,
                               imm);
        break;
      }
      case OperandSig::Mov2: {
        need(2);
        Resource rs1;
        std::int64_t imm = 0;
        if (auto v = immediate(ops[0], raw)) {
            imm = *v;
            warnSimm13(warnings, ops[0], raw, imm);
        } else {
            rs1 = requireReg(ops[0], raw);
        }
        Resource rd = requireReg(ops[1], raw);
        inst = makeInstruction(op, rs1, Resource(), rd, std::nullopt,
                               imm);
        break;
      }
      case OperandSig::Sethi2: {
        need(2);
        auto v = immediate(ops[0], raw);
        if (!v)
            lineError(columnOf(raw, ops[0]), "bad sethi immediate '",
                      ops[0], "'");
        Resource rd = requireReg(ops[1], raw);
        inst = makeInstruction(op, Resource(), Resource(), rd,
                               std::nullopt, *v);
        break;
      }
      case OperandSig::LoadOp: {
        need(2);
        Resource rd = requireReg(ops[1], raw);
        Opcode real_op = remapFpMemory(op, rd);
        MemOperand mem = address(ops[0], memAccessWidth(real_op), raw);
        warnMemOffset(warnings, ops[0], raw, mem);
        inst = makeInstruction(real_op, Resource(), Resource(), rd,
                               std::move(mem));
        break;
      }
      case OperandSig::StoreOp: {
        need(2);
        Resource rs = requireReg(ops[0], raw);
        Opcode real_op = remapFpMemory(op, rs);
        MemOperand mem = address(ops[1], memAccessWidth(real_op), raw);
        warnMemOffset(warnings, ops[1], raw, mem);
        inst = makeInstruction(real_op, rs, Resource(), Resource(),
                               std::move(mem));
        break;
      }
      // The FP forms check their operands last to first, so a line
      // with several bad registers reports the rightmost.
      case OperandSig::Fp3: {
        need(3);
        Resource rd = requireReg(ops[2], raw);
        Resource rs2 = requireReg(ops[1], raw);
        Resource rs1 = requireReg(ops[0], raw);
        inst = makeInstruction(op, rs1, rs2, rd);
        break;
      }
      case OperandSig::Fp2: {
        need(2);
        Resource rd = requireReg(ops[1], raw);
        Resource rs1 = requireReg(ops[0], raw);
        inst = makeInstruction(op, rs1, Resource(), rd);
        break;
      }
      case OperandSig::Fcmp2: {
        need(2);
        Resource rs2 = requireReg(ops[1], raw);
        Resource rs1 = requireReg(ops[0], raw);
        inst = makeInstruction(op, rs1, rs2, Resource());
        break;
      }
      case OperandSig::BranchOp: {
        need(1);
        inst = makeInstruction(op, Resource(), Resource(), Resource());
        inst.setTarget(ops[0]);
        inst.setAnnul(annul);
        break;
      }
      case OperandSig::CallOp: {
        need(1);
        inst = makeInstruction(op, Resource(), Resource(), Resource());
        inst.setTarget(ops[0]);
        break;
      }
      case OperandSig::JmplOp: {
        need(2);
        Resource rs1 = requireReg(ops[0], raw);
        Resource rd = requireReg(ops[1], raw);
        inst = makeInstruction(op, rs1, Resource(), rd);
        break;
      }
      case OperandSig::None: {
        if (op == Opcode::Restore && ops.size() == 3) {
            // restore %rs1, %rs2_or_imm, %rd form
            Resource rs1 = requireReg(ops[0], raw);
            Resource rs2;
            std::int64_t imm = 0;
            if (auto v = immediate(ops[1], raw))
                imm = *v;
            else
                rs2 = requireReg(ops[1], raw);
            Resource rd = requireReg(ops[2], raw);
            inst = Instruction(Opcode::Restore);
            inst.addUse(rs1, 0);
            if (rs2.valid())
                inst.addUse(rs2, 1);
            else
                inst.setUsesImm(true);
            inst.setImm(imm);
            inst.addDef(rd);
            inst.addUse(Resource::callState(), 2);
            inst.addDef(Resource::callState());
        } else {
            need(0);
            inst = makeInstruction(op, Resource(), Resource(),
                                   Resource());
        }
        break;
      }
      default:
        lineError(0, "unhandled signature for '", mnemonic, "'");
    }

    inst.setText(line);
    return inst;
}

} // namespace

Program
referenceParseAssembly(std::string_view text, DiagnosticEngine &diags,
                       std::string_view filename)
{
    Program prog;

    std::size_t pos = 0;
    int lineno = 0;
    std::set<std::string, std::less<>> seen_labels;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            nl = text.size();
        std::string_view raw = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lineno;

        std::string_view line = trim(stripComment(raw));
        if (line.empty())
            continue;

        // Labels (possibly several on one conceptual position).
        if (line.back() == ':') {
            std::string label(line.substr(0, line.size() - 1));
            if (!seen_labels.insert(label).second) {
                diags.warning(filename, lineno, 1,
                              "label '" + label +
                                  "' defined more than once");
            }
            prog.addLabel(label);
            continue;
        }

        // Ignore non-label assembler directives.
        if (line[0] == '.' && line.find(':') == std::string_view::npos)
            continue;

        try {
            LineWarnings warnings;
            prog.append(parseInstructionLine(line, raw, &warnings));
            for (const LineError &w : warnings)
                diags.warning(filename, lineno, w.col, w.message);
        } catch (const LineError &e) {
            diags.error(filename, lineno, e.col, e.message);
        }
    }

    return prog;
}

} // namespace sched91::fuzz
