#include "ir/parser.hh"

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/events.hh"
#include "support/log.hh"
#include "support/logging.hh"
#include "support/string_util.hh"

namespace sched91
{

namespace
{

/** What the line cursor notices about a character. */
enum CharClass : std::uint8_t {
    kSpace = 1,   ///< the C locale's isspace(): what trimming skips
    kBlank = 2,   ///< ' ' or '\t': ends the mnemonic
    kComment = 4, ///< '!' or '#': starts a comment
    kColon = 8,
    kSplit = 16,  ///< '[', ']' or ',': what splits operands
};

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        t[c] |= kSpace;
    t[' '] |= kBlank;
    t['\t'] |= kBlank;
    t['!'] |= kComment;
    t['#'] |= kComment;
    t[':'] |= kColon;
    t['['] |= kSplit;
    t[']'] |= kSplit;
    t[','] |= kSplit;
    return t;
}();

constexpr std::uint8_t
charClass(char c)
{
    return kCharClass[static_cast<unsigned char>(c)];
}

/** The C locale's tolower(). */
constexpr char
toLowerAscii(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/**
 * Per-line parse failure, caught by the line loop and converted into
 * one Diag.  Never escapes parseAssembly.
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
 * Parseable-but-suspicious findings on one line, handed back to the
 * caller as Severity::Warning diagnostics.  Same shape as LineError
 * but collected, not thrown.
 */
using LineWarnings = std::vector<LineError>;

/** SPARC simm13: the signed 13-bit immediate field of ALU-style ops. */
constexpr std::int64_t kSimm13Min = -4096;
constexpr std::int64_t kSimm13Max = 4095;

/** Mnemonic buffer size.  A longer word is no mnemonic: the longest
 * one, ",a" included, has 9 characters. */
constexpr std::size_t kMaxMnemonic = 16;

/**
 * A line's operands: top-level comma-separated pieces (a comma inside
 * brackets does not split), trimmed, empty ones dropped.  The first
 * three, as many as any signature reads, are kept as views into the
 * line, so each knows its column.
 */
struct Operands
{
    std::array<std::string_view, 3> op;
    std::size_t count = 0;

    std::string_view operator[](std::size_t i) const { return op[i]; }

    void
    add(std::string_view piece)
    {
        if (piece.empty())
            return;
        if (count < op.size())
            op[count] = piece;
        ++count;
    }
};

/** One source line as the cursor leaves it. */
struct LineScan
{
    std::string_view line; ///< trimmed, before any comment
    std::size_t blank = std::string_view::npos; ///< mnemonic's end
    bool colon = false;    ///< line has a ':'
    Operands ops;          ///< what follows the mnemonic
};

/**
 * One cursor over @p raw: skip leading whitespace, stop at a comment
 * ('!' or '#'), note the mnemonic's end (the first blank) and any ':',
 * and split the rest into operands on the way.
 */
LineScan
scanLine(std::string_view raw)
{
    LineScan s;
    std::size_t b = 0;
    while (b < raw.size() && (charClass(raw[b]) & kSpace))
        ++b;
    std::size_t e = b;
    std::size_t piece = 0; // where the current operand starts
    int depth = 0;         // brackets open
    for (; e < raw.size(); ++e) {
        const std::uint8_t k = charClass(raw[e]);
        if (k == 0)
            continue;
        if (k & kComment)
            break;
        s.colon = s.colon || (k & kColon);
        if (s.blank == std::string_view::npos) {
            if (k & kBlank) {
                s.blank = e - b;
                piece = e + 1;
            }
        } else if (k & kSplit) {
            if (raw[e] == '[') {
                ++depth;
            } else if (raw[e] == ']') {
                --depth;
            } else if (depth == 0) {
                s.ops.add(trim(raw.substr(piece, e - piece)));
                piece = e + 1;
            }
        }
    }
    if (s.blank != std::string_view::npos && depth == 0)
        s.ops.add(trim(raw.substr(piece, e - piece)));
    while (e > b && (charClass(raw[e - 1]) & kSpace))
        --e;
    s.line = raw.substr(b, e - b);
    if (s.blank >= s.line.size())
        s.blank = std::string_view::npos;
    return s;
}

/** Parses one instruction line; every operand is a view into raw. */
class LineParser
{
  public:
    LineParser(std::string_view raw, LineWarnings &warnings)
        : raw_(raw), warnings_(warnings)
    {
    }

    /**
     * Parse a scanned instruction line (not a label or directive).
     * Throws LineError on any malformed piece.
     */
    Instruction
    parse(const LineScan &scan)
    {
        Instruction inst = build(scan);
        inst.setText(scan.line);
        return inst;
    }

  private:
    Instruction build(const LineScan &scan);

    /** 1-based column of @p tok, a view into the line (0 = none). */
    int
    col(std::string_view tok) const
    {
        return tok.empty() ? 0
                           : static_cast<int>(tok.data() - raw_.data()) + 1;
    }

    Resource
    reg(std::string_view tok) const
    {
        Resource r = parseRegister(tok);
        if (!r.valid())
            lineError(col(tok), "expected register, got '", tok, "'");
        return r;
    }

    /** @p tok as an immediate, or std::nullopt when it is not one. */
    std::optional<std::int64_t>
    imm(std::string_view tok) const
    {
        std::int64_t v = 0;
        switch (parseImmediate(tok, v)) {
          case ImmStatus::Ok:
            return v;
          case ImmStatus::OutOfRange:
            lineError(col(tok), "integer literal '", tok,
                      "' does not fit in 64 bits");
          default:
            return std::nullopt;
        }
    }

    /** An immediate in a simm13 field: a literal outside it warns. */
    std::optional<std::int64_t>
    simm13(std::string_view tok)
    {
        auto v = imm(tok);
        if (v && tok[0] != '%' && (*v < kSimm13Min || *v > kSimm13Max)) {
            std::ostringstream os;
            os << "immediate " << *v
               << " outside the signed 13-bit range [-4096, 4095]";
            warnings_.push_back(LineError{col(tok), os.str()});
        }
        return v;
    }

    /** @p tok as an address (never std::nullopt: a bad one throws). */
    std::optional<MemOperand>
    address(std::string_view tok, Opcode op)
    {
        std::size_t overflow_at = std::string_view::npos;
        auto mem = MemOperand::parse(tok, memAccessWidth(op), &overflow_at);
        if (!mem && overflow_at != std::string_view::npos)
            lineError(col(tok) + static_cast<int>(overflow_at),
                      "memory offset does not fit in 64 bits");
        if (!mem)
            lineError(col(tok), "bad address '", tok, "'");
        if (mem->offset < kSimm13Min || mem->offset > kSimm13Max) {
            std::ostringstream os;
            os << "memory offset " << mem->offset
               << " outside the signed 13-bit range [-4096, 4095]";
            warnings_.push_back(LineError{col(tok), os.str()});
        }
        return mem;
    }

    std::string_view raw_;
    LineWarnings &warnings_;
};

Instruction
LineParser::build(const LineScan &scan)
{
    const std::string_view word = scan.line.substr(0, scan.blank);

    // Lower-case the mnemonic into a stack buffer; ",a" marks an
    // annulling branch.
    char buf[kMaxMnemonic];
    std::size_t len = word.size();
    bool annul = false;
    Opcode op = Opcode::Invalid;
    if (len <= kMaxMnemonic) {
        for (std::size_t i = 0; i < len; ++i)
            buf[i] = toLowerAscii(word[i]);
        if (len > 2 && buf[len - 2] == ',' && buf[len - 1] == 'a') {
            annul = true;
            len -= 2;
        }
        op = opcodeFromMnemonic({buf, len});
    }
    if (op == Opcode::Invalid) {
        std::string mnemonic(word);
        for (char &c : mnemonic)
            c = toLowerAscii(c);
        if (mnemonic.size() > 2 &&
            mnemonic.compare(mnemonic.size() - 2, 2, ",a") == 0)
            mnemonic.resize(mnemonic.size() - 2);
        lineError(col(word), "unknown mnemonic '", mnemonic, "'");
    }
    const std::string_view mnemonic(buf, len);

    const OpcodeInfo &info = opcodeInfo(op);
    const Operands &ops = scan.ops;
    auto need = [&](std::size_t n) {
        if (ops.count == n)
            return;
        const std::string_view rest =
            scan.blank == std::string_view::npos
                ? std::string_view()
                : trim(scan.line.substr(scan.blank));
        lineError(col(rest), "'", mnemonic, "' expects ", n,
                  " operands, got ", ops.count);
    };

    switch (info.sig) {
      case OperandSig::Alu3: {
        need(3);
        Resource rs1 = reg(ops[0]);
        Resource rs2;
        std::int64_t value = 0;
        if (auto v = simm13(ops[1]))
            value = *v;
        else
            rs2 = reg(ops[1]);
        Resource rd = reg(ops[2]);
        return makeInstruction(op, rs1, rs2, rd, std::nullopt, value);
      }
      case OperandSig::Cmp2: {
        need(2);
        Resource rs1 = reg(ops[0]);
        Resource rs2;
        std::int64_t value = 0;
        if (auto v = simm13(ops[1]))
            value = *v;
        else
            rs2 = reg(ops[1]);
        return makeInstruction(op, rs1, rs2, Resource(), std::nullopt,
                               value);
      }
      case OperandSig::Mov2: {
        need(2);
        Resource rs1;
        std::int64_t value = 0;
        if (auto v = simm13(ops[0]))
            value = *v;
        else
            rs1 = reg(ops[0]);
        Resource rd = reg(ops[1]);
        return makeInstruction(op, rs1, Resource(), rd, std::nullopt,
                               value);
      }
      case OperandSig::Sethi2: {
        need(2);
        auto v = imm(ops[0]);
        if (!v)
            lineError(col(ops[0]), "bad sethi immediate '", ops[0], "'");
        Resource rd = reg(ops[1]);
        return makeInstruction(op, Resource(), Resource(), rd,
                               std::nullopt, *v);
      }
      case OperandSig::LoadOp: {
        need(2);
        Resource rd = reg(ops[1]);
        Opcode real_op =
            rd.kind() == Resource::Kind::FpReg ? fpMemoryForm(op) : op;
        return makeInstruction(real_op, Resource(), Resource(), rd,
                               address(ops[0], real_op));
      }
      case OperandSig::StoreOp: {
        need(2);
        Resource rs = reg(ops[0]);
        Opcode real_op =
            rs.kind() == Resource::Kind::FpReg ? fpMemoryForm(op) : op;
        return makeInstruction(real_op, rs, Resource(), Resource(),
                               address(ops[1], real_op));
      }
      // The FP forms check their operands last to first, so a line
      // with several bad registers reports the rightmost.
      case OperandSig::Fp3: {
        need(3);
        Resource rd = reg(ops[2]);
        Resource rs2 = reg(ops[1]);
        Resource rs1 = reg(ops[0]);
        return makeInstruction(op, rs1, rs2, rd);
      }
      case OperandSig::Fp2: {
        need(2);
        Resource rd = reg(ops[1]);
        Resource rs1 = reg(ops[0]);
        return makeInstruction(op, rs1, Resource(), rd);
      }
      case OperandSig::Fcmp2: {
        need(2);
        Resource rs2 = reg(ops[1]);
        Resource rs1 = reg(ops[0]);
        return makeInstruction(op, rs1, rs2, Resource());
      }
      case OperandSig::BranchOp:
      case OperandSig::CallOp: {
        need(1);
        Instruction inst =
            makeInstruction(op, Resource(), Resource(), Resource());
        inst.setTarget(ops[0]);
        inst.setAnnul(annul && info.sig == OperandSig::BranchOp);
        return inst;
      }
      case OperandSig::JmplOp: {
        need(2);
        Resource rs1 = reg(ops[0]);
        Resource rd = reg(ops[1]);
        return makeInstruction(op, rs1, Resource(), rd);
      }
      case OperandSig::None: {
        if (op == Opcode::Restore && ops.count == 3) {
            // restore %rs1, %rs2_or_imm, %rd form
            Resource rs1 = reg(ops[0]);
            Resource rs2;
            std::int64_t value = 0;
            if (auto v = imm(ops[1]))
                value = *v;
            else
                rs2 = reg(ops[1]);
            Resource rd = reg(ops[2]);
            Instruction inst(Opcode::Restore);
            inst.addUse(rs1, 0);
            if (rs2.valid())
                inst.addUse(rs2, 1);
            else
                inst.setUsesImm(true);
            inst.setImm(value);
            inst.addDef(rd);
            inst.addUse(Resource::callState(), 2);
            inst.addDef(Resource::callState());
            return inst;
        }
        need(0);
        return makeInstruction(op, Resource(), Resource(), Resource());
      }
      default:
        lineError(0, "unhandled signature for '", mnemonic, "'");
    }
}

/**
 * Instructions @p text can hold: at most one per line, and at most
 * one per four bytes ("nop\n" is the shortest), so a run of empty
 * lines cannot make the reservation outgrow the input.
 */
std::size_t
instructionCapacity(std::string_view text)
{
    std::size_t lines =
        static_cast<std::size_t>(
            std::count(text.begin(), text.end(), '\n')) + 1;
    return std::min(lines, (text.size() + 1) / 4);
}

} // namespace

Program
parseAssembly(std::string_view text, DiagnosticEngine &diags,
              std::string_view filename)
{
    Program prog;
    prog.reserve(instructionCapacity(text));

    std::size_t pos = 0;
    int lineno = 0;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            nl = text.size();
        const std::string_view raw = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lineno;

        const LineScan scan = scanLine(raw);
        const std::string_view line = scan.line;
        if (line.empty())
            continue;

        // Labels (possibly several on one conceptual position).
        if (line.back() == ':') {
            const std::string_view label = line.substr(0, line.size() - 1);
            if (!prog.addLabel(label)) {
                // Parseable but almost certainly a mistake: a branch
                // to this label is ambiguous.
                obs::ev::robustParseWarnings.inc();
                std::string message = "label '";
                message += label;
                message += "' defined more than once";
                diags.warning(filename, lineno, 1, std::move(message));
            }
            continue;
        }

        // Ignore non-label assembler directives.
        if (line[0] == '.' && !scan.colon)
            continue;

        LineWarnings warnings;
        try {
            prog.append(LineParser(raw, warnings).parse(scan));
            for (const LineError &w : warnings) {
                obs::ev::robustParseWarnings.inc();
                diags.warning(filename, lineno, w.col, w.message);
            }
        } catch (const LineError &e) {
            // Lenient recovery: drop this instruction, keep parsing.
            // (A strict engine throws out of report() instead.)
            obs::ev::robustParseErrors.inc();
            log::debug("parser: recovered from malformed line ", lineno,
                       " of ", filename);
            diags.error(filename, lineno, e.col, e.message);
        }
    }

    return prog;
}

Program
parseAssembly(std::string_view text)
{
    DiagnosticEngine::Options opts;
    opts.strict = true;
    DiagnosticEngine diags(opts);
    return parseAssembly(text, diags);
}

} // namespace sched91
