#include "ir/parser.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/events.hh"
#include "support/log.hh"
#include "support/logging.hh"
#include "support/string_util.hh"
#include "support/thread_pool.hh"

namespace sched91
{

namespace
{

/** What the line cursor notices about a character. */
enum CharClass : std::uint8_t {
    kSpace = 1,   ///< the C locale's isspace() but '\n': what trims skip
    kBlank = 2,   ///< ' ' or '\t': ends the mnemonic
    kEnd = 4,     ///< '\n', '!' or '#': ends the line or starts a comment
    kColon = 8,
    kSplit = 16,  ///< '[', ']' or ',': what splits operands
};

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
    std::array<std::uint8_t, 256> t{};
    for (unsigned char c : {' ', '\t', '\v', '\f', '\r'})
        t[c] |= kSpace;
    t[' '] |= kBlank;
    t['\t'] |= kBlank;
    t['\n'] |= kEnd;
    t['!'] |= kEnd;
    t['#'] |= kEnd;
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

    /** Add [@p b, @p e), trimmed, unless it is blank. */
    void
    add(const char *b, const char *e)
    {
        while (b != e && (charClass(*b) & kSpace))
            ++b;
        while (e != b && (charClass(e[-1]) & kSpace))
            --e;
        if (b != e)
            addTrimmed(b, e);
    }

    /** Add [@p b, @p e), trimmed and not empty. */
    void
    addTrimmed(const char *b, const char *e)
    {
        if (count < op.size())
            op[count] = {b, static_cast<std::size_t>(e - b)};
        ++count;
    }
};

/** One source line as the cursor leaves it. */
struct LineScan
{
    std::string_view line; ///< trimmed, before any comment
    std::size_t blank = std::string_view::npos; ///< mnemonic's end
    bool colon = false;    ///< line has a ':'
    Operands ops;          ///< what follows the mnemonic, trimmed
};

#if defined(__SSE2__)
/**
 * scanLine() of a line that ends ('\n' or a comment) within its first
 * 32 bytes, from bit masks of those bytes, each classified sixteen at
 * a time: every mark is then a bit count, with no branch per byte.
 * Returns false, having set nothing, for a longer line.
 */
bool
scanShortLine(std::string_view text, std::size_t pos, LineScan &s,
              std::size_t &nl)
{
    constexpr std::size_t kWindow = 32;
    const char *const p = text.data() + pos;
    const char *w = p;
    char padded[kWindow];
    if (text.size() - pos < kWindow) {
        // The text's last bytes, and a '\n' where the text ends.
        std::memset(padded, '\n', kWindow);
        std::memcpy(padded, p, text.size() - pos);
        w = padded;
    }
    std::uint32_t space = 0, blank = 0, end = 0, colon = 0, comma = 0,
                  bracket = 0;
    for (unsigned at = 0; at < kWindow; at += 16) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(w + at));
        auto is = [&v](char c) {
            return _mm_cmpeq_epi8(v, _mm_set1_epi8(c));
        };
        auto bits = [at](__m128i m) {
            return static_cast<std::uint32_t>(_mm_movemask_epi8(m)) << at;
        };
        // '\t' to '\r' move to -128..-124, below every other byte.
        const __m128i controls = _mm_cmplt_epi8(
            _mm_add_epi8(v, _mm_set1_epi8(static_cast<char>(0x80 - '\t'))),
            _mm_set1_epi8(static_cast<char>(0x80 + '\r' - '\t' + 1)));
        const __m128i newline = is('\n');
        const __m128i spaces = is(' ');
        space |= bits(
            _mm_or_si128(_mm_andnot_si128(newline, controls), spaces));
        blank |= bits(_mm_or_si128(spaces, is('\t')));
        end |= bits(_mm_or_si128(newline, _mm_or_si128(is('!'), is('#'))));
        colon |= bits(is(':'));
        comma |= bits(is(','));
        bracket |= bits(_mm_or_si128(is('['), is(']')));
    }
    if (end == 0)
        return false;

    const auto stop = static_cast<unsigned>(__builtin_ctz(end));
    nl = pos + stop;
    if (w[stop] != '\n') {
        // A comment runs to the newline.
        nl = text.find('\n', nl);
        if (nl == std::string_view::npos)
            nl = text.size();
    }
    auto below = [](unsigned i) { return (std::uint32_t{1} << i) - 1; };
    const std::uint32_t solid = ~space & below(stop);
    if (solid == 0) {
        s.line = text.substr(pos + stop, 0);
        return true;
    }
    const auto b = static_cast<unsigned>(__builtin_ctz(solid));
    const auto e = 32 - static_cast<unsigned>(__builtin_clz(solid));
    s.line = {p + b, e - b};
    s.colon = (colon & below(stop)) != 0;
    const std::uint32_t blanks = blank & below(stop) & ~below(b);
    if (blanks == 0)
        return true;
    const auto mnemonic_end = static_cast<unsigned>(__builtin_ctz(blanks));
    if (mnemonic_end < e)
        s.blank = mnemonic_end - b;

    // The operands, split at the commas outside brackets.
    const std::uint32_t rest = below(stop) & ~below(mnemonic_end + 1);
    std::uint32_t splits = comma & rest;
    int depth = 0;
    if (bracket & rest) {
        splits = 0;
        for (std::uint32_t m = (comma | bracket) & rest; m != 0;
             m &= m - 1) {
            const auto i = static_cast<unsigned>(__builtin_ctz(m));
            if (w[i] == '[')
                ++depth;
            else if (w[i] == ']')
                --depth;
            else if (depth == 0)
                splits |= std::uint32_t{1} << i;
        }
    }
    auto add = [&](unsigned from, unsigned to) {
        const std::uint32_t m = solid & below(to) & ~below(from);
        if (m != 0)
            s.ops.addTrimmed(
                p + __builtin_ctz(m),
                p + 32 - static_cast<unsigned>(__builtin_clz(m)));
    };
    unsigned piece = mnemonic_end + 1;
    for (; splits != 0; splits &= splits - 1) {
        const auto i = static_cast<unsigned>(__builtin_ctz(splits));
        add(piece, i);
        piece = i + 1;
    }
    if (depth == 0)
        add(piece, stop);
    return true;
}
#endif

/**
 * One cursor over the line at @p pos of @p text, reading each byte
 * once: skip leading whitespace, read the mnemonic up to its first
 * blank, then split the rest into trimmed operands, until the newline
 * or a comment ('!' or '#'), noting any ':' on the way.  Returns the
 * index of the line's '\n', or text.size() for the last line.
 */
std::size_t
scanLine(std::string_view text, std::size_t pos, LineScan &s)
{
#if defined(__SSE2__)
    if (std::size_t nl = 0; scanShortLine(text, pos, s, nl))
        return nl;
#endif
    const char *const end = text.data() + text.size();
    const char *p = text.data() + pos;
    while (p != end && (charClass(*p) & kSpace))
        ++p;
    const char *const b = p;
    std::uint8_t k = 0;
    for (; p != end; ++p) {
        k = charClass(*p);
        if (k & (kBlank | kEnd))
            break;
        if (k & kColon)
            s.colon = true;
    }
    const char *blank = nullptr; // the mnemonic's end
    if (p != end && (k & kBlank)) {
        // Blanks inside an operand are trimmed at its ends, never
        // stopped at.
        blank = p;
        const char *piece = ++p; // where the current operand starts
        int depth = 0;           // brackets open
        for (; p != end; ++p) {
            k = charClass(*p);
            if (!(k & (kEnd | kColon | kSplit)))
                continue;
            if (k & kEnd)
                break;
            if (k & kColon) {
                s.colon = true;
            } else if (*p == '[') {
                ++depth;
            } else if (*p == ']') {
                --depth;
            } else if (depth == 0) {
                s.ops.add(piece, p);
                piece = p + 1;
            }
        }
        if (depth == 0)
            s.ops.add(piece, p);
    }
    const char *e = p;
    while (e != b && (charClass(e[-1]) & kSpace))
        --e;
    s.line = {b, static_cast<std::size_t>(e - b)};
    if (blank != nullptr && blank < e)
        s.blank = static_cast<std::size_t>(blank - b);
    if (p != end && *p != '\n') {
        // A comment runs to the newline.
        const void *nl =
            std::memchr(p, '\n', static_cast<std::size_t>(end - p));
        p = nl != nullptr ? static_cast<const char *>(nl) : end;
    }
    return static_cast<std::size_t>(p - text.data());
}

/**
 * Parses one instruction line into the program, building the
 * instruction in place.  Every token it reads is a trimmed view into
 * the line.
 */
class LineParser
{
  public:
    LineParser(const char *raw, Program &prog, LineWarnings &warnings)
        : raw_(raw), prog_(prog), warnings_(warnings)
    {
    }

    /**
     * Parse a scanned instruction line (not a label or directive) and
     * append its instruction.  Throws LineError on any malformed
     * piece; the instruction may then be left appended, for the caller
     * to take back.
     */
    void
    parse(const LineScan &scan)
    {
        Instruction &inst = build(scan);
        inst.setStrings(scan.line, target_);
        prog_.commit(inst);
    }

  private:
    Instruction &build(const LineScan &scan);

    /** 1-based column of @p tok, a view into the line (0 = none). */
    int
    col(std::string_view tok) const
    {
        return tok.empty() ? 0 : static_cast<int>(tok.data() - raw_) + 1;
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
        switch (parseImmediateToken(tok, v)) {
          case ImmStatus::Ok:
            return v;
          case ImmStatus::OutOfRange:
            lineError(col(tok), "integer literal '", tok,
                      "' does not fit in 64 bits");
          default:
            return std::nullopt;
        }
    }

    /**
     * @p tok as a register, or else as an immediate in a simm13 field,
     * into @p value; neither is a line error.  The register is tried
     * first, as none reads as an immediate.
     */
    Resource
    regOrSimm13(std::string_view tok, std::int64_t &value)
    {
        if (const Resource r = parseRegister(tok); r.valid())
            return r;
        if (auto v = simm13(tok)) {
            value = *v;
            return Resource();
        }
        return reg(tok);
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

    /** Parse the address @p tok into @p inst's memory operand; a bad
     * one throws. */
    void
    address(std::string_view tok, Instruction &inst)
    {
        MemOperand &mem = inst.mem().emplace();
        mem.width = memAccessWidth(inst.op());
        std::size_t overflow_at = std::string_view::npos;
        if (!MemOperand::parseToken(tok, mem, &overflow_at)) {
            if (overflow_at != std::string_view::npos)
                lineError(col(tok) + static_cast<int>(overflow_at),
                          "memory offset does not fit in 64 bits");
            lineError(col(tok), "bad address '", tok, "'");
        }
        if (mem.offset < kSimm13Min || mem.offset > kSimm13Max) {
            std::ostringstream os;
            os << "memory offset " << mem.offset
               << " outside the signed 13-bit range [-4096, 4095]";
            warnings_.push_back(LineError{col(tok), os.str()});
        }
    }

    /** Append @p op's instruction, of signature @p Sig, with these
     * operands. */
    template <OperandSig Sig>
    Instruction &
    emit(Opcode op, Resource rs1, Resource rs2, Resource rd,
         std::int64_t value = 0)
    {
        Instruction &inst = prog_.emplace(op);
        inst.setImm(value);
        fillOperands<Sig>(inst, rs1, rs2, rd);
        return inst;
    }

    const char *raw_; ///< the line's first byte
    Program &prog_;
    LineWarnings &warnings_;
    std::string_view target_; ///< a branch's or call's
};

Instruction &
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
        std::int64_t value = 0;
        Resource rs2 = regOrSimm13(ops[1], value);
        Resource rd = reg(ops[2]);
        return emit<OperandSig::Alu3>(op, rs1, rs2, rd, value);
      }
      case OperandSig::Cmp2: {
        need(2);
        Resource rs1 = reg(ops[0]);
        std::int64_t value = 0;
        Resource rs2 = regOrSimm13(ops[1], value);
        return emit<OperandSig::Cmp2>(op, rs1, rs2, Resource(), value);
      }
      case OperandSig::Mov2: {
        need(2);
        std::int64_t value = 0;
        Resource rs1 = regOrSimm13(ops[0], value);
        Resource rd = reg(ops[1]);
        return emit<OperandSig::Mov2>(op, rs1, Resource(), rd, value);
      }
      case OperandSig::Sethi2: {
        need(2);
        auto v = imm(ops[0]);
        if (!v)
            lineError(col(ops[0]), "bad sethi immediate '", ops[0], "'");
        Resource rd = reg(ops[1]);
        return emit<OperandSig::Sethi2>(op, Resource(), Resource(), rd, *v);
      }
      // A load or store reads its address into place, then its
      // operands' resources; a bad address leaves it appended.
      case OperandSig::LoadOp: {
        need(2);
        Resource rd = reg(ops[1]);
        Instruction &inst = prog_.emplace(
            rd.kind() == Resource::Kind::FpReg ? fpMemoryForm(op) : op);
        address(ops[0], inst);
        fillOperands<OperandSig::LoadOp>(inst, Resource(), Resource(), rd);
        return inst;
      }
      case OperandSig::StoreOp: {
        need(2);
        Resource rs = reg(ops[0]);
        Instruction &inst = prog_.emplace(
            rs.kind() == Resource::Kind::FpReg ? fpMemoryForm(op) : op);
        address(ops[1], inst);
        fillOperands<OperandSig::StoreOp>(inst, rs, Resource(),
                                          Resource());
        return inst;
      }
      // The FP forms check their operands last to first, so a line
      // with several bad registers reports the rightmost.
      case OperandSig::Fp3: {
        need(3);
        Resource rd = reg(ops[2]);
        Resource rs2 = reg(ops[1]);
        Resource rs1 = reg(ops[0]);
        return emit<OperandSig::Fp3>(op, rs1, rs2, rd);
      }
      case OperandSig::Fp2: {
        need(2);
        Resource rd = reg(ops[1]);
        Resource rs1 = reg(ops[0]);
        return emit<OperandSig::Fp2>(op, rs1, Resource(), rd);
      }
      case OperandSig::Fcmp2: {
        need(2);
        Resource rs2 = reg(ops[1]);
        Resource rs1 = reg(ops[0]);
        return emit<OperandSig::Fcmp2>(op, rs1, rs2, Resource());
      }
      case OperandSig::BranchOp:
      case OperandSig::CallOp: {
        need(1);
        Instruction &inst =
            info.sig == OperandSig::BranchOp
                ? emit<OperandSig::BranchOp>(op, Resource(), Resource(),
                                             Resource())
                : emit<OperandSig::CallOp>(op, Resource(), Resource(),
                                           Resource());
        target_ = ops[0];
        inst.setAnnul(annul && info.sig == OperandSig::BranchOp);
        return inst;
      }
      case OperandSig::JmplOp: {
        need(2);
        Resource rs1 = reg(ops[0]);
        Resource rd = reg(ops[1]);
        return emit<OperandSig::JmplOp>(op, rs1, Resource(), rd);
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
            Instruction &inst = prog_.emplace(Opcode::Restore);
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
        return emit<OperandSig::None>(op, Resource(), Resource(),
                                      Resource());
      }
      default:
        lineError(0, "unhandled signature for '", mnemonic, "'");
    }
}

/** What a text can hold, to reserve for. */
struct TextCapacity
{
    std::size_t insts = 0;
    std::size_t labels = 0;
};

/**
 * What @p text can hold: instructions, at most one per line and one
 * per four bytes ("nop\n" is the shortest), so a run of empty lines
 * cannot make the reservation outgrow the input; and labels, at most
 * one per line and one per colon.
 */
TextCapacity
textCapacity(std::string_view text)
{
    // Counted 255 bytes at a time into a byte, which vectorizes: five
    // times the speed of std::count on a 620 KB text.
    std::size_t lines = 1;
    std::size_t colons = 0;
    for (std::size_t i = 0; i < text.size();) {
        const std::size_t end = std::min(text.size(), i + 255);
        unsigned char newline_block = 0;
        unsigned char colon_block = 0;
        for (; i < end; ++i) {
            newline_block += text[i] == '\n';
            colon_block += text[i] == ':';
        }
        lines += newline_block;
        colons += colon_block;
    }
    return {std::min(lines, (text.size() + 1) / 4),
            std::min(lines, colons)};
}

using LabelMap = std::unordered_map<std::string, std::uint32_t>;

/**
 * Something the line loop found that the caller reports.  The loop
 * only records; the caller replays the records on its own thread, so
 * counts land in its shard and diagnostics reach its engine in line
 * order, whichever lane read the line.
 */
struct ParseEvent
{
    enum Kind : std::uint8_t {
        Warning,
        Error,
        Label, ///< a definition to move into the program; warns if taken
    };

    Kind kind = Warning;
    int line = 0; ///< 1-based, within the chunk
    int col = 0;
    std::string message;      ///< Warning, Error
    Program::LabelNode label; ///< Label: index within the chunk
};

std::string
duplicateLabel(std::string_view label)
{
    std::string message = "label '";
    message += label;
    message += "' defined more than once";
    return message;
}

/**
 * The line loop: parse the lines of @p text into @p prog and record
 * what must be reported in @p events, until the text ends or
 * @p errorLimit errors decide the engine's outcome.  With @p labels
 * null the labels go into @p prog; otherwise each becomes a Label
 * event, its node made in @p labels.  Returns the lines read.
 */
int
parseLines(std::string_view text, Program &prog,
           std::vector<ParseEvent> &events, std::size_t errorLimit,
           LabelMap *labels)
{
    std::size_t errors = 0;
    std::size_t pos = 0;
    int lineno = 0;
    while (pos <= text.size() && errors < errorLimit) {
        const char *const raw = text.data() + pos;
        LineScan scan;
        pos = scanLine(text, pos, scan) + 1;
        ++lineno;

        const std::string_view line = scan.line;
        if (line.empty())
            continue;

        // Labels (possibly several on one conceptual position).
        if (line.back() == ':') {
            const std::string_view label = line.substr(0, line.size() - 1);
            if (labels) {
                labels->try_emplace(std::string(label),
                                    static_cast<std::uint32_t>(prog.size()));
                events.push_back({ParseEvent::Label, lineno, 1, {},
                                  labels->extract(labels->begin())});
            } else if (!prog.addLabel(label)) {
                // Parseable but almost certainly a mistake: a branch
                // to this label is ambiguous.
                events.push_back({ParseEvent::Warning, lineno, 1,
                                  duplicateLabel(label), {}});
            }
            continue;
        }

        // Ignore non-label assembler directives.
        if (line[0] == '.' && !scan.colon)
            continue;

        LineWarnings warnings;
        const std::size_t appended = prog.size();
        try {
            LineParser(raw, prog, warnings).parse(scan);
            for (LineError &w : warnings)
                events.push_back({ParseEvent::Warning, lineno, w.col,
                                  std::move(w.message), {}});
        } catch (LineError &e) {
            // A failed line leaves nothing behind.
            if (prog.size() != appended)
                prog.store().popBack();
            events.push_back(
                {ParseEvent::Error, lineno, e.col, std::move(e.message), {}});
            ++errors;
        }
    }
    return lineno;
}

/**
 * Report one chunk's @p events: its lines follow line @p lineBase and
 * its instructions start at index @p instBase of @p prog.  Throws what
 * the engine throws.
 */
void
replay(std::vector<ParseEvent> &events, int lineBase,
       std::uint32_t instBase, Program &prog, DiagnosticEngine &diags,
       std::string_view filename)
{
    for (ParseEvent &e : events) {
        const int lineno = lineBase + e.line;
        switch (e.kind) {
          case ParseEvent::Label:
            e.label.mapped() += instBase;
            if (prog.addLabel(e.label))
                break;
            e.message = duplicateLabel(e.label.key());
            [[fallthrough]];
          case ParseEvent::Warning:
            obs::ev::robustParseWarnings.inc();
            diags.warning(filename, lineno, e.col, std::move(e.message));
            break;
          case ParseEvent::Error:
            // Lenient recovery: the line's instruction was dropped.
            // (A strict engine throws out of report() instead.)
            obs::ev::robustParseErrors.inc();
            log::debug("parser: recovered from malformed line ", lineno,
                       " of ", filename);
            diags.error(filename, lineno, e.col, std::move(e.message));
            break;
        }
    }
}

/**
 * @p text cut at line boundaries into at most @p n pieces of about
 * equal size.  Each piece but the last drops the '\n' that ends it,
 * so a piece's line loop reads exactly its own lines.
 */
std::vector<std::string_view>
cutAtLines(std::string_view text, unsigned n)
{
    std::vector<std::string_view> pieces;
    std::size_t begin = 0;
    for (unsigned i = 1; i < n; ++i) {
        const std::size_t nl =
            text.find('\n', std::max(begin, text.size() / n * i));
        if (nl == std::string_view::npos)
            break;
        pieces.push_back(text.substr(begin, nl - begin));
        begin = nl + 1;
    }
    pieces.push_back(text.substr(begin));
    return pieces;
}

/** What a lane made of one piece of the text. */
struct Chunk
{
    Program prog; ///< the first piece parses into the result instead
    std::vector<ParseEvent> events;
    int lines = 0;
};

} // namespace

Program
parseAssembly(std::string_view text, DiagnosticEngine &diags,
              std::string_view filename, unsigned threads)
{
    // Its labels too, so neither the line loop nor the lanes' merge
    // grows the label tables but the map.
    Program prog;
    const TextCapacity capacity = textCapacity(text);
    prog.reserve(capacity.insts, capacity.labels);
    const std::size_t error_limit = diags.errorsUntilFatal();

    ThreadPool *pool = nullptr;
    unsigned lanes = 1;
    if (text.size() >= kLaneParseBytes) {
        lanes = threads != 0 ? threads : ThreadPool::hardwareConcurrency();
        pool = &ThreadPool::local(lanes);
        lanes = std::min(lanes, pool->threads());
    }
    const std::vector<std::string_view> pieces =
        lanes > 1 ? cutAtLines(text, lanes)
                  : std::vector<std::string_view>{};
    if (pieces.size() <= 1) {
        std::vector<ParseEvent> events;
        parseLines(text, prog, events, error_limit, nullptr);
        replay(events, 0, 0, prog, diags, filename);
        return prog;
    }

    // Each chunk on a lane: its own instructions, expression ids and
    // label nodes, except the first, which is the program's start.
    std::vector<Chunk> chunks(pieces.size());
    pool->parallelFor(
        chunks.size(), 1,
        [&](unsigned, std::size_t c, std::size_t) {
            Chunk &chunk = chunks[c];
            if (c == 0) {
                chunk.lines = parseLines(pieces[c], prog, chunk.events,
                                         error_limit, nullptr);
                return;
            }
            LabelMap labels;
            chunk.prog.reserve(textCapacity(pieces[c]).insts);
            chunk.lines = parseLines(pieces[c], chunk.prog, chunk.events,
                                     error_limit, &labels);
        },
        lanes);

    // On this thread, per label and per diagnostic, in line order: the
    // first definition of a label wins, and a throwing engine ends the
    // parse here.
    std::vector<std::uint32_t> inst_base(chunks.size() + 1, 0);
    for (std::size_t c = 0; c < chunks.size(); ++c)
        inst_base[c + 1] =
            inst_base[c] + static_cast<std::uint32_t>(
                               (c == 0 ? prog : chunks[c].prog).size());
    int line_base = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        replay(chunks[c].events, line_base, inst_base[c], prog, diags,
               filename);
        line_base += chunks[c].lines;
    }

    // Per unique expression and per chunk, in chunk order: the ids
    // come out in order of first appearance, and each chunk's
    // generations count on from the definitions of the chunks before
    // it, as one lane numbers them.
    std::vector<Program::PieceRebase> rebases(chunks.size());
    for (std::size_t c = 1; c < chunks.size(); ++c)
        rebases[c] = prog.joinPiece(chunks[c].prog);

    // Per instruction, back on the lanes: the program's store grows by
    // slots nothing constructs (within the capacity reserved above, so
    // the first piece stays where it is), and each lane moves its
    // piece's instructions, rebased, into theirs and frees what the
    // piece kept.  The moves cannot throw, so no slot is left unbuilt.
    prog.store().appendUnbuilt(inst_base.back() - inst_base[1]);
    Instruction *const insts = prog.store().data();
    pool->parallelFor(
        chunks.size() - 1, 1,
        [&](unsigned, std::size_t first, std::size_t) {
            const std::size_t c = first + 1;
            const std::uint32_t base = inst_base[c];
            const Program::PieceRebase &rebase = rebases[c];
            for (Instruction &inst : chunks[c].prog.insts()) {
                const std::uint32_t idx = base + inst.index();
                inst.setIndex(idx);
                if (auto &mem = inst.mem())
                    rebase.apply(*mem);
                std::construct_at(insts + idx, std::move(inst));
            }
            chunks[c].prog = Program(); // freed here, not on the caller
        },
        lanes);
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
