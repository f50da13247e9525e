#include "ir/parser.hh"

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
    // Counted 255 bytes at a time into a byte, which vectorizes: five
    // times the speed of std::count on a 620 KB text.
    std::size_t lines = 1;
    for (std::size_t i = 0; i < text.size();) {
        const std::size_t end = std::min(text.size(), i + 255);
        unsigned char block = 0;
        for (; i < end; ++i)
            block += text[i] == '\n';
        lines += block;
    }
    return std::min(lines, (text.size() + 1) / 4);
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
        try {
            prog.append(LineParser(raw, warnings).parse(scan));
            for (LineError &w : warnings)
                events.push_back({ParseEvent::Warning, lineno, w.col,
                                  std::move(w.message), {}});
        } catch (LineError &e) {
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
    Program prog;
    prog.reserve(instructionCapacity(text));
    const std::size_t error_limit = diags.errorsUntilFatal();

    ThreadPool *pool = nullptr;
    unsigned lanes = 1;
    if (text.size() >= kLaneParseBytes) {
        lanes = threads != 0 ? threads : ThreadPool::hardwareConcurrency();
        pool = &ThreadPool::local(lanes);
        lanes = std::min(lanes, pool->threads());
    }
    const std::vector<std::string_view> pieces = cutAtLines(text, lanes);
    if (pieces.size() == 1) {
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
            chunk.prog.reserve(instructionCapacity(pieces[c]));
            chunk.lines = parseLines(pieces[c], chunk.prog, chunk.events,
                                     error_limit, &labels);
        },
        lanes);

    // On this thread, per label and per diagnostic, in line order: the
    // first definition of a label wins, and a throwing engine ends the
    // parse here.  The label map is not reserved: Program::toString()
    // lists the labels of one index in the map's order, which follows
    // how it grew, so it must grow as in a one-lane parse.
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

    // Per unique expression, in chunk order: the ids come out in order
    // of first appearance, as one lane numbers them.
    std::vector<std::vector<std::uint32_t>> expr_ids(chunks.size());
    for (std::size_t c = 1; c < chunks.size(); ++c)
        expr_ids[c] = prog.internMemExprs(chunks[c].prog.memExprs());

    // Per instruction, back on the lanes: each moves into place with its
    // program index and expression id.
    prog.insts().resize(inst_base.back());
    Instruction *const insts = prog.insts().data();
    pool->parallelFor(
        chunks.size() - 1, 1,
        [&](unsigned, std::size_t first, std::size_t) {
            const std::size_t c = first + 1;
            const std::uint32_t base = inst_base[c];
            const std::vector<std::uint32_t> &ids = expr_ids[c];
            for (Instruction &inst : chunks[c].prog.insts()) {
                const std::uint32_t idx = base + inst.index();
                inst.setIndex(idx);
                if (auto &mem = inst.mem())
                    mem->exprId = ids[mem->exprId];
                insts[idx] = std::move(inst);
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
