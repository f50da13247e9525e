#include "ir/operand.hh"

#include <cctype>
#include <charconv>

#include "support/string_util.hh"

namespace sched91
{

namespace
{

/** Value of digit @p c in bases up to 16, or 16 when it is none. */
unsigned
digitValue(char c)
{
    if (c >= '0' && c <= '9')
        return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f')
        return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F')
        return static_cast<unsigned>(c - 'A' + 10);
    return 16;
}

/**
 * A whole (trimmed) token as strtoll(base 0) reads an integer:
 * optional sign, then 0x hex, 0-prefixed octal or decimal digits.
 */
ImmStatus
parsePlainInt(std::string_view t, std::int64_t &value)
{
    std::size_t i = 0;
    const bool negative = !t.empty() && t[0] == '-';
    if (!t.empty() && (t[0] == '-' || t[0] == '+'))
        ++i;
    unsigned base = 10;
    if (i + 1 < t.size() && t[i] == '0' &&
        (t[i + 1] == 'x' || t[i + 1] == 'X')) {
        base = 16; // "0x" with no hex digit after it is no literal
        i += 2;
    } else if (i < t.size() && t[i] == '0') {
        base = 8;
    }
    if (i == t.size())
        return ImmStatus::NotImm;

    std::uint64_t magnitude = 0;
    bool overflow = false;
    for (; i < t.size(); ++i) {
        unsigned d = digitValue(t[i]);
        if (d >= base)
            return ImmStatus::NotImm;
        overflow = overflow ||
                   __builtin_mul_overflow(magnitude, base, &magnitude) ||
                   __builtin_add_overflow(magnitude, d, &magnitude);
    }
    const std::uint64_t limit =
        std::uint64_t{1} << 63; // |INT64_MIN|; INT64_MAX is one less
    if (overflow || magnitude > limit - (negative ? 0 : 1))
        return ImmStatus::OutOfRange;
    value = static_cast<std::int64_t>(negative ? 0 - magnitude
                                               : magnitude);
    return ImmStatus::Ok;
}

/** Append an integer register's name ("%o3") to @p out. */
void
appendIntReg(std::string &out, int reg)
{
    out += '%';
    out += "goli"[reg / 8];
    out += static_cast<char>('0' + reg % 8);
}

} // namespace

StorageClass
MemOperand::storageClass() const
{
    if (base < 0 && !symbol.empty())
        return StorageClass::Static;
    if (base == 14 || base == 30) // %sp, %fp
        return StorageClass::Stack;
    return StorageClass::Unknown;
}

std::string
MemOperand::exprKey() const
{
    std::string key = symbol;
    if (base >= 0) {
        if (!key.empty())
            key += '+';
        appendIntReg(key, base);
    }
    if (index >= 0) {
        key += '+';
        appendIntReg(key, index);
    }
    if (offset != 0 || key.empty()) {
        if (offset >= 0 && !key.empty())
            key += '+';
        char digits[24];
        auto [end, ec] = std::to_chars(digits, digits + sizeof digits,
                                       offset);
        key.append(digits, end);
    }
    return key;
}

std::string
MemOperand::toString() const
{
    std::string out = "[";
    out += exprKey();
    out += ']';
    return out;
}

namespace
{

/** MemOperand::parse into @p out; false when malformed. */
bool
parseAddress(std::string_view text, MemOperand &out,
             std::size_t *overflowAt)
{
    std::string_view t = trim(text);
    if (t.size() < 3 || t.front() != '[' || t.back() != ']')
        return false;
    t = trim(t.substr(1, t.size() - 2));
    if (t.empty())
        return false;

    // One cursor: a piece ends at each top-level + or - (one right
    // after '(' belongs to the piece) and is read before the next is
    // found.  A '-' starts the next piece; a '+' does not.
    std::size_t start = 0;
    for (std::size_t i = 1; i <= t.size(); ++i) {
        if (i < t.size() &&
            !((t[i] == '+' || t[i] == '-') && t[i - 1] != '('))
            continue;
        const std::string_view piece = trim(t.substr(start, i - start));
        start = i < t.size() && t[i] == '-' ? i : i + 1;

        if (piece.empty())
            return false; // dangling operator: "[%g1 +]"
        if (piece[0] == '-' && piece.size() > 1 &&
            !std::isdigit(static_cast<unsigned char>(piece[1])))
            return false; // -%reg makes no sense
        if (piece.starts_with("%lo(") && piece.back() == ')') {
            // %lo(sym) contributes the symbol.
            out.symbol.assign(piece.substr(4, piece.size() - 5));
            continue;
        }
        if (piece[0] == '%') {
            // Only an integer register; "[%q5 + 4]" is a typo, not a
            // symbol.
            Resource r = parseRegister(piece);
            if (r.kind() != Resource::Kind::IntReg)
                return false;
            if (out.base < 0)
                out.base = r.index();
            else if (out.index < 0)
                out.index = r.index();
            else
                return false;
            continue;
        }
        std::int64_t v = 0;
        ImmStatus lit = parsePlainInt(piece, v);
        if (lit == ImmStatus::OutOfRange ||
            (lit == ImmStatus::Ok &&
             __builtin_add_overflow(out.offset, v, &out.offset))) {
            if (overflowAt)
                *overflowAt =
                    static_cast<std::size_t>(piece.data() - text.data());
            return false;
        }
        if (lit == ImmStatus::Ok)
            continue;
        // Bare symbol.
        if (!out.symbol.empty())
            return false;
        out.symbol.assign(piece);
    }

    return out.base >= 0 || !out.symbol.empty();
}

} // namespace

std::optional<MemOperand>
MemOperand::parse(std::string_view text, std::uint8_t width,
                  std::size_t *overflowAt)
{
    // One object throughout, returned in place.
    std::optional<MemOperand> out(std::in_place);
    out->width = width;
    if (!parseAddress(text, *out, overflowAt))
        out.reset();
    return out;
}

std::uint32_t
MemExprTable::intern(const MemOperand &op)
{
    return intern(op.exprKey());
}

std::uint32_t
MemExprTable::intern(std::string key)
{
    auto [it, added] = ids_.try_emplace(
        std::move(key), static_cast<std::uint32_t>(keys_.size()));
    if (added)
        keys_.push_back(it->first);
    return it->second;
}

ImmStatus
parseImmediate(std::string_view text, std::int64_t &value)
{
    std::string_view t = trim(text);
    if (t.empty() || t[0] == '%') {
        if (t.starts_with("%hi(") && t.back() == ')') {
            value = static_cast<std::int64_t>(
                symbolHash(t.substr(4, t.size() - 5)) >> 10 << 10);
            return ImmStatus::Ok;
        }
        if (t.starts_with("%lo(") && t.back() == ')') {
            value = static_cast<std::int64_t>(
                symbolHash(t.substr(4, t.size() - 5)) & 0x3ff);
            return ImmStatus::Ok;
        }
        return ImmStatus::NotImm;
    }
    return parsePlainInt(t, value);
}

std::optional<std::int64_t>
parseImmediate(std::string_view text)
{
    std::int64_t v = 0;
    if (parseImmediate(text, v) != ImmStatus::Ok)
        return std::nullopt;
    return v;
}

std::uint64_t
symbolHash(std::string_view name)
{
    // FNV-1a folded into a dedicated 64 GiB address range, 16-byte
    // aligned: disjoint from the executor's per-register regions and
    // from the stack range, so symbol-based references can never
    // collide with register-based ones at runtime (keeps the
    // disambiguation policies sound under the functional executor).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return 0x2000'0000'0000ULL | ((h & 0xffff'ffffULL) << 4);
}

} // namespace sched91
