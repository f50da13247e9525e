#include "ir/operand.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstring>

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

/** MemOperand::exprKey() of these fields. */
std::string
renderKey(std::string_view symbol, int base, int index, std::int64_t offset)
{
    std::string key(symbol);
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

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** The first register of bank letter @p c ('g', 'o', 'l' or 'i'), or
 * -1. */
int
bankBase(char c)
{
    static constexpr std::array<std::int8_t, 128> kBase = [] {
        std::array<std::int8_t, 128> t{};
        t.fill(-1);
        t['g'] = 0;
        t['o'] = 8;
        t['l'] = 16;
        t['i'] = 24;
        return t;
    }();
    const auto u = static_cast<unsigned char>(c);
    return u < kBase.size() ? kBase[u] : -1;
}

/** Read "%g0".."%i7" at @p c, advancing it; false, leaving it, if
 * none is there. */
bool
readIntReg(const char *&c, const char *e, int &reg)
{
    if (e - c < 3 || c[0] != '%' || c[2] < '0' || c[2] > '7')
        return false;
    const int base = bankBase(c[1]);
    if (base < 0)
        return false;
    reg = base + (c[2] - '0');
    c += 3;
    return true;
}

/** Skip blanks at @p c. */
void
skipBlanks(const char *&c, const char *e)
{
    while (c != e && (*c == ' ' || *c == '\t'))
        ++c;
}

/**
 * The usual address shapes, read straight: the inside @p t (trimmed)
 * of "[%o0]", "[%o0 + 8]", "[%o0-8]" or "[%o0 + %o1]", with %g, %o,
 * %l or %i registers and a decimal offset (no leading 0) of at most
 * 18 digits.  Fills @p out as the general reading would; false,
 * leaving it as it was, for any other address.
 */
bool
readCommonAddress(std::string_view t, MemOperand &out)
{
    const char *c = t.data();
    const char *const e = c + t.size();
    int base = 0;
    if (!readIntReg(c, e, base))
        return false;
    skipBlanks(c, e);
    int index = -1;
    std::int64_t offset = 0;
    if (c != e) {
        // A '-' belongs to its number: "- 8" is no address.
        const bool minus = *c == '-';
        if (*c != '+' && !minus)
            return false;
        ++c;
        if (!minus)
            skipBlanks(c, e);
        if (minus || !readIntReg(c, e, index)) {
            const char *const digits = c;
            if (c == e || *c < '1' || *c > '9')
                return false;
            std::uint64_t value = 0;
            for (; c != e && *c >= '0' && *c <= '9'; ++c)
                value = value * 10 + static_cast<unsigned>(*c - '0');
            if (c - digits > 18)
                return false;
            offset = minus ? -static_cast<std::int64_t>(value)
                           : static_cast<std::int64_t>(value);
        }
        skipBlanks(c, e);
        if (c != e)
            return false;
    }
    out.base = base;
    out.index = index;
    out.offset = offset;
    return true;
}

/**
 * A symbol that no key's other pieces can run into: it starts with no
 * digit and holds no '%', '+' or '-'.  Keys of such symbols (or none)
 * are equal exactly when their fields are, once a lone register after
 * a symbol counts as the base.
 */
bool
plainSymbol(std::string_view symbol)
{
    if (isDigit(symbol[0]))
        return false;
    for (const char c : symbol)
        if (c == '%' || c == '+' || c == '-')
            return false;
    return true;
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
    return renderKey(symbol, base, index, offset);
}

std::string
MemOperand::toString() const
{
    std::string out = "[";
    out += exprKey();
    out += ']';
    return out;
}

bool
MemOperand::parseToken(std::string_view token, MemOperand &out,
                       std::size_t *overflowAt)
{
    if (token.size() < 3 || token.front() != '[' || token.back() != ']')
        return false;
    std::string_view t = trim(token.substr(1, token.size() - 2));
    if (t.empty())
        return false;
    if (readCommonAddress(t, out))
        return true;

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
                    static_cast<std::size_t>(piece.data() - token.data());
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

std::optional<MemOperand>
MemOperand::parse(std::string_view text, std::uint8_t width,
                  std::size_t *overflowAt)
{
    // One object throughout, returned in place.
    std::optional<MemOperand> out(std::in_place);
    out->width = width;
    const std::string_view token = trim(text);
    std::size_t at = std::string_view::npos;
    if (!parseToken(token, *out, &at)) {
        if (overflowAt && at != std::string_view::npos)
            *overflowAt =
                at + static_cast<std::size_t>(token.data() - text.data());
        out.reset();
    }
    return out;
}

bool
MemExprTable::readKey(std::string_view key, Fields &f)
{
    // Read loosely, then keep only fields that render to exactly the
    // key.
    f = Fields();
    std::size_t n = 0;
    while (n < key.size() && key[n] != '%' && key[n] != '+' &&
           key[n] != '-')
        ++n;
    if (n != 0 && !isDigit(key[0]))
        f.symbol = key.substr(0, n);
    std::string_view rest = key.substr(f.symbol.size());

    int regs[2] = {-1, -1};
    int count = 0;
    bool index_only = false; // "+%g1" with no symbol: no base
    for (; count < 2; ++count) {
        const std::size_t at = rest.starts_with("+%") ? 1 : 0;
        const char *c = rest.data() + at;
        if (!readIntReg(c, rest.data() + rest.size(), regs[count]))
            break;
        index_only = index_only || (count == 0 && at == 1 && f.symbol.empty());
        rest.remove_prefix(at + 3);
    }
    if (!rest.empty()) {
        if (rest[0] == '+')
            rest.remove_prefix(1);
        const auto [stop, ec] =
            std::from_chars(rest.data(), rest.data() + rest.size(), f.offset);
        if (ec != std::errc{} || stop != rest.data() + rest.size())
            return false;
    }
    if (index_only) {
        if (count != 1)
            return false;
        f.index = regs[0];
    } else {
        f.base = count > 0 ? regs[0] : -1;
        f.index = count > 1 ? regs[1] : -1;
    }
    return renderKey(f.symbol, f.base, f.index, f.offset) == key;
}

std::uint32_t
MemExprTable::hash(const Fields &f)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    auto mix = [](std::uint64_t h, std::uint64_t word) {
        h = (h ^ word) * kMul;
        return h ^ (h >> 29);
    };
    // The symbol eight bytes at a time, then the rest.
    std::uint64_t h = 0;
    std::string_view s = f.symbol;
    for (; s.size() >= 8; s.remove_prefix(8)) {
        std::uint64_t word;
        std::memcpy(&word, s.data(), 8);
        h = mix(h, word);
    }
    std::uint64_t tail = s.size();
    for (std::size_t i = 0; i < s.size(); ++i)
        tail |= std::uint64_t{static_cast<unsigned char>(s[i])}
                << (8 * i + 8);
    h = mix(h, tail);
    h = mix(h, static_cast<std::uint64_t>(f.offset));
    h = mix(h, static_cast<std::uint8_t>(f.base) |
                   std::uint64_t{static_cast<std::uint8_t>(f.index)} << 8);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::uint32_t
MemExprTable::find(const Fields &f, const std::string *key)
{
    if ((keys_.size() + 1) * 2 > slots_.size())
        grow();
    const std::uint32_t h = hash(f);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const std::uint64_t slot = slots_[i];
        if (slot == kEmpty) {
            const auto id = static_cast<std::uint32_t>(keys_.size());
            keys_.push_back(key != nullptr ? *key
                                           : renderKey(f.symbol, f.base,
                                                       f.index, f.offset));
            entries_.push_back({f.offset, static_cast<std::int8_t>(f.base),
                                static_cast<std::int8_t>(f.index),
                                static_cast<std::uint32_t>(f.symbol.size())});
            slots_[i] = std::uint64_t{h} << 32 | id;
            return id;
        }
        const auto id = static_cast<std::uint32_t>(slot);
        const Entry &e = entries_[id];
        if (slot >> 32 == h && e.offset == f.offset && e.base == f.base &&
            e.index == f.index && e.symbolSize == f.symbol.size() &&
            (f.symbol.empty() || keys_[id].starts_with(f.symbol)))
            return id;
    }
}

void
MemExprTable::grow()
{
    std::vector<std::uint64_t> old(std::max<std::size_t>(64, 2 * slots_.size()),
                                   kEmpty);
    old.swap(slots_);
    keys_.reserve(slots_.size() / 2);
    entries_.reserve(slots_.size() / 2);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t slot : old) {
        if (slot == kEmpty)
            continue;
        std::size_t i = (slot >> 32) & mask;
        while (slots_[i] != kEmpty)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

std::uint32_t
MemExprTable::intern(const MemOperand &op)
{
    Fields f{op.symbol, op.offset, op.base, op.index};
    if (f.symbol.empty())
        return find(f, nullptr);
    if (plainSymbol(f.symbol)) {
        // After a symbol a lone register renders alike as base or
        // index ("sym+%g1"): it is keyed as the base.
        if (f.base < 0)
            std::swap(f.base, f.index);
        return find(f, nullptr);
    }
    // A symbol whose key may read as other fields' ("%g1" from
    // [%lo(%g1)] renders as a %g1 base): keyed as those fields if
    // there are any, else as the key itself.
    const std::string key = op.exprKey();
    if (Fields plain; readKey(key, plain))
        return find(plain, nullptr);
    return find(Fields{key, 0, kKeyOnly, kKeyOnly}, &key);
}

std::vector<std::uint32_t>
MemExprTable::merge(const MemExprTable &other)
{
    // Room for every expression of both, so the merge does not grow
    // the table on the way.
    while ((keys_.size() + other.size() + 1) * 2 > slots_.size())
        grow();
    std::vector<std::uint32_t> ids(other.size());
    for (std::uint32_t id = 0; id < ids.size(); ++id) {
        const Entry &e = other.entries_[id];
        const std::string &key = other.keys_[id];
        ids[id] = find(Fields{std::string_view(key).substr(0, e.symbolSize),
                              e.offset, e.base, e.index},
                       &key);
    }
    return ids;
}

ImmStatus
parseImmediate(std::string_view text, std::int64_t &value)
{
    return parseImmediateToken(trim(text), value);
}

ImmStatus
parseImmediateToken(std::string_view t, std::int64_t &value)
{
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
