/**
 * @file
 * Memory operands and symbolic memory expressions.
 *
 * Table 3 of the paper counts "unique memory expressions ... the number
 * of different symbolic memory address expressions found in the SPARC
 * assembly language code".  A MemOperand records the parsed address
 * expression (base register, optional index register or constant
 * offset, optional symbol); MemExprTable interns normalized expressions
 * so the DAG builders and statistics can refer to them by id.
 *
 * Because "two memory references [that] use the same base register but
 * different offsets cannot refer to the same location" only holds while
 * the base register value is unchanged, each memory reference also
 * carries a generation stamp of its base and index registers at the
 * point of the reference: how many instructions before it in its
 * Program defined them, stamped as its instruction joins the Program
 * (Program::commit).  The memory disambiguator refuses to prove
 * independence across generations.
 */

#ifndef SCHED91_IR_OPERAND_HH
#define SCHED91_IR_OPERAND_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/resource.hh"

namespace sched91
{

/** Storage class of a memory expression (paper Section 2, Warren). */
enum class StorageClass : std::uint8_t {
    Unknown,  ///< register-based with an unclassified base
    Stack,    ///< %sp / %fp based
    Static,   ///< symbol based (data segment)
};

/** A parsed memory address expression. */
struct MemOperand
{
    static constexpr std::uint32_t kNoExpr = ~std::uint32_t{0};

    int base = -1;          ///< int register index of base, or -1
    int index = -1;         ///< int register index of index reg, or -1
    std::int64_t offset = 0;///< constant displacement
    std::string symbol;     ///< symbolic address ("sym"), may be empty
    std::uint8_t width = 4; ///< access width in bytes

    std::uint32_t exprId = kNoExpr; ///< interned expression id
    /** Definitions of the base register before this reference in its
     * Program (Program::commit); 0 without a base. */
    std::uint32_t baseGen = 0;
    std::uint32_t indexGen = 0;     ///< the same for the index register

    /** Storage class inferred from the address shape. */
    StorageClass storageClass() const;

    /** Normalized key used for interning ("%o0+8", "sym+4", ...). */
    std::string exprKey() const;

    /** Assembly rendering ("[%o0+8]"). */
    std::string toString() const;

    /**
     * Parse "[...]" address syntax.  Returns std::nullopt on malformed
     * input.  Accepted shapes: [%r], [%r+imm], [%r-imm], [%r1+%r2],
     * [sym], [sym+imm], [%lo(sym)+%r].  A literal offset that does
     * not fit in 64 bits, alone or summed with the literals before
     * it, is malformed too; @p overflowAt (when non-null) then
     * receives that literal's offset within @p text.
     */
    static std::optional<MemOperand> parse(std::string_view text,
                                           std::uint8_t width,
                                           std::size_t *overflowAt =
                                               nullptr);

    /**
     * parse() of a token with no whitespace at either end, into
     * @p out, whose width the caller sets.  Returns false when
     * malformed, leaving @p out partly filled; @p overflowAt is then
     * relative to @p token.
     */
    static bool parseToken(std::string_view token, MemOperand &out,
                           std::size_t *overflowAt = nullptr);
};

/**
 * Interner mapping memory expressions to dense ids, in order of first
 * appearance.  An operand is keyed by value, on the fields its key
 * (MemOperand::exprKey()) is made of: the symbol, the base and index
 * registers and the offset, hashed into an open-addressed array of
 * ids.  No key string is built to look one up; key(id) is rendered
 * once, when the id is made.
 *
 * Two operands share an id exactly when their keys are equal.  Fields
 * and keys match one to one except where a symbol could read as other
 * pieces of a key: "%g1" from [%lo(%g1)] renders as a %g1 base.  Such
 * an operand is keyed on the fields its key reads back as, or, if none
 * render to it, on the key itself.
 */
class MemExprTable
{
  public:
    /** Intern @p op's expression; returns the id. */
    std::uint32_t intern(const MemOperand &op);

    /**
     * Intern @p other's expressions here in its id order.  Element i
     * of the result is the id here of its id i.
     */
    std::vector<std::uint32_t> merge(const MemExprTable &other);

    /** Number of distinct expressions seen. */
    std::size_t size() const { return keys_.size(); }

    /** Key string for an id. */
    const std::string &key(std::uint32_t id) const { return keys_[id]; }

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** base and index of an expression keyed on its key alone. */
    static constexpr int kKeyOnly = -2;

    /** What an id is keyed on; the symbol is a view. */
    struct Fields
    {
        std::string_view symbol;
        std::int64_t offset = 0;
        int base = -1;
        int index = -1;
    };

    /** An id's fields but the symbol, the first symbolSize bytes of
     * its key. */
    struct Entry
    {
        std::int64_t offset;
        std::int8_t base;
        std::int8_t index;
        std::uint32_t symbolSize;
    };

    /** The fields with no symbol or a plain one that render to
     * @p key; false if none do. */
    static bool readKey(std::string_view key, Fields &f);

    static std::uint32_t hash(const Fields &f);

    /** The id of @p f; absent, a new one whose key is @p key, or
     * rendered from @p f when null. */
    std::uint32_t find(const Fields &f, const std::string *key);

    void grow();

    /** A power of two, at most half full: each slot kEmpty or a key's
     * hash in the high half and its id in the low. */
    std::vector<std::uint64_t> slots_;
    std::vector<Entry> entries_;
    std::vector<std::string> keys_;
};

/** What parseImmediate() found in its text. */
enum class ImmStatus : std::uint8_t {
    Ok,         ///< an immediate; the value is set
    NotImm,     ///< not an immediate (a register, say)
    OutOfRange, ///< an integer literal that does not fit in 64 bits
};

/**
 * Parse an immediate operand: an integer literal as strtoll() reads
 * one with base 0 (optional sign, then decimal, 0x hex or 0-prefixed
 * octal, the whole text), %hi(sym) or %lo(sym).  Symbols hash to a
 * deterministic value so the functional executor produces stable
 * addresses.  @p value is set only on ImmStatus::Ok.
 */
ImmStatus parseImmediate(std::string_view text, std::int64_t &value);

/** parseImmediate() of a token with no whitespace at either end. */
ImmStatus parseImmediateToken(std::string_view token, std::int64_t &value);

/** The immediate's value, or std::nullopt when @p text is not an
 * immediate that fits in 64 bits. */
std::optional<std::int64_t> parseImmediate(std::string_view text);

/** Deterministic 64-bit hash of a symbol name (for executor addresses). */
std::uint64_t symbolHash(std::string_view name);

} // namespace sched91

#endif // SCHED91_IR_OPERAND_HH
