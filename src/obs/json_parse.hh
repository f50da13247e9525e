/**
 * @file
 * Minimal JSON reader — the input-side complement of obs/json.hh,
 * sized for consuming this repository's own emitters (stats-JSON,
 * BENCH_*.json records, Chrome traces) and the daemon's requests:
 * objects, arrays, strings, numbers as doubles, booleans, null.
 * Every \uXXXX escape decodes to UTF-8, a surrogate pair to one
 * four-byte sequence, so a client whose encoder escapes non-ASCII
 * (Python's json.dumps) can send any source; a lone surrogate is
 * malformed.  Not a general-purpose parser: no duplicate-key policy
 * beyond last-wins, numbers limited to double precision.
 *
 * Malformed input throws FatalError with a character offset, so tools
 * built on this (tools/bench_compare.cc) report bad files cleanly
 * under the exit-code contract instead of asserting.
 */

#ifndef SCHED91_OBS_JSON_PARSE_HH
#define SCHED91_OBS_JSON_PARSE_HH

#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace sched91::obs
{

/** One parsed JSON value (recursive). */
class JsonValue
{
  public:
    using Object = std::map<std::string, JsonValue>;
    using Array = std::vector<JsonValue>;

    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        v;

    bool isObject() const { return std::holds_alternative<Object>(v); }
    bool isArray() const { return std::holds_alternative<Array>(v); }
    bool isNumber() const { return std::holds_alternative<double>(v); }
    bool isString() const
    {
        return std::holds_alternative<std::string>(v);
    }

    const Object &object() const { return std::get<Object>(v); }
    const Array &array() const { return std::get<Array>(v); }
    double number() const { return std::get<double>(v); }
    bool boolean() const { return std::get<bool>(v); }
    const std::string &str() const { return std::get<std::string>(v); }

    bool
    has(const std::string &k) const
    {
        return isObject() && object().count(k) > 0;
    }

    /** Member access; throws std::out_of_range when absent. */
    const JsonValue &at(const std::string &k) const
    {
        return object().at(k);
    }

    /** Number by key with a default for absent/non-numeric members. */
    double numberOr(const std::string &k, double fallback) const;

    /** String by key with a default for absent/non-string members. */
    std::string strOr(const std::string &k,
                      const std::string &fallback) const;
};

/** Parse one JSON document; throws FatalError on malformed input or
 * trailing garbage. */
JsonValue parseJson(std::string_view text);

} // namespace sched91::obs

#endif // SCHED91_OBS_JSON_PARSE_HH
