/**
 * @file
 * Minimal streaming JSON writer for the structured emitters.  No
 * external dependency: the output side of the observability layer
 * needs only object/array nesting, correct string escaping, and
 * locale-independent number formatting, all of which fit in a page
 * of code.
 */

#ifndef SCHED91_OBS_JSON_HH
#define SCHED91_OBS_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sched91::obs
{

/** Escape @p s for use inside a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

/**
 * Compact JSON builder with automatic comma placement.  Usage:
 *
 *     JsonWriter w;
 *     w.beginObject().key("n").value(3).key("xs").beginArray()
 *      .value(1.5).endArray().endObject();
 *     std::string text = w.take();
 *
 * Misnested begin/end calls panic.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object key; must be followed by a value or a begin*(). */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(double d);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(long long v)
    {
        return value(static_cast<std::int64_t>(v));
    }
    JsonWriter &value(unsigned long long v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(bool b);

    /** Room for a document of about @p bytes, so a long one is
     * written without regrowing its buffer. */
    void reserve(std::size_t bytes) { out_.reserve(bytes); }

    /** The finished document (writer resets to empty). */
    std::string take();

  private:
    void beforeValue();

    std::string out_;
    std::vector<bool> hasElement_; ///< per open scope
    bool pendingKey_ = false;
};

} // namespace sched91::obs

#endif // SCHED91_OBS_JSON_HH
