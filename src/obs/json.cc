#include "obs/json.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json_scan.hh"
#include "support/logging.hh"

namespace sched91::obs
{

namespace
{

/** Append @p s to @p out, escaped for a JSON string literal: each run
 * of bytes that need no escape goes in with one append, and eight
 * plain bytes are skipped at a time. */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const auto special = [](std::uint64_t w) {
        return detail::hasControl(w) | detail::hasByte(w, '"') |
               detail::hasByte(w, '\\');
    };
    std::size_t run = 0;
    std::size_t i = 0;
    while (true) {
        i = detail::skipPlainWords(s, i, special);
        if (i >= s.size())
            break;
        // Byte by byte through the flagged word (or the short tail).
        for (const std::size_t end = std::min(i + 8, s.size()); i < end;
             ++i) {
            const auto c = static_cast<unsigned char>(s[i]);
            if (c >= 0x20 && c != '"' && c != '\\')
                continue;
            out.append(s.data() + run, i - run);
            run = i + 1;
            switch (c) {
              case '"': out += "\\\""; break;
              case '\\': out += "\\\\"; break;
              case '\b': out += "\\b"; break;
              case '\f': out += "\\f"; break;
              case '\n': out += "\\n"; break;
              case '\r': out += "\\r"; break;
              case '\t': out += "\\t"; break;
              default: {
                const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                    kHex[c & 0xf]};
                out.append(esc, sizeof esc);
              }
            }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

void
JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasElement_.empty()) {
        if (hasElement_.back())
            out_ += ',';
        hasElement_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ += '{';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    SCHED91_ASSERT(!hasElement_.empty() && !pendingKey_,
                   "misnested endObject");
    out_ += '}';
    hasElement_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ += '[';
    hasElement_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    SCHED91_ASSERT(!hasElement_.empty() && !pendingKey_,
                   "misnested endArray");
    out_ += ']';
    hasElement_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    SCHED91_ASSERT(!hasElement_.empty() && !pendingKey_,
                   "key outside object");
    if (hasElement_.back())
        out_ += ',';
    hasElement_.back() = true;
    out_ += '"';
    appendEscaped(out_, k);
    out_ += "\":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    beforeValue();
    out_ += '"';
    appendEscaped(out_, s);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double d)
{
    beforeValue();
    if (!std::isfinite(d)) {
        out_ += "null";
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", d);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    beforeValue();
    out_ += b ? "true" : "false";
    return *this;
}

std::string
JsonWriter::take()
{
    SCHED91_ASSERT(hasElement_.empty() && !pendingKey_,
                   "unterminated JSON document");
    std::string out = std::move(out_);
    out_.clear();
    return out;
}

} // namespace sched91::obs
