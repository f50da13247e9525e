#include "obs/json_parse.hh"

#include <cctype>
#include <cstdlib>

#include "obs/json_scan.hh"
#include "support/logging.hh"

namespace sched91::obs
{

double
JsonValue::numberOr(const std::string &k, double fallback) const
{
    if (!has(k) || !at(k).isNumber())
        return fallback;
    return at(k).number();
}

std::string
JsonValue::strOr(const std::string &k, const std::string &fallback) const
{
    if (!has(k) || !at(k).isString())
        return fallback;
    return at(k).str();
}

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        fatal("malformed JSON at offset ", pos_, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return JsonValue{parseString()};
        case 't':
            if (!literal("true"))
                fail("bad literal");
            return JsonValue{true};
        case 'f':
            if (!literal("false"))
                fail("bad literal");
            return JsonValue{false};
        case 'n':
            if (!literal("null"))
                fail("bad literal");
            return JsonValue{nullptr};
        default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue::Object obj;
        if (peek() != '}') {
            while (true) {
                std::string key = parseString();
                expect(':');
                obj.insert_or_assign(std::move(key), parseValue());
                if (peek() != ',')
                    break;
                ++pos_;
            }
        }
        expect('}');
        return JsonValue{std::move(obj)};
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue::Array arr;
        if (peek() != ']') {
            while (true) {
                arr.push_back(parseValue());
                if (peek() != ',')
                    break;
                ++pos_;
            }
        }
        expect(']');
        return JsonValue{std::move(arr)};
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            // The run up to the next quote or backslash, in one append.
            std::size_t run = detail::skipPlainWords(
                text_, pos_, [](std::uint64_t w) {
                    return detail::hasByte(w, '"') |
                           detail::hasByte(w, '\\');
                });
            while (run < text_.size() && text_[run] != '"' &&
                   text_[run] != '\\')
                ++run;
            out.append(text_.data() + pos_, run - pos_);
            pos_ = run;
            if (pos_ >= text_.size())
                fail("unterminated string");
            if (text_[pos_++] == '"')
                return out;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u':
                appendUtf8(out, parseCodePoint());
                break;
            default:
                fail("unknown escape");
            }
        }
    }

    /** The four hex digits after a `\u`. */
    unsigned
    parseHex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a') + 10;
            else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A') + 10;
            else
                fail("bad \\u escape");
        }
        return code;
    }

    /** The code point of a `\u` escape, its `\u` just read: a high
     * surrogate must be followed by a `\u` escape of a low one. */
    unsigned
    parseCodePoint()
    {
        const unsigned code = parseHex4();
        if (code >= 0xdc00 && code <= 0xdfff)
            fail("lone surrogate in \\u escape");
        if (code < 0xd800 || code > 0xdbff)
            return code;
        if (text_.substr(pos_, 2) != "\\u")
            fail("lone surrogate in \\u escape");
        pos_ += 2;
        const unsigned low = parseHex4();
        if (low < 0xdc00 || low > 0xdfff)
            fail("lone surrogate in \\u escape");
        return 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
    }

    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
            return;
        }
        char bytes[4];
        std::size_t n = 0;
        if (code < 0x800) {
            bytes[n++] = static_cast<char>(0xc0 | (code >> 6));
        } else if (code < 0x10000) {
            bytes[n++] = static_cast<char>(0xe0 | (code >> 12));
            bytes[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        } else {
            bytes[n++] = static_cast<char>(0xf0 | (code >> 18));
            bytes[n++] = static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            bytes[n++] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        }
        bytes[n++] = static_cast<char>(0x80 | (code & 0x3f));
        out.append(bytes, n);
    }

    JsonValue
    parseNumber()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        std::string num(text_.substr(start, pos_ - start));
        char *end = nullptr;
        double d = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            fail("bad number");
        return JsonValue{d};
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

} // namespace sched91::obs
