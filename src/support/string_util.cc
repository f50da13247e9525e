#include "support/string_util.hh"

#include <algorithm>
#include <cctype>

namespace sched91
{

std::vector<std::string>
splitTrim(std::string_view s, char delim)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t next = s.find(delim, pos);
        if (next == std::string_view::npos)
            next = s.size();
        std::string_view piece = trim(s.substr(pos, next - pos));
        if (!piece.empty())
            out.emplace_back(piece);
        pos = next + 1;
    }
    return out;
}

std::vector<std::string_view>
splitOperands(std::string_view s)
{
    std::vector<std::string_view> out;
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        bool at_end = i == s.size();
        char c = at_end ? ',' : s[i];
        if (c == '[')
            ++depth;
        else if (c == ']')
            --depth;
        if (c == ',' && depth == 0) {
            std::string_view piece = trim(s.substr(start, i - start));
            if (!piece.empty())
                out.emplace_back(piece);
            start = i + 1;
        }
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

std::string
padLeft(std::string_view s, std::size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.insert(out.begin(), width - out.size(), ' ');
    return out;
}

std::string
padRight(std::string_view s, std::size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.append(width - out.size(), ' ');
    return out;
}

std::string
numbered(std::string_view prefix, std::uint64_t n)
{
    std::string out(prefix);
    out += std::to_string(n);
    return out;
}

} // namespace sched91
