#include "support/strings.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <iterator>
#include <utility>

#include "support/error.hpp"

namespace rafda {

std::vector<std::string> split(std::string_view s, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            return out;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string> split_ws(std::string_view s) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
        std::size_t start = i;
        while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
        if (i > start) out.emplace_back(s.substr(start, i - start));
    }
    return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i) out += sep;
        out += parts[i];
    }
    return out;
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
    return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::size_t xml_plain_run(std::string_view s) {
    static constexpr auto kSpecial = [] {
        std::array<bool, 256> t{};
        t['&'] = t['<'] = t['>'] = t['"'] = true;
        return t;
    }();
    std::size_t n = 0;
    while (n < s.size() && !kSpecial[static_cast<unsigned char>(s[n])]) ++n;
    return n;
}

std::string_view xml_entity(char c) {
    switch (c) {
        case '&': return "&amp;";
        case '<': return "&lt;";
        case '>': return "&gt;";
        default: return "&quot;";
    }
}

std::string xml_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    xml_escape(s, [&out](std::string_view piece) { out += piece; });
    return out;
}

void xml_unescape(std::string_view s, std::string& out) {
    static constexpr std::pair<std::string_view, char> kEntities[] = {
        {"amp;", '&'}, {"lt;", '<'}, {"gt;", '>'}, {"quot;", '"'}};
    out.reserve(out.size() + s.size());
    while (true) {
        const std::size_t amp = s.find('&');
        out.append(s.substr(0, amp));
        if (amp == std::string_view::npos) return;
        s.remove_prefix(amp + 1);
        const auto* e = std::find_if(std::begin(kEntities), std::end(kEntities),
                                     [s](const auto& e) { return starts_with(s, e.first); });
        if (e == std::end(kEntities)) {
            const std::size_t semi = s.find(';');
            if (semi == std::string_view::npos) throw CodecError("unterminated XML entity");
            throw CodecError("unknown XML entity: " + std::string(s.substr(0, semi)));
        }
        out += e->second;
        s.remove_prefix(e->first.size());
    }
}

std::string xml_unescape(std::string_view s) {
    std::string out;
    xml_unescape(s, out);
    return out;
}

}  // namespace rafda
