// Small string helpers used across the RAFDA libraries.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rafda {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on runs of whitespace, dropping empty pieces.
std::vector<std::string> split_ws(std::string_view s);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading and trailing whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Length of the leading run of `s` that XML escaping leaves as is: the
/// bytes before the first &, <, > or ".  One table lookup per byte.
std::size_t xml_plain_run(std::string_view s);

/// The entity that replaces `c`, one of &, <, > or ".
std::string_view xml_entity(char c);

/// Escapes &, <, >, " for embedding in SOAPX documents, handing the result
/// to `emit` (called with std::string_view pieces) in order: each run of
/// unchanged bytes as one piece, each entity as another.  A caller appends
/// the pieces straight to its output, so every byte is written once.
template <typename Emit>
void xml_escape(std::string_view s, Emit&& emit) {
    while (true) {
        const std::size_t run = xml_plain_run(s);
        if (run != 0) emit(s.substr(0, run));
        if (run == s.size()) return;
        emit(xml_entity(s[run]));
        s.remove_prefix(run + 1);
    }
}

/// xml_escape into a new string.
std::string xml_escape(std::string_view s);

/// Appends the inverse of xml_escape to `out`, copying the runs between
/// entities whole; throws CodecError on malformed entities.
void xml_unescape(std::string_view s, std::string& out);

/// xml_unescape into a new string.
std::string xml_unescape(std::string_view s);

}  // namespace rafda
