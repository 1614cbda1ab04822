#include "support/strings.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace rafda {
namespace {

TEST(Strings, SplitKeepsEmptyPieces) {
    EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWsDropsEmptyPieces) {
    EXPECT_EQ(split_ws("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(split_ws("   ").empty());
    EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, Join) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"solo"}, ", "), "solo");
}

TEST(Strings, Trim) {
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(starts_with("X_O_Int", "X_"));
    EXPECT_FALSE(starts_with("X", "X_"));
    EXPECT_TRUE(ends_with("X_O_Int", "_Int"));
    EXPECT_FALSE(ends_with("Int", "_Int"));
}

TEST(Strings, XmlEscapeRoundTrip) {
    const std::string nasty = R"(a<b>&"c"&amp;)";
    EXPECT_EQ(xml_unescape(xml_escape(nasty)), nasty);
}

TEST(Strings, XmlEscapeProducesEntities) {
    EXPECT_EQ(xml_escape("<a & \"b\">"), "&lt;a &amp; &quot;b&quot;&gt;");
}

TEST(Strings, XmlUnescapeRejectsMalformed) {
    EXPECT_THROW(xml_unescape("&bogus;"), CodecError);
    EXPECT_THROW(xml_unescape("&amp"), CodecError);
}

TEST(Strings, XmlEscapeRoundTripsEveryByte) {
    std::string all;
    for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
    const std::string escaped = xml_escape(all);
    EXPECT_EQ(escaped.size(), all.size() + 4 + 3 + 3 + 5);  // & < > "
    EXPECT_EQ(xml_unescape(escaped), all);
    for (int c = 0; c < 256; ++c) {
        const std::string one(1, static_cast<char>(c));
        EXPECT_EQ(xml_unescape(xml_escape(one)), one) << c;
    }
}

TEST(Strings, XmlEntitiesAtTheEdgesAndAdjacent) {
    EXPECT_EQ(xml_escape("<x>"), "&lt;x&gt;");
    EXPECT_EQ(xml_escape("&&\"\"<>"), "&amp;&amp;&quot;&quot;&lt;&gt;");
    EXPECT_EQ(xml_escape(""), "");
    EXPECT_EQ(xml_unescape("&lt;x&gt;"), "<x>");
    EXPECT_EQ(xml_unescape("&amp;&lt;&gt;&quot;"), "&<>\"");
    EXPECT_EQ(xml_unescape("&quot;"), "\"");
    EXPECT_EQ(xml_unescape(""), "");
}

TEST(Strings, XmlUnescapeDecodesOneLevel) {
    EXPECT_EQ(xml_unescape("&amp;amp;"), "&amp;");
    EXPECT_EQ(xml_unescape("&amp;lt;&amp;"), "&lt;&");
}

TEST(Strings, XmlUnescapeRejectsUnterminatedAndUnknownEntities) {
    for (const char* bad : {"&", "x&", "&lt", "a&gt b", "&;", "&AMP;", "&apos;", "&#38;",
                            "&amp ;", "&ampx;", "ok&lt;&bogus;", "&lt;&"})
        EXPECT_THROW(xml_unescape(bad), CodecError) << bad;
}

TEST(Strings, XmlEscapeEmitsRunsWhole) {
    std::vector<std::string> pieces;
    xml_escape("ab<cd&&e", [&](std::string_view p) { pieces.emplace_back(p); });
    EXPECT_EQ(pieces, (std::vector<std::string>{"ab", "&lt;", "cd", "&amp;", "&amp;", "e"}));
    pieces.clear();
    xml_escape("plain", [&](std::string_view p) { pieces.emplace_back(p); });
    EXPECT_EQ(pieces, (std::vector<std::string>{"plain"}));
}

TEST(Strings, XmlUnescapeAppends) {
    std::string out = "kept:";
    xml_unescape("a&lt;b", out);
    EXPECT_EQ(out, "kept:a<b");
}

}  // namespace
}  // namespace rafda
