#include "common/json.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <string>
#include <vector>

namespace vc::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").bool_value);
  EXPECT_FALSE(parse("false").bool_value);
  EXPECT_DOUBLE_EQ(parse("42").number_value, 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.5e2").number_value, -350.0);
  EXPECT_EQ(parse("\"hi\"").string_value, "hi");
}

TEST(Json, ParsesNestedContainers) {
  const Value v = parse(R"({"a":[1,2,{"b":"c"}],"d":{"e":false}})");
  ASSERT_TRUE(v.is_object());
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array_items[1].number_value, 2.0);
  EXPECT_EQ(a->array_items[2].at("b").string_value, "c");
  EXPECT_FALSE(v.at("d").at("e").bool_value);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Value v = parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_EQ(v.object_items.size(), 3u);
  EXPECT_EQ(v.object_items[0].first, "z");
  EXPECT_EQ(v.object_items[1].first, "a");
  EXPECT_EQ(v.object_items[2].first, "m");
}

TEST(Json, DecodesEscapes) {
  const Value v = parse(R"("q\" b\\ n\n t\t r\r f\f b\b s\/")");
  EXPECT_EQ(v.string_value, "q\" b\\ n\n t\t r\r f\f b\b s/");
}

TEST(Json, DecodesUnicodeEscapesAsUtf8) {
  EXPECT_EQ(parse("\"\\u0041\"").string_value, "A");
  EXPECT_EQ(parse("\"\\u00e9\"").string_value, "\xc3\xa9");  // é, 2-byte UTF-8
  EXPECT_EQ(parse("\"\\u20ac\"").string_value, "\xe2\x82\xac");  // €, 3-byte UTF-8
  EXPECT_EQ(parse("\"\\u0009\"").string_value, "\t");
  // Raw UTF-8 bytes pass through untouched.
  EXPECT_EQ(parse("\"\xc3\xa9\"").string_value, "\xc3\xa9");
}

TEST(Json, CombinesSurrogatePairsIntoOneCodePoint) {
  // U+1F600 (😀) = \uD83D\uDE00 → 4-byte UTF-8 F0 9F 98 80.
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").string_value, "\xf0\x9f\x98\x80");
  // U+10000, the first supplementary-plane code point.
  EXPECT_EQ(parse("\"\\uD800\\uDC00\"").string_value, "\xf0\x90\x80\x80");
  // U+10FFFF, the last one.
  EXPECT_EQ(parse("\"\\uDBFF\\uDFFF\"").string_value, "\xf4\x8f\xbf\xbf");
  // Pairs embedded in surrounding text keep their neighbours intact.
  EXPECT_EQ(parse("\"a\\uD83D\\uDE00b\"").string_value, "a\xf0\x9f\x98\x80\x62");
}

TEST(Json, ReplacesLoneSurrogatesWithReplacementCharacter) {
  const std::string fffd = "\xef\xbf\xbd";  // U+FFFD in UTF-8
  // High half at end of string, high half followed by a non-escape, and a
  // bare low half: all are unpaired — never emit ill-formed UTF-8.
  EXPECT_EQ(parse("\"\\uD83D\"").string_value, fffd);
  EXPECT_EQ(parse("\"\\uD83Dx\"").string_value, fffd + "x");
  EXPECT_EQ(parse("\"\\uDE00\"").string_value, fffd);
  // High half followed by an escaped non-surrogate: the second escape still
  // decodes on its own.
  EXPECT_EQ(parse("\"\\uD83D\\u0041\"").string_value, fffd + "A");
  // Two high halves in a row: first is lone, second pairs with the low half.
  EXPECT_EQ(parse("\"\\uD83D\\uD83D\\uDE00\"").string_value, fffd + "\xf0\x9f\x98\x80");
}

TEST(Json, FormatNumberMatchesPrintfInCLocale) {
  // format_number must stay byte-identical to the snprintf("%.17g") the
  // report writers used before — existing goldens depend on those bytes.
  const std::vector<double> values = {0.0,    1.0,     -1.0,       42.0,   0.1,
                                      1.5,    -3.25e7, 1e-9,       2.5e17, 1234.5678,
                                      1.0 / 3.0, 6.02e23, -7.25e-12, 1e300};
  char buf[512];  // %.3f of 1e300 runs ~305 digits
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    EXPECT_EQ(format_number(v), buf) << "v=" << v;
    std::snprintf(buf, sizeof buf, "%.9g", v);
    EXPECT_EQ(format_number(v, 9), buf) << "v=" << v;
    std::snprintf(buf, sizeof buf, "%.3f", v);
    EXPECT_EQ(format_fixed(v, 3), buf) << "v=" << v;
  }
}

TEST(Json, NumbersRoundTripUnderCommaDecimalLocale) {
  // strtod/printf honour LC_NUMERIC; std::from_chars/std::to_chars must not.
  // Flip the process into a de_DE-style locale (decimal comma) and prove the
  // parse → format → parse loop is unchanged. Skips when the container has
  // no such locale installed.
  const char* const candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                    "fr_FR.UTF-8", "fr_FR.utf8", "it_IT.UTF-8"};
  const char* active = nullptr;
  for (const char* c : candidates) {
    if (std::setlocale(LC_NUMERIC, c) != nullptr) {
      active = c;
      break;
    }
  }
  if (active == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  struct Restore {
    ~Restore() { std::setlocale(LC_NUMERIC, "C"); }
  } restore;
  // Sanity: the locale really uses a comma (else this test proves nothing).
  char probe[32];
  std::snprintf(probe, sizeof probe, "%.1f", 1.5);
  ASSERT_STREQ(probe, "1,5") << "locale " << active << " does not use a decimal comma";

  EXPECT_DOUBLE_EQ(parse("1.5").number_value, 1.5);
  EXPECT_DOUBLE_EQ(parse("-3.5e2").number_value, -350.0);
  EXPECT_DOUBLE_EQ(parse("[0.25]").array_items[0].number_value, 0.25);
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(format_number(1234.5678), "1234.5678000000001");
  EXPECT_EQ(format_fixed(0.125, 3), "0.125");
  // Full loop: rendered text re-parses to the same bits.
  for (const double v : {0.1, 1.5, -3.25e7, 1.0 / 3.0}) {
    EXPECT_DOUBLE_EQ(parse(format_number(v)).number_value, v);
  }
}

TEST(Json, FindReturnsNullForMissingKeys) {
  const Value v = parse(R"({"present":1})");
  EXPECT_NE(v.find("present"), nullptr);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW(v.at("absent"), std::exception);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse("1 trailing"), std::runtime_error);
  EXPECT_THROW(parse("nul"), std::runtime_error);
}

// RFC 8259 §7: U+0000..U+001F must be escaped inside strings; raw, they are
// a parse error, whether in a value or in an object key. DEL and bytes >= 0x80
// are not control characters in that sense and pass through.
TEST(Json, RejectsRawControlCharactersInStrings) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string raw(1, static_cast<char>(c));
    EXPECT_THROW(parse("\"a" + raw + "b\""), std::runtime_error) << c;
    EXPECT_THROW(parse("{\"k" + raw + "\":1}"), std::runtime_error) << c;
  }
  try {
    parse("[\"ok\",\"tab\there\"]");
    ADD_FAILURE() << "raw tab accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("at byte 11: unescaped control character"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse("\"\x7f\"").string_value, "\x7f");
  EXPECT_EQ(parse("\"tab\\there\"").string_value, "tab\there");
}

TEST(Json, AcceptsWhitespaceEverywhere) {
  const Value v = parse(" {\n\t\"a\" :\t[ 1 , 2 ] \r\n} ");
  EXPECT_EQ(v.at("a").array_items.size(), 2u);
}

}  // namespace
}  // namespace vc::json
