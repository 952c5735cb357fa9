// The shared JSON codec (common/json.hpp): the strict reader against a
// conformance table of malformed documents, exact decoding of accepted
// ones, and the writers against expected bytes.  Expectations are
// hand-written literals, never the codec's own output, so a writer bug and
// a matching reader bug cannot cancel out.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace gv {
namespace {

using Type = JsonValue::Type;

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(parse_json(text, &v, &err)) << text << ": " << err;
  return v;
}

TEST(JsonReader, RejectsMalformedDocumentsWithAnOffset) {
  const std::vector<std::string> malformed = {
      // Empty and truncated input.
      "", "   ", "{", "[", "[1, 2", "{\"a\": [1, 2", "\"abc", "\"abc\\",
      "tru", "nul", "fals",
      // Structure.
      "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{\"a\":}", "{1:2}", "{'a':1}",
      "[1 2]", "[,1]", "{,}", "]", "}",
      // Trailing bytes.
      "[1] x", "{} {}", "1 2", "\"a\"\"b\"",
      // Strings: raw control characters, unknown escapes, bad \u.
      "\"a\tb\"", "\"a\nb\"", std::string("\"a\x01") + "b\"", "\"a\x1f\"",
      "\"\\q\"", "\"\\x41\"", "\"\\U0041\"", "\"\\uZZZZ\"", "\"\\u12\"",
      "\"\\u12G4\"", "'a'",
      // Surrogates without their pair.
      "\"\\uD800\"", "\"\\uD800x\"", "\"\\uD800\\u0041\"", "\"\\uDC00\"",
      "\"\\uDFFF\\uD800\"",
      // Numbers outside the JSON grammar.
      "+1", "01", "-01", ".5", "1.", "-", "1e", "1e+", "1.e5", "0x10",
      "inf", "-inf", "Infinity", "-Infinity", "nan", "NaN", "1_000",
      // Whitespace JSON does not allow.
      "\v[]", "\f[]", "[\v]"};
  for (const std::string& text : malformed) {
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parse_json(text, &v, &err)) << "accepted: " << text;
    EXPECT_NE(err.find(" at byte "), std::string::npos)
        << "no offset for: " << text << " (" << err << ")";
  }
}

TEST(JsonReader, ErrorNamesTheOffendingByte) {
  JsonValue v;
  std::string err;
  ASSERT_FALSE(parse_json("[1, \"a\\qb\"]", &v, &err));
  EXPECT_EQ(err, "invalid escape at byte 6");
  ASSERT_FALSE(parse_json("{\"k\": 01}", &v, &err));
  EXPECT_EQ(err, "expected ',' or '}' at byte 7");
  ASSERT_FALSE(parse_json("\"ab\x02\"", &v, &err));
  EXPECT_EQ(err, "raw control character in string at byte 3");
}

// Ill-formed UTF-8 inside a string, each at byte 2 of "a<bytes>": stray
// continuation bytes, overlong forms, encoded surrogates, code points above
// U+10FFFF and truncated sequences (the last one at the end of input).
TEST(JsonReader, RejectsIllFormedUtf8WithAnOffset) {
  const std::vector<std::string> ill_formed = {
      "\x80", "\xBF", "\xC0\xAF", "\xC1\xBF", "\xE0\x80\xAF",
      "\xE0\x9F\xBF", "\xF0\x80\x80\xAF", "\xF0\x8F\xBF\xBF",
      "\xED\xA0\x80", "\xED\xBF\xBF", "\xF4\x90\x80\x80",
      "\xF5\x80\x80\x80", "\xFF", "\xE9", "\xC3", "\xE2\x82",
      "\xF0\x9F\x98", "\xC3\xA9\xA9"};
  for (const std::string& bytes : ill_formed) {
    for (const std::string& text : {"\"a" + bytes + "\"", "\"a" + bytes}) {
      JsonValue v;
      std::string err;
      EXPECT_FALSE(parse_json(text, &v, &err)) << "accepted: " << text;
      const std::size_t at = bytes == "\xC3\xA9\xA9" ? 4 : 2;
      EXPECT_EQ(err, "ill-formed UTF-8 in string at byte " + std::to_string(at))
          << text;
    }
  }
}

TEST(JsonReader, AcceptsWellFormedUtf8AtEveryBoundary) {
  const std::vector<std::string> well_formed = {
      "\xC2\x80",          // U+0080
      "\xDF\xBF",          // U+07FF
      "\xE0\xA0\x80",      // U+0800
      "\xED\x9F\xBF",      // U+D7FF, just below the surrogates
      "\xEE\x80\x80",      // U+E000, just above them
      "\xEF\xBF\xBF",      // U+FFFF
      "\xF0\x90\x80\x80",  // U+10000
      "\xF4\x8F\xBF\xBF",  // U+10FFFF
      "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80"};
  for (const std::string& bytes : well_formed) {
    EXPECT_EQ(parse_ok("\"" + bytes + "\"").str, bytes);
  }
}

TEST(JsonReader, MillionNestedBracketsIsAnErrorNotACrash) {
  JsonValue v;
  std::string err;
  const std::string open(1000000, '[');
  EXPECT_FALSE(parse_json(open, &v, &err));
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
  EXPECT_FALSE(parse_json(open + std::string(1000000, ']'), &v, &err));
  EXPECT_FALSE(parse_json(std::string(1000000, '{'), &v, &err));
}

TEST(JsonReader, NestingLimitIsExact) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  JsonValue v;
  EXPECT_TRUE(parse_json(nested(kMaxJsonDepth), &v));
  EXPECT_FALSE(parse_json(nested(kMaxJsonDepth + 1), &v));
}

TEST(JsonReader, DecodesEveryEscapeExactly) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\be\ff\ng\rh\ti")").str,
            "a\"b\\c/d\be\ff\ng\rh\ti");
  // \u: ASCII, two- and three-byte UTF-8, and a surrogate pair (U+1F600).
  EXPECT_EQ(parse_ok(R"("\u0041\u00e9\u20AC\ud83d\ude00")").str,
            "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(parse_ok(R"("\u0000")").str, std::string(1, '\0'));
  // Raw bytes from 0x20 up pass through, UTF-8 included.
  EXPECT_EQ(parse_ok("\"caf\xc3\xa9 ~\x7f\"").str, "caf\xc3\xa9 ~\x7f");
}

TEST(JsonReader, DecodesNumbersExactly) {
  EXPECT_EQ(parse_ok("0").number, 0.0);
  const JsonValue neg_zero = parse_ok("-0");
  EXPECT_EQ(neg_zero.number, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero.number));
  EXPECT_EQ(parse_ok("-12.25").number, -12.25);
  EXPECT_EQ(parse_ok("1.5e3").number, 1500.0);
  EXPECT_EQ(parse_ok("1E-2").number, 0.01);
  EXPECT_EQ(parse_ok("2e+2").number, 200.0);
  EXPECT_EQ(parse_ok("123456789012").number, 123456789012.0);
  EXPECT_EQ(parse_ok("0.1").number, 0.1);
  // Grammar-valid but beyond double range: accepted, as Python's json does.
  EXPECT_EQ(parse_ok("1e999").number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_ok("-1e999").number,
            -std::numeric_limits<double>::infinity());
}

TEST(JsonReader, BuildsTheTree) {
  const JsonValue v = parse_ok(
      " \t\r\n{\"a\": [1, true, false, null, \"s\"], \"b\": {}, "
      "\"k\": 1, \"k\": 2}\r\n ");
  ASSERT_EQ(v.type, Type::kObject);
  const JsonValue* a = v.get("a", Type::kArray);
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_EQ(a->array[0].type, Type::kNumber);
  EXPECT_EQ(a->array[1].type, Type::kBool);
  EXPECT_TRUE(a->array[1].boolean);
  EXPECT_EQ(a->array[2].type, Type::kBool);
  EXPECT_FALSE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].type, Type::kNull);
  EXPECT_EQ(a->array[4].str, "s");
  EXPECT_NE(v.get("b", Type::kObject), nullptr);
  EXPECT_EQ(v.get("b", Type::kArray), nullptr);  // wrong type
  EXPECT_EQ(v.find("missing"), nullptr);
  // A duplicated key resolves to its last occurrence (Python's json).
  ASSERT_NE(v.get("k", Type::kNumber), nullptr);
  EXPECT_EQ(v.get("k", Type::kNumber)->number, 2.0);
}

TEST(JsonWriter, EscapesEveryAsciiByteAsExpected) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) all.push_back(static_cast<char>(c));
  std::string out;
  append_json_string(out, all);
  const std::string expected =
      std::string(
          R"json("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008)json"
          R"json(\t\n\u000b\u000c\u000d\u000e\u000f\u0010\u0011\u0012\u0013)json"
          R"json(\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d)json"
          R"json(\u001e\u001f !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLM)json"
          R"json(NOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~)json") +
      "\x7f\"";
  EXPECT_EQ(out, expected);
  // And the reader takes it back to the same 128 bytes.
  EXPECT_EQ(parse_ok(out).str, all);
}

TEST(JsonWriter, SpotChecksAndAppends) {
  std::string out = "x";
  append_json_string(out, "team\tA\n\x01");
  EXPECT_EQ(out, R"(x"team\tA\n\u0001")");
  out.clear();
  append_json_string(out, "");
  EXPECT_EQ(out, R"("")");
  out.clear();
  append_json_string(out, "\xc3\xa9");  // UTF-8 passes through
  EXPECT_EQ(out, "\"\xc3\xa9\"");
}

// Each maximal ill-formed subsequence becomes one U+FFFD (Unicode's
// "maximal subpart" practice, as in Python's errors="replace"); well-formed
// sequences around it pass through unchanged.
TEST(JsonWriter, ReplacesIllFormedUtf8WithReplacementCharacters) {
  const std::string fffd = "\xEF\xBF\xBD";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"caf\xE9", "caf" + fffd},
      {"\x80\xBF", fffd + fffd},                   // two stray continuations
      {"\xC0\xAF", fffd + fffd},                   // overlong '/'
      {"\xE0\x80\xAF", fffd + fffd + fffd},         // overlong, 3 bytes
      {"\xF0\x8F\xBF\xBF", fffd + fffd + fffd + fffd},
      {"\xED\xA0\x80", fffd + fffd + fffd},         // surrogate U+D800
      {"\xF4\x90\x80\x80", fffd + fffd + fffd + fffd},  // above U+10FFFF
      {"\xF5\xFF", fffd + fffd},
      {"\xE2\x82x", fffd + "x"},                  // truncated: one subpart
      {"a\xF0\x9F\x98", "a" + fffd},              // truncated at the end
      {"\xF0\x9F\x98\xF0\x9F\x98\x80", fffd + "\xF0\x9F\x98\x80"},
      {"\xC3\xA9\xA9\xC3\xA9", "\xC3\xA9" + fffd + "\xC3\xA9"}};
  for (const auto& [in, want] : cases) {
    std::string out;
    append_json_string(out, in);
    EXPECT_EQ(out, "\"" + want + "\"") << in;
    EXPECT_EQ(parse_ok(out).str, want);
  }
}

TEST(JsonWriter, NumbersUseNineDigitsAndNullForNonFinite) {
  const auto num = [](double v) {
    std::string out;
    append_json_number(out, v);
    return out;
  };
  EXPECT_EQ(num(1.0), "1");
  EXPECT_EQ(num(-0.0), "-0");
  EXPECT_EQ(num(0.1), "0.1");
  EXPECT_EQ(num(2.0 / 3.0), "0.666666667");
  EXPECT_EQ(num(123456789.0), "123456789");
  EXPECT_EQ(num(1234567891.0), "1.23456789e+09");
  EXPECT_EQ(num(1e21), "1e+21");
  EXPECT_EQ(num(2.5e-7), "2.5e-07");
  EXPECT_EQ(num(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(num(-std::numeric_limits<double>::infinity()), "null");
  for (const double v : {1.0, -0.0, 2.0 / 3.0, 1234567891.0, 1e21, 2.5e-7}) {
    EXPECT_TRUE(is_json_number(num(v))) << num(v);
  }
}

TEST(JsonWriter, IsJsonNumberFollowsTheGrammar) {
  for (const char* ok : {"0", "-0", "1", "-1", "10", "1.5", "0.25", "1e5",
                         "1E+5", "1e-5", "-12.5e10"}) {
    EXPECT_TRUE(is_json_number(ok)) << ok;
  }
  for (const char* bad : {"", "+1", "01", ".5", "1.", "-", "1e", "0x10",
                          "inf", "nan", " 1", "1 ", "1,5", "--1"}) {
    EXPECT_FALSE(is_json_number(bad)) << bad;
  }
}

}  // namespace
}  // namespace gv
