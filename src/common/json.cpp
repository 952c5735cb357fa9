#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gv {

namespace {

/// Length of the UTF-8 sequence starting at s[i] (s[i] >= 0x80) when it is
/// well formed, i.e. the Unicode Table 3-7 forms: no stray continuation
/// byte, no overlong form, no encoded surrogate, nothing above U+10FFFF,
/// not truncated.  When it is ill formed, the length of its maximal
/// subpart (at least 1) with `*valid` false, so a writer can replace it
/// with one U+FFFD and resume right after.
std::size_t scan_utf8(std::string_view s, std::size_t i, bool* valid) {
  const auto b0 = static_cast<unsigned char>(s[i]);
  std::size_t len = 0;
  unsigned char lo = 0x80;  // allowed range of the second byte
  unsigned char hi = 0xBF;
  if (b0 >= 0xC2 && b0 <= 0xDF) {
    len = 2;
  } else if (b0 >= 0xE0 && b0 <= 0xEF) {
    len = 3;
    if (b0 == 0xE0) lo = 0xA0;  // overlong below U+0800
    if (b0 == 0xED) hi = 0x9F;  // surrogates U+D800..U+DFFF
  } else if (b0 >= 0xF0 && b0 <= 0xF4) {
    len = 4;
    if (b0 == 0xF0) lo = 0x90;  // overlong below U+10000
    if (b0 == 0xF4) hi = 0x8F;  // above U+10FFFF
  } else {
    *valid = false;  // continuation byte, C0/C1 overlong lead, F5..FF
    return 1;
  }
  for (std::size_t k = 1; k < len; ++k) {
    const bool in_range =
        i + k < s.size() &&
        static_cast<unsigned char>(s[i + k]) >= (k == 1 ? lo : 0x80) &&
        static_cast<unsigned char>(s[i + k]) <= (k == 1 ? hi : 0xBF);
    if (!in_range) {
      *valid = false;
      return k;
    }
  }
  *valid = true;
  return len;
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x80) {
      bool valid = false;
      const std::size_t len = scan_utf8(s, i, &valid);
      if (valid) {
        out.append(s.substr(i, len));
      } else {
        out += "\xEF\xBF\xBD";  // U+FFFD REPLACEMENT CHARACTER
      }
      i += len;
      continue;
    }
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
    ++i;
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

namespace {

constexpr std::size_t kNoNumber = std::string_view::npos;

/// End of the JSON number starting at s[i], or kNoNumber when the bytes
/// there are not one (-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?).
std::size_t scan_number(std::string_view s, std::size_t i) {
  const auto digit = [s](std::size_t k) {
    return k < s.size() && s[k] >= '0' && s[k] <= '9';
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (!digit(i)) return kNoNumber;
  if (s[i] == '0') {
    ++i;
  } else {
    while (digit(i)) ++i;
  }
  if (i < s.size() && s[i] == '.') {
    if (!digit(++i)) return kNoNumber;
    while (digit(i)) ++i;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digit(i)) return kNoNumber;
    while (digit(i)) ++i;
  }
  return i;
}

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Recursive descent over one document.  Recursion is bounded by
/// kMaxJsonDepth, so hostile nesting fails instead of exhausting the stack.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  bool document(JsonValue* out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing bytes after the document");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const char* why) { return fail_at(pos_, why); }
  bool fail_at(std::size_t at, const char* why) {
    error_ = std::string(why) + " at byte " + std::to_string(at);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue* v, int depth) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
        return object(v, depth + 1);
      case '[':
        return array(v, depth + 1);
      case '"':
        v->type = JsonValue::Type::kString;
        return string(&v->str);
      case 't':
        v->type = JsonValue::Type::kBool;
        v->boolean = true;
        return literal("true");
      case 'f':
        v->type = JsonValue::Type::kBool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number(v);
    }
  }

  bool array(JsonValue* v, int depth) {
    if (depth > kMaxJsonDepth) return fail("nesting deeper than kMaxJsonDepth");
    ++pos_;  // '['
    v->type = JsonValue::Type::kArray;
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      v->array.emplace_back();
      if (!value(&v->array.back(), depth)) return false;
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool object(JsonValue* v, int depth) {
    if (depth > kMaxJsonDepth) return fail("nesting deeper than kMaxJsonDepth");
    ++pos_;  // '{'
    v->type = JsonValue::Type::kObject;
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        return fail("expected a string key");
      }
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      skip_ws();
      v->object.emplace_back(std::move(key), JsonValue{});
      if (!value(&v->object.back().second, depth)) return false;
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool number(JsonValue* v) {
    const std::size_t end = scan_number(s_, pos_);
    if (end == kNoNumber) return fail("invalid value");
    v->type = JsonValue::Type::kNumber;
    // from_chars, unlike strtod, ignores the C locale's decimal point.  A
    // grammar-valid number beyond double range stays valid, as in Python's
    // json; strtod rounds it to +-inf or 0.
    const auto [ptr, ec] =
        std::from_chars(s_.data() + pos_, s_.data() + end, v->number);
    if (ec == std::errc::result_out_of_range) {
      v->number = std::strtod(std::string(s_.substr(pos_, end - pos_)).c_str(),
                              nullptr);
    }
    pos_ = end;
    return true;
  }

  bool hex4(unsigned* cp) {
    if (s_.size() - pos_ < 4) return fail("truncated \\u escape");
    unsigned v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      const char h = s_[pos_ + i];
      unsigned d;
      if (h >= '0' && h <= '9') {
        d = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        d = static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        d = static_cast<unsigned>(h - 'A' + 10);
      } else {
        return fail_at(pos_ + i, "non-hex digit in \\u escape");
      }
      v = v * 16 + d;
    }
    pos_ += 4;
    *cp = v;
    return true;
  }

  /// After "\u": one code point, or a high surrogate joined to the low
  /// surrogate escape that must follow it.  Appends UTF-8.
  bool unicode_escape(std::string* out) {
    const std::size_t at = pos_ - 2;
    unsigned cp = 0;
    if (!hex4(&cp)) return false;
    if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return fail_at(at, "low surrogate without a high surrogate");
    }
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      unsigned lo = 0;
      if (s_.substr(pos_, 2) != "\\u") {
        return fail_at(at, "high surrogate without a low surrogate");
      }
      pos_ += 2;
      if (!hex4(&lo)) return false;
      if (lo < 0xDC00 || lo > 0xDFFF) {
        return fail_at(at, "high surrogate without a low surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    append_utf8(*out, cp);
    return true;
  }

  bool string(std::string* out) {
    ++pos_;  // opening quote
    for (;;) {
      if (pos_ >= s_.size()) return fail("unterminated string");
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (static_cast<unsigned char>(c) >= 0x80) {
        bool valid = false;
        const std::size_t len = scan_utf8(s_, pos_, &valid);
        if (!valid) return fail("ill-formed UTF-8 in string");
        out->append(s_.substr(pos_, len));
        pos_ += len;
        continue;
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (++pos_ >= s_.size()) return fail("unterminated string");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          if (!unicode_escape(out)) return false;
          break;
        default:
          return fail_at(pos_ - 2, "invalid escape");
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool is_json_number(std::string_view s) {
  return !s.empty() && scan_number(s, 0) == s.size();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (auto it = object.rbegin(); it != object.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

const JsonValue* JsonValue::get(std::string_view key, Type t) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->type == t ? v : nullptr;
}

bool parse_json(std::string_view text, JsonValue* out, std::string* error) {
  Reader reader(text);
  *out = JsonValue{};
  if (reader.document(out)) return true;
  if (error != nullptr) *error = reader.error();
  return false;
}

}  // namespace gv
