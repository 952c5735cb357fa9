// One JSON codec for every telemetry artifact: Chrome trace exports,
// flight-recorder bundles, the metrics registry dump, tenant-ledger rows,
// engine snapshots, ops reports and bench tables.
//
//   Writers   append_json_string() and append_json_number() are the only
//             string escaper and number formatter in src/.  A label, tenant
//             or span name may carry any byte a caller hands in; the escaper
//             makes every byte below 0x20 legal JSON and every byte string
//             valid UTF-8 (ill-formed sequences become U+FFFD).
//
//   Reader    parse_json() is a strict RFC 8259 reader that returns a small
//             tree the validators (validate_trace_json,
//             validate_flight_bundle, validate_ops_report) walk as a schema.
//             It rejects raw control characters and ill-formed UTF-8 in
//             strings, unknown escapes, non-hex or unpaired \u escapes,
//             numbers outside the JSON grammar (+1, 01, .5, 0x10, inf,
//             nan), trailing bytes and nesting deeper than kMaxJsonDepth.  Every rejection is an
//             error naming a byte offset, never a crash.  \uXXXX escapes,
//             surrogate pairs included, decode to UTF-8.  A duplicated
//             object key resolves to its last occurrence, as in Python's
//             json module.  Its verdicts match stock Python's except where
//             it is stricter on purpose: an unpaired surrogate escape and
//             nesting deeper than kMaxJsonDepth are errors here.
//
// Why one reader is still an independent check.  Each validator used to
// carry its own hand-written reader so that a writer bug could not
// validate its own output.  Sharing the codec gives that up inside the
// process, so independence is kept outside it instead:
//   * tests/common/json_test.cpp checks the reader against hand-written
//     JSON literals and the writer against expected bytes for every ASCII
//     byte, not only against round trips through each other;
//   * CI re-reads every exported artifact with stock Python json (NaN and
//     Infinity rejected) before trusting it.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gv {

/// Deepest array/object nesting parse_json() accepts.  The deepest
/// artifact written today, a flight bundle, nests 6 levels.
inline constexpr int kMaxJsonDepth = 64;

/// Append `s` as a quoted JSON string.  `"` and `\` are backslash-escaped,
/// newline and tab use \n and \t, every other byte below 0x20 becomes
/// \u00xx, and other ASCII bytes and well-formed multi-byte UTF-8 pass
/// through unchanged.  Each maximal ill-formed UTF-8 subsequence (a stray
/// continuation byte, an overlong form, an encoded surrogate, a code point
/// above U+10FFFF, a truncated sequence) becomes one U+FFFD, so the output
/// is always valid UTF-8.
void append_json_string(std::string& out, std::string_view s);

/// Append `v` with nine significant digits (%.9g).  JSON has no NaN or
/// infinity, so a non-finite value is written as null.
void append_json_number(std::string& out, double v);

/// True when `s` is exactly one number in the JSON grammar (no sign
/// other than a leading '-', no leading zeros, no bare '.', no hex).
bool is_json_number(std::string_view s);

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;  // decoded UTF-8
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // document order

  /// Member `key` of an object (last occurrence), or nullptr.
  const JsonValue* find(std::string_view key) const;
  /// find(key) when that member has `type`, else nullptr.
  const JsonValue* get(std::string_view key, Type type) const;
};

/// Parse one JSON document; whitespace may surround it.  On failure
/// returns false and, when `error` is non-null, stores the reason and its
/// byte offset there.
bool parse_json(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace gv
