// EngineScope profile export: folded-stack reconstruction from interval
// nesting, the independent grammar validator, and the unified ops report;
// plus the string-escape and strictness cases shared by all three JSON
// validators.
#include "obs/profile_export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/engine_probe.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tenant_ledger.hpp"
#include "obs/trace.hpp"

namespace gv {
namespace {

TraceEvent make_event(const char* category, const char* name,
                      std::uint64_t start_ns, std::uint64_t dur_ns,
                      double tid = 0.0, bool async = false) {
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.async = async;
  ev.add_arg("tid", tid);
  return ev;
}

std::map<std::string, std::uint64_t> parse_folded(const std::string& folded) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream is(folded);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    out[line.substr(0, space)] = std::stoull(line.substr(space + 1));
  }
  return out;
}

TEST(FoldedProfile, SelfTimeIsDurationMinusChildren) {
  // tid 0:  root [0,1000)
  //           child [100,400)  with leaf [150,200)
  //           child [500,600)            (same frame, second visit: merges)
  std::vector<TraceEvent> events;
  events.push_back(make_event("serve", "root", 0, 1000));
  events.push_back(make_event("serve", "child", 100, 300));
  events.push_back(make_event("serve", "leaf", 150, 50));
  events.push_back(make_event("serve", "child", 500, 100));

  const std::string folded = folded_profile(events);
  std::string err;
  EXPECT_TRUE(validate_folded(folded, &err)) << err;

  const auto lines = parse_folded(folded);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines.at("tid_0;serve/root"), 600u);  // 1000 - 300 - 100
  EXPECT_EQ(lines.at("tid_0;serve/root;serve/child"), 350u);  // 250 + 100
  EXPECT_EQ(lines.at("tid_0;serve/root;serve/child;serve/leaf"), 50u);
}

TEST(FoldedProfile, ThreadsFoldIndependentlyAndAsyncIsSkipped) {
  std::vector<TraceEvent> events;
  events.push_back(make_event("a", "x", 0, 100, /*tid=*/0));
  events.push_back(make_event("a", "x", 0, 100, /*tid=*/1));
  // An async queue-wait overlapping both stacks must not corrupt either.
  events.push_back(make_event("a", "wait", 10, 500, /*tid=*/0, /*async=*/true));
  const auto lines = parse_folded(folded_profile(events));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines.at("tid_0;a/x"), 100u);
  EXPECT_EQ(lines.at("tid_1;a/x"), 100u);
}

TEST(FoldedProfile, StructuralCharactersAreSanitized) {
  std::vector<TraceEvent> events;
  events.push_back(make_event("cat", "bad name;x", 0, 10));
  const std::string folded = folded_profile(events);
  EXPECT_NE(folded.find("tid_0;cat/bad_name_x 10"), std::string::npos);
  std::string err;
  EXPECT_TRUE(validate_folded(folded, &err)) << err;
}

TEST(FoldedProfile, OverhangingChildIsClampedToItsParent) {
  // The child claims to end 20 ns past its parent (ns-granularity skew);
  // the builder trims it so the parent's self time never underflows.
  std::vector<TraceEvent> events;
  events.push_back(make_event("s", "parent", 0, 100));
  events.push_back(make_event("s", "child", 50, 70));
  const auto lines = parse_folded(folded_profile(events));
  EXPECT_EQ(lines.at("tid_0;s/parent"), 50u);
  EXPECT_EQ(lines.at("tid_0;s/parent;s/child"), 50u);
}

TEST(FoldedProfile, ValidatorRejectsMalformedLinesAndEmptyProfiles) {
  std::string err;
  EXPECT_TRUE(validate_folded("root;a/b 10\nroot;a/b;c 5\n", &err)) << err;
  // Empty: the CI gate must notice a silently-disabled recorder.
  EXPECT_FALSE(validate_folded("", &err));
  EXPECT_FALSE(validate_folded("no_count\n", &err));
  EXPECT_FALSE(validate_folded("stack 12x\n", &err));
  EXPECT_FALSE(validate_folded("a;;b 10\n", &err));  // empty frame
  EXPECT_FALSE(validate_folded(" 10\n", &err));      // empty stack
}

TEST(FoldedProfile, LiveRecorderRoundTrip) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  {
    TraceSpan outer("profile_test", "outer");
    TraceSpan inner("profile_test", "inner");
  }
  rec.set_enabled(false);
  const std::string folded = folded_profile_snapshot();
  std::string err;
  EXPECT_TRUE(validate_folded(folded, &err)) << err;
  EXPECT_NE(folded.find("profile_test/outer"), std::string::npos);
}

TEST(OpsReport, LiveAndCachedDocumentsValidate) {
  // A live probe makes the engines array non-trivial.
  EngineProbe probe(MetricsRegistry::global(), "ops-test");
  const std::string live = ops_report();
  std::string err;
  EXPECT_TRUE(validate_ops_report(live, &err)) << err;
  EXPECT_NE(live.find("\"schema\":\"gnnvault.ops_report.v1\""),
            std::string::npos);
  EXPECT_NE(live.find("\"engine\":\"ops-test\""), std::string::npos);

  const std::string cached = ops_report_cached();
  EXPECT_TRUE(validate_ops_report(cached, &err)) << err;
}

// A tenant name that is not valid UTF-8 (Latin-1 "cafe" with an acute e)
// must still give an ops report that stock JSON readers accept: the writer
// replaces the ill-formed byte with U+FFFD.
TEST(OpsReport, NonUtf8TenantNameStillValidates) {
  static const int owner = 0;
  TenantLedger::global().register_provider(&owner, "caf\xe9",
                                           [] { return TenantUsage{}; });
  const std::string doc = ops_report();
  TenantLedger::global().unregister(&owner);
  std::string err;
  EXPECT_TRUE(validate_ops_report(doc, &err)) << err;
  EXPECT_EQ(doc.find('\xe9'), std::string::npos);
  EXPECT_NE(doc.find("\"caf\xEF\xBF\xBD\""), std::string::npos);
}

TEST(OpsReport, ValidatorIsIndependentOfTheWriter) {
  std::string err;
  EXPECT_FALSE(validate_ops_report("{}", &err));
  EXPECT_FALSE(validate_ops_report("not json", &err));
  // Truncation must not validate.
  std::string doc = ops_report();
  doc.resize(doc.size() / 2);
  EXPECT_FALSE(validate_ops_report(doc, &err));
  // A wrong schema tag must not validate.
  std::string wrong = ops_report();
  const auto pos = wrong.find("gnnvault.ops_report.v1");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 22, "gnnvault.ops_report.v9");
  EXPECT_FALSE(validate_ops_report(wrong, &err));
}

// --- The three JSON validators on string escapes and strictness. -----------
//
// One parametrized test over validate_trace_json, validate_flight_bundle
// and validate_ops_report.  Each case builds a valid document whose names
// carry control characters (so the writer must escape them), then checks
// that escapes decode to what they spell and that non-JSON input fails.

struct ValidatorCase {
  const char* name;
  bool (*validate)(const std::string&, std::string*);
  /// A valid document from the live writer, with control characters in
  /// the strings it escapes.
  std::string (*make_doc)();
  /// A string the validator compares by value (schema tag, key or kind);
  /// it contains an 'n'.
  const char* tag;
};

std::string trace_doc() {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  { TraceSpan span("esc\x01" "cat", "span\tname\n"); }
  rec.set_enabled(false);
  std::string doc = rec.to_chrome_json();
  rec.clear();
  return doc;
}

std::string flight_doc() {
  const std::string dir = ::testing::TempDir() + "/gv_validator_escapes";
  auto& fr = FlightRecorder::instance();
  fr.configure(dir, 16);
  const std::string path =
      fr.trip(FaultKind::kManual, -1, "detail\twith\ncontrol\x01");
  fr.disarm();
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  std::filesystem::remove_all(dir);
  return ss.str();
}

std::string ops_doc() {
  // Every escape class in a tenant row and in an engine name.  The probe's
  // gauges carry the engine name as their `engine` label, so the metrics
  // section must escape it too.
  EngineProbe probe(MetricsRegistry::global(), "team\tA\n\x01");
  auto& ledger = TenantLedger::global();
  int owner = 0;
  ledger.register_provider(&owner, "quo\"te\\back\nline\x01ctl", [] {
    TenantUsage u;
    u.ecalls = 1;
    return u;
  });
  std::string doc = ops_report();
  ledger.unregister(&owner);
  return doc;
}

void PrintTo(const ValidatorCase& c, std::ostream* os) { *os << c.name; }

class ValidatorDecodesStringEscapes
    : public ::testing::TestWithParam<ValidatorCase> {};

TEST_P(ValidatorDecodesStringEscapes, EveryEntryPoint) {
  const ValidatorCase& c = GetParam();
  std::string doc = c.make_doc();
  std::string err;
  ASSERT_TRUE(c.validate(doc, &err)) << err;
  // The writer escaped every control character: none is left raw (the
  // flight bundle's trailing newline is whitespace outside any string).
  while (!doc.empty() && doc.back() == '\n') doc.pop_back();
  for (std::size_t i = 0; i < doc.size(); ++i) {
    ASSERT_GE(static_cast<unsigned char>(doc[i]), 0x20u)
        << "raw control byte at " << i << " of " << doc;
  }

  const std::string quoted = std::string("\"") + c.tag + "\"";
  const auto pos = doc.find(quoted);
  ASSERT_NE(pos, std::string::npos) << c.tag;
  const auto with_tag = [&](const std::string& spelled) {
    std::string out = doc;
    out.replace(pos, quoted.size(), spelled);
    return out;
  };
  // The tag spelled with a \u escape still validates...
  char u_escape[8];
  std::snprintf(u_escape, sizeof(u_escape), "\\u%04x",
                static_cast<unsigned>(c.tag[0]));
  EXPECT_TRUE(c.validate(
      with_tag(std::string("\"") + u_escape + (c.tag + 1) + "\""), &err))
      << err;
  // ...but \n is a newline, not the letter n ("ma\nual" is not "manual").
  std::string newline_tag = c.tag;
  newline_tag.replace(newline_tag.find('n'), 1, "\\n");
  EXPECT_FALSE(c.validate(with_tag("\"" + newline_tag + "\""), &err));

  // Non-JSON members the strict reader rejects wherever they appear.
  const auto with_member = [&](const std::string& member) {
    return "{" + member + ", " + doc.substr(1);
  };
  for (const char* member :
       {R"("x": "\uZZZZ")", R"("x": "\qq")", R"("x": "\uD800")",
        R"("x": nan)", R"("x": NaN)", R"("x": Infinity)", R"("x": +1)",
        R"("x": 01)", R"("x": 0x10)"}) {
    EXPECT_FALSE(c.validate(with_member(member), &err)) << member;
  }
  EXPECT_FALSE(c.validate(with_member(std::string("\"x\": \"a\tb\"")), &err));
  // Deep nesting is an error, not a crash.
  EXPECT_FALSE(c.validate(with_member("\"x\": " + std::string(1000000, '[') +
                                      std::string(1000000, ']')),
                          &err));
}

INSTANTIATE_TEST_SUITE_P(
    Obs, ValidatorDecodesStringEscapes,
    ::testing::Values(
        ValidatorCase{"trace", &validate_trace_json, &trace_doc,
                      "traceEvents"},
        ValidatorCase{"flight_bundle", &validate_flight_bundle, &flight_doc,
                      "manual"},
        ValidatorCase{"ops_report", &validate_ops_report, &ops_doc,
                      "gnnvault.ops_report.v1"}),
    [](const ::testing::TestParamInfo<ValidatorCase>& info) {
      return std::string(info.param.name);
    });

TEST(OpsReport, FilesRoundTripThroughDisk) {
  const std::string dir = ::testing::TempDir();
  const std::string folded_path = dir + "/profile_test.folded";
  const std::string report_path = dir + "/ops_report_test.json";
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  {
    TraceSpan span("profile_test", "disk");
  }
  rec.set_enabled(false);
  write_folded(folded_path);
  write_ops_report(report_path);
  std::ifstream ff(folded_path);
  std::stringstream fs;
  fs << ff.rdbuf();
  std::string err;
  EXPECT_TRUE(validate_folded(fs.str(), &err)) << err;
  std::ifstream rf(report_path);
  std::stringstream rs;
  rs << rf.rdbuf();
  EXPECT_TRUE(validate_ops_report(rs.str(), &err)) << err;
}

}  // namespace
}  // namespace gv
