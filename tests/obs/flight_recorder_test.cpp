// FlightRecorder contract tests: arming, bundle dumping, the owner-scoped
// topology provider, and the independent bundle validator.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gv {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gv_flight_" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FlightRecorder::instance().disarm();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST_F(FlightRecorderTest, UnarmedTripCountsButWritesNothing) {
  auto& fr = FlightRecorder::instance();
  fr.disarm();
  const auto before = fr.trips();
  EXPECT_EQ(fr.trip(FaultKind::kManual, -1, "unarmed"), "");
  EXPECT_EQ(fr.trips(), before + 1);
}

TEST_F(FlightRecorderTest, ArmedTripDumpsAValidBundle) {
  auto& fr = FlightRecorder::instance();
  fr.configure(dir_.string(), 64);
  EXPECT_TRUE(fr.armed());
  const std::string path = fr.trip(FaultKind::kDeadShard, 2, "test fault");
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_NE(path.find("dead_shard"), std::string::npos);
  const std::string json = slurp(path);
  std::string err;
  EXPECT_TRUE(validate_flight_bundle(json, &err)) << err;
  EXPECT_NE(json.find("\"kind\": \"dead_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\": 2"), std::string::npos);
  EXPECT_NE(json.find("test fault"), std::string::npos);
}

TEST_F(FlightRecorderTest, BundleEmbedsSpansAndTopology) {
  auto& rec = TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  { TraceSpan span("test", "bundled_span"); }
  rec.set_enabled(false);

  auto& fr = FlightRecorder::instance();
  fr.configure(dir_.string(), 64);
  const int owner = 0;
  fr.set_topology_provider(&owner, [] {
    return std::string("{\"num_shards\":3,\"shards\":[]}");
  });
  const std::string path = fr.trip(FaultKind::kChannelAnomaly, -1, "audit");
  fr.clear_topology_provider(&owner);

  ASSERT_FALSE(path.empty());
  const std::string json = slurp(path);
  std::string err;
  ASSERT_TRUE(validate_flight_bundle(json, &err)) << err;
  EXPECT_NE(json.find("bundled_span"), std::string::npos);
  EXPECT_NE(json.find("\"num_shards\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"timeseries\""), std::string::npos);
  rec.clear();
}

TEST_F(FlightRecorderTest, TopologyProviderClearIsOwnerScoped) {
  auto& fr = FlightRecorder::instance();
  fr.configure(dir_.string(), 16);
  const int owner_a = 0, owner_b = 0;
  fr.set_topology_provider(&owner_a, [] { return std::string("{\"v\":1}"); });
  // A stranger's clear must not unhook owner_a's provider.
  fr.clear_topology_provider(&owner_b);
  std::string json = slurp(fr.trip(FaultKind::kManual, -1, "scoped"));
  EXPECT_NE(json.find("\"v\":1"), std::string::npos);
  // The owner's clear does.
  fr.clear_topology_provider(&owner_a);
  json = slurp(fr.trip(FaultKind::kManual, -1, "cleared"));
  EXPECT_NE(json.find("\"topology\": null"), std::string::npos);
}

TEST_F(FlightRecorderTest, SequenceNumbersOrderCascadingFaults) {
  auto& fr = FlightRecorder::instance();
  fr.configure(dir_.string(), 16);
  const std::string p1 = fr.trip(FaultKind::kDeadShard, 0, "first");
  const std::string p2 = fr.trip(FaultKind::kPromotionFailure, 0, "second");
  ASSERT_FALSE(p1.empty());
  ASSERT_FALSE(p2.empty());
  EXPECT_NE(p1, p2);
  EXPECT_LT(fs::path(p1).filename().string(), fs::path(p2).filename().string());
}

TEST(FlightBundleValidator, RejectsMalformedDocuments) {
  std::string err;
  EXPECT_FALSE(validate_flight_bundle("", &err));
  EXPECT_FALSE(validate_flight_bundle("not json", &err));
  EXPECT_FALSE(validate_flight_bundle("[]", &err));
  EXPECT_FALSE(validate_flight_bundle("{}", &err));
  // Wrong schema string.
  EXPECT_FALSE(validate_flight_bundle(
      R"({"schema":"something.else","seq":1,"wall_ns":2,)"
      R"("fault":{"kind":"manual","shard":-1,"detail":""},"spans":[],)"
      R"("metrics":{"counters":[],"gauges":[],"histograms":[]},)"
      R"("topology":null})",
      &err));
  // The v1 tag, whose bundles carried a timeseries section.
  EXPECT_FALSE(validate_flight_bundle(
      R"({"schema":"gnnvault.flight_recorder.v1","seq":1,"wall_ns":2,)"
      R"("fault":{"kind":"manual","shard":-1,"detail":""},"spans":[],)"
      R"("metrics":{"counters":[],"gauges":[],"histograms":[]},)"
      R"("timeseries":null,"topology":null})",
      &err));
  // Unknown fault kinds, the retired slo_page among them.
  for (const char* kind : {"gremlins", "slo_page"}) {
    EXPECT_FALSE(validate_flight_bundle(
        std::string(R"({"schema":"gnnvault.flight_recorder.v2","seq":1,)") +
            R"("wall_ns":2,"fault":{"kind":")" + kind +
            R"(","shard":-1,"detail":""},"spans":[],)"
            R"("metrics":{"counters":[],"gauges":[],"histograms":[]},)"
            R"("topology":null})",
        &err))
        << kind;
  }
  // Trailing garbage after a valid document.
  EXPECT_FALSE(validate_flight_bundle(
      R"({"schema":"gnnvault.flight_recorder.v2","seq":1,"wall_ns":2,)"
      R"("fault":{"kind":"manual","shard":-1,"detail":""},"spans":[],)"
      R"("metrics":{"counters":[],"gauges":[],"histograms":[]},)"
      R"("topology":null} trailing)",
      &err));
}

TEST(FlightBundleValidator, AcceptsAMinimalHandWrittenBundle) {
  std::string err;
  EXPECT_TRUE(validate_flight_bundle(
      R"({"schema":"gnnvault.flight_recorder.v2","seq":7,"wall_ns":123,)"
      R"("fault":{"kind":"manual","shard":-1,"detail":"operator"},)"
      R"("spans":[{"cat":"serve","name":"batch_flush","ts_ns":1,"dur_ns":2,)"
      R"("modeled_sgx_s":0.5,"args":{"query_id":9}}],)"
      R"("metrics":{"counters":[],"gauges":[],"histograms":[]},)"
      R"("topology":{"num_shards":2}})",
      &err))
      << err;
}

}  // namespace
}  // namespace gv
