#include "obs/telemetry.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/file_util.h"

namespace hido {
namespace obs {
namespace {

RunTelemetry MakeSample() {
  RunTelemetry telemetry;
  telemetry.tool = "hido test";
  telemetry.config = {{"input", "demo.csv"},
                      {"threads", static_cast<uint64_t>(4)},
                      {"resumed", false},
                      {"phi", 5}};
  telemetry.metrics.counters = {{"grid.builds", 1},
                                {"search.evaluations", 1234}};
  telemetry.metrics.gauges = {{"pool.workers", 4}};
  Histogram::Snapshot h;
  h.upper_bounds = {1.0, 5.0};
  h.counts = {2, 1, 0};
  h.total_count = 3;
  h.sum = 6.0;
  telemetry.metrics.histograms = {{"search.restart_generations", h}};
  telemetry.results.push_back({{"completed", true},
                               {"mean_quality", -2.5}});
  telemetry.timing.children["detect"].seconds = 0.25;
  telemetry.timing.children["detect"].calls = 1;
  telemetry.timing.children["detect"].children["grid_build"].seconds = 0.1;
  telemetry.timing.children["detect"].children["grid_build"].calls = 1;
  return telemetry;
}

TEST(TelemetryTest, SerializesSectionsInFixedOrder) {
  const std::string json = SerializeRunTelemetry(MakeSample());
  const size_t schema = json.find("\"schema_version\"");
  const size_t tool = json.find("\"tool\"");
  const size_t config = json.find("\"config\"");
  const size_t counters = json.find("\"counters\"");
  const size_t gauges = json.find("\"gauges\"");
  const size_t histograms = json.find("\"histograms\"");
  const size_t results = json.find("\"results\"");
  const size_t timing = json.find("\"timing\"");
  ASSERT_NE(schema, std::string::npos);
  ASSERT_NE(timing, std::string::npos);
  EXPECT_LT(schema, tool);
  EXPECT_LT(tool, config);
  EXPECT_LT(config, counters);
  EXPECT_LT(counters, gauges);
  EXPECT_LT(gauges, histograms);
  EXPECT_LT(histograms, results);
  // Wall-clock is segregated after every deterministic section.
  EXPECT_LT(results, timing);
  EXPECT_EQ(json.back(), '\n');
}

TEST(TelemetryTest, SerializationIsDeterministic) {
  EXPECT_EQ(SerializeRunTelemetry(MakeSample()),
            SerializeRunTelemetry(MakeSample()));
}

TEST(TelemetryTest, SerializesValuesFaithfully) {
  const std::string json = SerializeRunTelemetry(MakeSample());
  EXPECT_NE(json.find("\"input\": \"demo.csv\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"resumed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"search.evaluations\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"mean_quality\": -2.5"), std::string::npos);
  EXPECT_NE(json.find("\"total_count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"grid_build\""), std::string::npos);
}

TEST(TelemetryTest, WriteRunTelemetryJsonRoundTripsThroughDisk) {
  const std::string path = ::testing::TempDir() + "/hido_telemetry.json";
  ASSERT_TRUE(WriteRunTelemetryJson(MakeSample(), path).ok());
  const Result<FileBytes> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().view(), SerializeRunTelemetry(MakeSample()));
  std::remove(path.c_str());
}

TEST(TelemetryTest, WriteFailsOnUnwritablePath) {
  EXPECT_FALSE(
      WriteRunTelemetryJson(MakeSample(), "/nonexistent/dir/telemetry.json")
          .ok());
}

TEST(TelemetryTest, SummaryRendersEverySection) {
  const std::string summary = RenderTelemetrySummary(MakeSample());
  EXPECT_NE(summary.find("run telemetry (hido test)"), std::string::npos);
  EXPECT_NE(summary.find("config:"), std::string::npos);
  EXPECT_NE(summary.find("counters:"), std::string::npos);
  EXPECT_NE(summary.find("gauges:"), std::string::npos);
  EXPECT_NE(summary.find("histograms:"), std::string::npos);
  EXPECT_NE(summary.find("timing"), std::string::npos);
  EXPECT_NE(summary.find("search.evaluations"), std::string::npos);
  EXPECT_NE(summary.find("grid_build"), std::string::npos);
}

TEST(TelemetryTest, CaptureBridgesPoolGauges) {
  MetricsRegistry::Global().ResetForTest();
  const RunTelemetry captured = CaptureRunTelemetry("capture test");
  EXPECT_EQ(captured.tool, "capture test");
  bool found_workers = false;
  for (const GaugeSample& gauge : captured.metrics.gauges) {
    if (gauge.name == "pool.workers") {
      found_workers = true;
      EXPECT_GE(gauge.value, 1);
    }
  }
  EXPECT_TRUE(found_workers);
}

TEST(TelemetryValueTest, DisplayStringsCoverEveryKind) {
  EXPECT_EQ(TelemetryValue("abc").ToDisplayString(), "abc");
  EXPECT_EQ(TelemetryValue(-3).ToDisplayString(), "-3");
  EXPECT_EQ(TelemetryValue(static_cast<uint64_t>(7)).ToDisplayString(), "7");
  EXPECT_EQ(TelemetryValue(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(TelemetryValue(true).ToDisplayString(), "true");
  EXPECT_EQ(TelemetryValue(false).ToDisplayString(), "false");
}

}  // namespace
}  // namespace obs
}  // namespace hido
