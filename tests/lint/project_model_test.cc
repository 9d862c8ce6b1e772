#include "tools/lint/project_model.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/cross_file_rules.h"
#include "tools/lint/lint_rules.h"

namespace hido {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Include-edge extraction

TEST(ExtractIncludes, QuotedAndAngleStylesWithLineNumbers) {
  const FileIndex file = BuildFileIndex("src/core/a.cc",
                                        "#include \"common/rng.h\"\n"
                                        "#include <vector>\n"
                                        "#  include \"grid/grid_model.h\"\n");
  ASSERT_EQ(file.includes.size(), 3u);
  EXPECT_EQ(file.includes[0].style, '"');
  EXPECT_EQ(file.includes[0].target, "common/rng.h");
  EXPECT_EQ(file.includes[0].line, 1u);
  EXPECT_EQ(file.includes[1].style, '<');
  EXPECT_EQ(file.includes[1].target, "vector");
  EXPECT_EQ(file.includes[1].line, 2u);
  // Whitespace between '#' and 'include' is legal and still an edge.
  EXPECT_EQ(file.includes[2].target, "grid/grid_model.h");
  EXPECT_EQ(file.includes[2].line, 3u);
}

TEST(ExtractIncludes, KeepsConditionalIncludes) {
  // Includes inside preprocessor conditionals are still edges: the linter
  // cannot evaluate the condition, so it assumes the dependency exists.
  const FileIndex file = BuildFileIndex("src/core/a.cc",
                                        "#ifdef HIDO_EXTRA\n"
                                        "#include \"core/detector.h\"\n"
                                        "#endif\n");
  ASSERT_EQ(file.includes.size(), 1u);
  EXPECT_EQ(file.includes[0].target, "core/detector.h");
}

TEST(ExtractIncludes, IgnoresCommentedOutIncludes) {
  const FileIndex file =
      BuildFileIndex("src/core/a.cc",
                     "// #include \"core/detector.h\"\n"
                     "/* #include \"core/objective.h\" */\n"
                     "/*\n#include \"core/scoring.h\"\n*/\n");
  EXPECT_TRUE(file.includes.empty());
}

TEST(ExtractIncludes, IgnoresIncludesInsideStringLiterals) {
  // lint_rules_test.cc embeds lint-fixture code in string literals; the
  // directives inside them must not become include edges.
  const FileIndex file = BuildFileIndex(
      "src/core/a.cc",
      "const char* kSnippet = \"#include \\\"core/detector.h\\\"\";\n");
  EXPECT_TRUE(file.includes.empty());
}

TEST(ExtractIncludes, IgnoresIncludesInsideRawStrings) {
  const FileIndex file =
      BuildFileIndex("src/core/a.cc",
                     "const char* kSnippet = R\"(\n"
                     "#include \"core/detector.h\"\n"
                     ")\";\n");
  EXPECT_TRUE(file.includes.empty());
}

// ---------------------------------------------------------------------------
// Project index resolution

TEST(ProjectIndex, ResolvesFullPathAndSrcRelativeSpellings) {
  std::vector<FileIndex> files;
  files.push_back(BuildFileIndex("src/common/rng.h", "int x;\n"));
  files.push_back(BuildFileIndex("tools/lint/sarif.h", "int y;\n"));
  const ProjectIndex index = BuildProjectIndex(std::move(files));

  const size_t rng = index.Resolve("common/rng.h");
  ASSERT_NE(rng, ProjectIndex::npos);
  EXPECT_EQ(index.files[rng].path, "src/common/rng.h");
  EXPECT_EQ(index.Resolve("src/common/rng.h"), rng);
  // Files outside src/ resolve only by their full path.
  const size_t sarif = index.Resolve("tools/lint/sarif.h");
  ASSERT_NE(sarif, ProjectIndex::npos);
  EXPECT_EQ(index.files[sarif].path, "tools/lint/sarif.h");
  EXPECT_EQ(index.Resolve("lint/sarif.h"), ProjectIndex::npos);
  EXPECT_EQ(index.Resolve("vector"), ProjectIndex::npos);
}

TEST(ProjectIndex, FixtureTreesResolveByInnerSrcSuffix) {
  std::vector<FileIndex> files;
  files.push_back(BuildFileIndex(
      "tests/lint/testdata/layering/src/core/fixture_core.h", "int x;\n"));
  const ProjectIndex index = BuildProjectIndex(std::move(files));
  EXPECT_NE(index.Resolve("core/fixture_core.h"), ProjectIndex::npos);
}

// ---------------------------------------------------------------------------
// Metric-literal extraction

std::vector<MetricLiteral> Metrics(const std::string& source) {
  return BuildFileIndex("src/core/m.cc", source).metrics;
}

TEST(ExtractMetricLiterals, FindsAllThreeKindsAndRegistryForms) {
  const std::vector<MetricLiteral> metrics =
      Metrics("void F() {\n"
              "  Counter(\"search.runs\");\n"
              "  Gauge(\"pool.workers\");\n"
              "  Histogram(\"serve.batch.size\");\n"
              "  registry.GetCounter(\"search.evaluations\");\n"
              "}\n");
  ASSERT_EQ(metrics.size(), 4u);
  EXPECT_EQ(metrics[0].kind, "counter");
  EXPECT_EQ(metrics[0].pattern, "search.runs");
  EXPECT_EQ(metrics[0].line, 2u);
  EXPECT_EQ(metrics[1].kind, "gauge");
  EXPECT_EQ(metrics[2].kind, "histogram");
  EXPECT_EQ(metrics[3].kind, "counter");
  EXPECT_EQ(metrics[3].pattern, "search.evaluations");
}

TEST(ExtractMetricLiterals, HandlesLineBreaksAndAdjacentLiterals) {
  // A name split across a line break via adjacent string literals is one
  // registration with the line of the opening call.
  const std::vector<MetricLiteral> metrics =
      Metrics("void F() {\n"
              "  Counter(\n"
              "      \"serve.model.\"\n"
              "      \"swaps\");\n"
              "}\n");
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].pattern, "serve.model.swaps");
}

TEST(ExtractMetricLiterals, NormalizesDynamicSegments) {
  const std::vector<MetricLiteral> metrics =
      Metrics("void F(const std::string& endpoint, const char* cause) {\n"
              "  Counter(StrFormat(\"serve.%s.requests\", endpoint));\n"
              "  Counter(std::string(\"run.stops.\") + cause);\n"
              "}\n");
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].pattern, "serve.<dynamic>.requests");
  EXPECT_EQ(metrics[1].pattern, "run.stops.<dynamic>");
}

TEST(ExtractMetricLiterals, IgnoresCommentsAndNonSrcFiles) {
  EXPECT_TRUE(Metrics("// Counter(\"search.runs\")\n").empty());
  // Test code may spell metric-looking literals freely: only files under
  // a src/ segment are scanned at all.
  const FileIndex test_file = BuildFileIndex(
      "tests/core/m_test.cc", "void F() { Counter(\"search.runs\"); }\n");
  EXPECT_TRUE(test_file.metrics.empty());
}

// ---------------------------------------------------------------------------
// Layer spec parsing and the layering rule

const char kSpec[] =
    "layer common src/common/\n"
    "layer core   src/core/\n"
    "layer tools  tools/\n"
    "allow core  -> common\n"
    "allow tools -> core\n";

TEST(ParseLayerSpec, BuildsTransitiveClosure) {
  LayerSpec spec;
  std::string error;
  ASSERT_TRUE(ParseLayerSpec(kSpec, spec, error)) << error;
  // tools reaches core directly and common transitively.
  EXPECT_EQ(spec.reachable["tools"].count("common"), 1u);
  EXPECT_EQ(spec.reachable["common"].count("core"), 0u);
  EXPECT_EQ(LayerOf(spec, "src/core/detector.h"), "core");
  EXPECT_EQ(LayerOf(spec, "tests/lint/testdata/x/src/core/a.h"), "core");
  EXPECT_EQ(LayerOf(spec, "PAPER.md"), "");
}

TEST(ParseLayerSpec, RejectsUnknownAndDuplicateLayers) {
  LayerSpec spec;
  std::string error;
  EXPECT_FALSE(ParseLayerSpec("allow a -> b\n", spec, error));
  EXPECT_FALSE(ParseLayerSpec(
      "layer a src/a/\nlayer a src/b/\n", spec, error));
}

ProjectIndex IndexOf(std::vector<FileIndex> files) {
  return BuildProjectIndex(std::move(files));
}

TEST(CheckLayering, ReportsUpwardIncludeAtItsLine) {
  LayerSpec spec;
  std::string error;
  ASSERT_TRUE(ParseLayerSpec(kSpec, spec, error)) << error;
  const ProjectIndex index = IndexOf({
      BuildFileIndex("src/common/bad.cc",
                     "// comment\n#include \"core/detector.h\"\n"),
      BuildFileIndex("src/core/detector.h", "int x;\n"),
  });
  const std::vector<Finding> findings = CheckLayering(index, spec);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].path, "src/common/bad.cc");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("'core'"), std::string::npos);
}

TEST(CheckLayering, ReportsCycleWithFullPath) {
  LayerSpec spec;
  std::string error;
  ASSERT_TRUE(ParseLayerSpec(kSpec, spec, error)) << error;
  // A three-file SCC inside one layer: a -> b -> c -> a.
  const ProjectIndex index = IndexOf({
      BuildFileIndex("src/core/a.h", "#include \"core/b.h\"\n"),
      BuildFileIndex("src/core/b.h", "#include \"core/c.h\"\n"),
      BuildFileIndex("src/core/c.h", "#include \"core/a.h\"\n"),
  });
  const std::vector<Finding> findings = CheckLayering(index, spec);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("include cycle: src/core/a.h -> "
                                     "src/core/b.h -> src/core/c.h -> "
                                     "src/core/a.h"),
            std::string::npos);
}

TEST(CheckLayering, CleanGraphAndSelfLayerIncludesPass) {
  LayerSpec spec;
  std::string error;
  ASSERT_TRUE(ParseLayerSpec(kSpec, spec, error)) << error;
  const ProjectIndex index = IndexOf({
      BuildFileIndex("src/core/a.h",
                     "#include \"core/b.h\"\n#include \"common/rng.h\"\n"),
      BuildFileIndex("src/core/b.h", "#include <vector>\n"),
      BuildFileIndex("src/common/rng.h", "int x;\n"),
  });
  EXPECT_TRUE(CheckLayering(index, spec).empty());
}

// ---------------------------------------------------------------------------
// Metric contract parsing and the contract rule

TEST(ParseMetricContract, ParsesEntriesAndFlagsMalformedLines) {
  std::vector<Finding> findings;
  const std::vector<MetricContractEntry> entries = ParseMetricContract(
      "src/obs/telemetry.h",
      SplitLines("// METRIC-CONTRACT-BEGIN\n"
                 "//   counter search.runs invariant\n"
                 "//   gauge pool.workers variant snapshot of the shared pool\n"
                 "//   histogram serve.<endpoint>.latency_seconds variant\n"
                 "//   counter Bad.Grammar invariant\n"
                 "//   counter search.runs sometimes\n"
                 "// METRIC-CONTRACT-END\n"),
      findings);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].kind, "counter");
  EXPECT_EQ(entries[0].pattern, "search.runs");
  EXPECT_TRUE(entries[0].invariant);
  EXPECT_FALSE(entries[1].invariant);
  EXPECT_EQ(entries[2].pattern, "serve.<endpoint>.latency_seconds");
  // The bad-grammar line and the bad-variance line each yield a finding.
  EXPECT_EQ(findings.size(), 2u);
}

TEST(ParseMetricContract, MissingBlockIsAFinding) {
  std::vector<Finding> findings;
  const std::vector<MetricContractEntry> entries =
      ParseMetricContract("src/obs/telemetry.h",
                          SplitLines("// no markers here\n"), findings);
  EXPECT_TRUE(entries.empty());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metric-contract");
}

TEST(IsValidMetricPattern, EnforcesDottedGrammar) {
  EXPECT_TRUE(IsValidMetricPattern("search.runs", false));
  EXPECT_TRUE(IsValidMetricPattern("serve.score.latency_seconds", false));
  EXPECT_FALSE(IsValidMetricPattern("single", false));
  EXPECT_FALSE(IsValidMetricPattern("Bad.Name", false));
  EXPECT_FALSE(IsValidMetricPattern("trailing.", false));
  EXPECT_FALSE(IsValidMetricPattern("1starts.with_digit", false));
  EXPECT_TRUE(IsValidMetricPattern("serve.<endpoint>.requests", true));
  EXPECT_FALSE(IsValidMetricPattern("serve.<endpoint>.requests", false));
}

TEST(CheckMetricContract, MatchesPlaceholdersBothWays) {
  const ProjectIndex index = IndexOf({
      BuildFileIndex("src/obs/telemetry.h",
                     "// METRIC-CONTRACT-BEGIN\n"
                     "//   counter run.stops.<cause> invariant\n"
                     "//   counter search.runs invariant\n"
                     "// METRIC-CONTRACT-END\n"),
      BuildFileIndex("src/core/m.cc",
                     "void F(const char* cause) {\n"
                     "  Counter(std::string(\"run.stops.\") + cause);\n"
                     "  Counter(\"search.runs\");\n"
                     "}\n"),
  });
  EXPECT_TRUE(CheckMetricContract(index).empty());
}

TEST(CheckMetricContract, FlagsUndeclaredAndDeadEntries) {
  const ProjectIndex index = IndexOf({
      BuildFileIndex("src/obs/telemetry.h",
                     "// METRIC-CONTRACT-BEGIN\n"
                     "//   counter docs.only invariant\n"
                     "// METRIC-CONTRACT-END\n"),
      BuildFileIndex("src/core/m.cc",
                     "void F() { Counter(\"code.only\"); }\n"),
  });
  const std::vector<Finding> findings = CheckMetricContract(index);
  ASSERT_EQ(findings.size(), 2u);
  bool saw_undeclared = false;
  bool saw_dead = false;
  for (const Finding& f : findings) {
    if (f.message.find("code.only") != std::string::npos) {
      saw_undeclared = true;
      EXPECT_EQ(f.path, "src/core/m.cc");
    }
    if (f.message.find("dead contract entry") != std::string::npos) {
      saw_dead = true;
      EXPECT_EQ(f.path, "src/obs/telemetry.h");
      EXPECT_EQ(f.line, 2u);
    }
  }
  EXPECT_TRUE(saw_undeclared);
  EXPECT_TRUE(saw_dead);
}

}  // namespace
}  // namespace lint
}  // namespace hido
