#include "serve/snapshot.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/run_control.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "core/scoring.h"
#include "data/generators/synthetic.h"
#include "ensemble/ensemble_detector.h"
#include "serve/score_service.h"

namespace hido {
namespace serve {
namespace {

GeneratedDataset MakeData() {
  SubspaceOutlierConfig config;
  config.num_points = 400;
  config.num_dims = 12;
  config.num_groups = 3;
  config.num_outliers = 4;
  config.seed = 6;
  return GenerateSubspaceOutliers(config);
}

DetectionResult Fit(const GeneratedDataset& g, size_t num_threads = 1) {
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 2;
  config.num_projections = 10;
  config.evolution.restarts = 6;
  config.seed = 3;
  config.num_threads = num_threads;
  return OutlierDetector(config).Detect(g.data);
}

TEST(SnapshotTest, RoundTripPreservesInfoAndModel) {
  const GeneratedDataset g = MakeData();
  const DetectionResult result = Fit(g);
  const ModelSnapshot snapshot = MakeSnapshot(result, g.data, /*seed=*/3);
  EXPECT_EQ(snapshot.info.algorithm, "evolutionary");
  EXPECT_EQ(snapshot.info.seed, 3u);
  EXPECT_EQ(snapshot.info.phi, result.phi);
  EXPECT_EQ(snapshot.info.target_dim, result.target_dim);

  const Result<ModelSnapshot> back =
      ParseSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().info.algorithm, snapshot.info.algorithm);
  EXPECT_EQ(back.value().info.seed, snapshot.info.seed);
  EXPECT_EQ(back.value().info.phi, snapshot.info.phi);
  EXPECT_EQ(back.value().info.target_dim, snapshot.info.target_dim);
  EXPECT_EQ(back.value().model.num_projections(),
            snapshot.model.num_projections());
  // The serialized form is canonical: one more round trip is a fixpoint.
  EXPECT_EQ(SerializeSnapshot(back.value()), SerializeSnapshot(snapshot));
}

// The serving contract (DESIGN.md "Serving"): scoring a training row out of
// a saved-and-reloaded snapshot is *byte-identical* (%.17g) to scoring it
// straight out of the in-process detection result, for every thread count
// used at fit time.
TEST(SnapshotTest, ReloadedSnapshotScoresByteIdenticalAcrossThreadCounts) {
  const GeneratedDataset g = MakeData();
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const DetectionResult result = Fit(g, threads);
    const ModelSnapshot snapshot = MakeSnapshot(result, g.data, 3);

    const std::string path = ::testing::TempDir() +
                             StrFormat("/snapshot_rt_%zu.hido", threads);
    ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
    const Result<std::shared_ptr<ModelSnapshot>> loaded =
        LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::remove(path.c_str());

    const std::vector<PointScore> direct =
        ScoreAllPoints(result.grid, result.report.projections);
    for (size_t row = 0; row < g.data.num_rows(); ++row) {
      const ensemble::ModelScore served =
          loaded.value()->model.Score(g.data.Row(row));
      EXPECT_EQ(StrFormat("%.17g", served.score),
                StrFormat("%.17g", direct[row].sparsity_score))
          << "row " << row << " threads " << threads;
      EXPECT_EQ(served.covering_projections,
                direct[row].covering_projections)
          << "row " << row << " threads " << threads;
    }
  }
}

TEST(SnapshotTest, UnknownVersionRejectedWithClearMessage) {
  const GeneratedDataset g = MakeData();
  const ModelSnapshot snapshot = MakeSnapshot(Fit(g), g.data, 3);
  std::string text = SerializeSnapshot(snapshot);
  const size_t pos = text.find("v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "v3");
  const Result<ModelSnapshot> parsed = ParseSnapshot(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unsupported version 'v3'"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SnapshotTest, UnknownHeaderKeysAreIgnored) {
  const GeneratedDataset g = MakeData();
  const ModelSnapshot snapshot = MakeSnapshot(Fit(g), g.data, 3);
  std::string text = SerializeSnapshot(snapshot);
  const size_t pos = text.find("algorithm");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "future_key future value\n");
  EXPECT_TRUE(ParseSnapshot(text).ok());
}

TEST(SnapshotTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseSnapshot("").ok());
  EXPECT_FALSE(ParseSnapshot("not-a-snapshot v1").ok());
  EXPECT_FALSE(ParseSnapshot("hido-snapshot v1\nalgorithm evolutionary\n")
                   .ok());  // no model section
  EXPECT_FALSE(
      ParseSnapshot("hido-snapshot v1\nalgorithm quantum\nmodel\n").ok());
  EXPECT_FALSE(
      ParseSnapshot("hido-snapshot v1\nseed -12x\nmodel\n").ok());
}

TEST(SnapshotTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadSnapshot("/no/such/snapshot.hido").ok());
}

// ------------------------------------------------------------------- v2 --

ensemble::EnsembleDetectionResult FitEnsemble(const GeneratedDataset& g) {
  ensemble::EnsembleConfig config;
  config.base.phi = 5;
  config.base.target_dim = 2;
  config.base.num_projections = 6;
  config.base.evolution.population_size = 24;
  config.base.evolution.max_generations = 10;
  config.base.evolution.stagnation_generations = 0;
  config.base.evolution.restarts = 1;
  config.base.seed = 3;
  config.ensemble.num_members = 3;
  config.ensemble.combiner = ensemble::CombinerKind::kMeanNormalized;
  config.ensemble.mix = {ensemble::MemberKind::kGa,
                         ensemble::MemberKind::kRandomSubspace,
                         ensemble::MemberKind::kAnneal};
  config.ensemble.subspace_evaluations = 2000;
  config.ensemble.local_evaluations = 2000;
  return ensemble::EnsembleDetector(config).Detect(g.data);
}

// The v2 acceptance criterion: save -> load -> save is a byte fixpoint,
// and every ensemble field (combiner, member kinds, full-range 64-bit
// seeds, scales) survives the trip.
TEST(SnapshotTest, EnsembleRoundTripIsByteFixpoint) {
  const GeneratedDataset g = MakeData();
  const ensemble::EnsembleDetectionResult result = FitEnsemble(g);
  const ModelSnapshot snapshot = MakeEnsembleSnapshot(result, g.data, 3);
  ASSERT_TRUE(snapshot.is_ensemble());
  EXPECT_EQ(snapshot.info.algorithm, "ensemble");
  EXPECT_EQ(snapshot.model.num_projections(),
            result.members[0].projections.size() +
                result.members[1].projections.size() +
                result.members[2].projections.size());

  const std::string text = SerializeSnapshot(snapshot);
  EXPECT_EQ(text.rfind("hido-snapshot v2\n", 0), 0u);
  const Result<ModelSnapshot> back = ParseSnapshot(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back.value().is_ensemble());
  const ensemble::Model& model = back.value().model;
  EXPECT_EQ(model.combiner, result.combiner);
  ASSERT_EQ(model.members.size(), result.members.size());
  for (size_t i = 0; i < result.members.size(); ++i) {
    EXPECT_EQ(model.members[i].kind, result.members[i].kind);
    EXPECT_EQ(model.members[i].seed, result.members[i].seed);
    EXPECT_EQ(StrFormat("%.17g", model.members[i].score_scale),
              StrFormat("%.17g", result.members[i].score_scale));
  }
  EXPECT_EQ(SerializeSnapshot(back.value()), text);
}

// Serving parity: a reloaded v2 snapshot scores every training row
// byte-identically to the pre-save in-memory model.
TEST(SnapshotTest, ReloadedEnsembleSnapshotScoresByteIdentical) {
  const GeneratedDataset g = MakeData();
  const ModelSnapshot snapshot =
      MakeEnsembleSnapshot(FitEnsemble(g), g.data, 3);
  const std::string path =
      ::testing::TempDir() + "/snapshot_ensemble_rt.hido";
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  const Result<std::shared_ptr<ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.value()->is_ensemble());
  for (size_t row = 0; row < g.data.num_rows(); ++row) {
    const std::vector<double> values = g.data.Row(row);
    const ensemble::ModelScore direct = snapshot.model.Score(values);
    const ensemble::ModelScore served = loaded.value()->model.Score(values);
    EXPECT_EQ(StrFormat("%.17g", served.score),
              StrFormat("%.17g", direct.score))
        << "row " << row;
    EXPECT_EQ(served.covering_projections, direct.covering_projections)
        << "row " << row;
  }
}

// Seeds are raw Rng::Next64 values, so the member parser must accept the
// full uint64_t range — a signed parse truncates at INT64_MAX.
TEST(SnapshotTest, EnsembleMemberSeedsAboveInt64MaxRoundTrip) {
  const GeneratedDataset g = MakeData();
  ModelSnapshot snapshot = MakeEnsembleSnapshot(FitEnsemble(g), g.data, 3);
  snapshot.model.members[0].seed = 0xFFFFFFFFFFFFFFFFull;
  snapshot.info.seed = 0xFFFFFFFFFFFFFFFEull;
  const Result<ModelSnapshot> back =
      ParseSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().model.members[0].seed, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(back.value().info.seed, 0xFFFFFFFFFFFFFFFEull);
}

TEST(SnapshotTest, EnsembleMalformedInputsRejected) {
  const GeneratedDataset g = MakeData();
  const std::string good =
      SerializeSnapshot(MakeEnsembleSnapshot(FitEnsemble(g), g.data, 3));

  // Truncated mid-member: the length prefix points past EOF.
  EXPECT_FALSE(ParseSnapshot(good.substr(0, good.size() - 40)).ok());
  // Trailing junk after the last member block.
  EXPECT_FALSE(ParseSnapshot(good + "junk").ok());
  {
    std::string text = good;
    const size_t pos = text.find("member 1 ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 9, "member 2 ");  // out-of-order member index
    EXPECT_FALSE(ParseSnapshot(text).ok());
  }
  {
    std::string text = good;
    const size_t pos = text.find(" ga ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 4, " zz ");  // unknown member kind
    EXPECT_FALSE(ParseSnapshot(text).ok());
  }
  {
    std::string text = good;
    const size_t pos = text.find("combiner mean");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 13, "combiner none");  // unknown combiner
    EXPECT_FALSE(ParseSnapshot(text).ok());
  }
  // v2 header with a v1 payload marker: no members line, no model.
  EXPECT_FALSE(
      ParseSnapshot("hido-snapshot v2\nalgorithm ensemble\nmodel\n").ok());
  // members count with no member blocks behind it.
  EXPECT_FALSE(
      ParseSnapshot(
          "hido-snapshot v2\nalgorithm ensemble\ncombiner max\nmembers 2\n")
          .ok());
}

// A v1 snapshot parsed by this build stays a single-model snapshot: one
// member and no combiner.
TEST(SnapshotTest, SingleSnapshotHasNoEnsemblePayload) {
  const GeneratedDataset g = MakeData();
  const ModelSnapshot snapshot = MakeSnapshot(Fit(g), g.data, 3);
  const Result<ModelSnapshot> back =
      ParseSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().is_ensemble());
  EXPECT_EQ(back.value().model.members.size(), 1u);
  EXPECT_EQ(back.value().model.num_dims(), g.data.num_cols());
}

// -------------------------------------------------------- model text --
//
// The model text (quantizer + cubes) inside every snapshot, and the bare
// form older builds wrote for `detect --save-model`.

TEST(ModelIoTest, SerializeParseRoundTrip) {
  const GeneratedDataset g = MakeData();
  const ModelSnapshot snapshot = MakeSnapshot(Fit(g), g.data, 3);
  const ensemble::Model& model = snapshot.model;

  const Result<ModelSnapshot> restored =
      ParseSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ensemble::Model& back = restored.value().model;

  EXPECT_EQ(back.num_points, model.num_points);
  EXPECT_EQ(back.quantizer.num_cols(), model.quantizer.num_cols());
  EXPECT_EQ(back.quantizer.num_ranges(), model.quantizer.num_ranges());
  EXPECT_EQ(back.column_names, model.column_names);
  ASSERT_EQ(back.members.size(), 1u);
  const std::vector<ScoredProjection>& want = model.members[0].projections;
  const std::vector<ScoredProjection>& got = back.members[0].projections;
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].projection, want[i].projection);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_EQ(got[i].sparsity, want[i].sparsity);
  }
  // Cuts round-trip exactly (%.17g).
  for (size_t c = 0; c < model.quantizer.num_cols(); ++c) {
    EXPECT_EQ(back.quantizer.Cuts(c), model.quantizer.Cuts(c)) << c;
  }
}

TEST(ModelIoTest, RestoredModelScoresIdentically) {
  const GeneratedDataset g = MakeData();
  const DetectionResult result = Fit(g);
  const ModelSnapshot snapshot = MakeSnapshot(result, g.data, 3);
  const Result<ModelSnapshot> restored =
      ParseSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(restored.ok());

  const std::vector<PointScore> in_grid =
      ScoreAllPoints(result.grid, result.report.projections);
  for (size_t row = 0; row < g.data.num_rows(); row += 13) {
    const std::vector<double> values = g.data.Row(row);
    const ensemble::ModelScore a = snapshot.model.Score(values);
    const ensemble::ModelScore b = restored.value().model.Score(values);
    EXPECT_EQ(a.score, b.score) << row;
    EXPECT_EQ(a.covering_projections, b.covering_projections) << row;
    // And both agree with the in-grid scorer.
    EXPECT_EQ(a.score, in_grid[row].sparsity_score) << row;
    EXPECT_EQ(a.covering_projections, in_grid[row].covering_projections)
        << row;
  }
}

TEST(ModelIoTest, PlantedAnomalyStillAlertsAfterReload) {
  const GeneratedDataset g = MakeData();
  const Result<ModelSnapshot> restored =
      ParseSnapshot(SerializeSnapshot(MakeSnapshot(Fit(g), g.data, 3)));
  ASSERT_TRUE(restored.ok());
  size_t alerts = 0;
  for (size_t row : g.outlier_rows) {
    alerts += restored.value().model.Score(g.data.Row(row))
                          .covering_projections > 0
                  ? 1
                  : 0;
  }
  EXPECT_GT(alerts, 0u);
}

TEST(ModelIoTest, FileRoundTrip) {
  const GeneratedDataset g = MakeData();
  const ModelSnapshot snapshot = MakeSnapshot(Fit(g), g.data, 3);
  const std::string path = ::testing::TempDir() + "/hido_model_test.hido";
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  const Result<std::shared_ptr<ModelSnapshot>> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->model.num_projections(),
            snapshot.model.num_projections());
  std::remove(path.c_str());
}

TEST(ModelIoTest, ColumnNamesWithSpacesSurvive) {
  const GeneratedDataset g = MakeData();
  Dataset named = g.data;
  named.SetColumnName(0, "pupil teacher ratio");
  const Result<ModelSnapshot> restored =
      ParseSnapshot(SerializeSnapshot(MakeSnapshot(Fit(g), named, 3)));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().model.column_names[0], "pupil teacher ratio");
}

TEST(ModelIoTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseSnapshot("").ok());
  EXPECT_FALSE(ParseSnapshot("garbage v1").ok());
  EXPECT_FALSE(ParseSnapshot("hido-model v999").ok());

  const GeneratedDataset g = MakeData();
  const std::string text =
      SerializeSnapshot(MakeSnapshot(Fit(g), g.data, 3));
  // Corrupt a projection's count.
  const size_t pos = text.find("projection ");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupted = text;
  corrupted.replace(pos, 11, "projection x");
  EXPECT_FALSE(ParseSnapshot(corrupted).ok());

  // Truncate mid-file.
  EXPECT_FALSE(ParseSnapshot(text.substr(0, text.size() / 2)).ok());
}

TEST(ModelIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadSnapshot("/no/such/model.hido").ok());
}

TEST(ModelIoDeathTest, WrongWidthScoreAborts) {
  const GeneratedDataset g = MakeData();
  const Result<ModelSnapshot> restored =
      ParseSnapshot(SerializeSnapshot(MakeSnapshot(Fit(g), g.data, 3)));
  ASSERT_TRUE(restored.ok());
  EXPECT_DEATH(restored.value().model.Score({1.0}), "coordinates");
}

// ----------------------------------------------------- golden fixtures --
//
// Files an older build wrote, pinned byte for byte. serve/testdata holds a
// v1 and a v2 snapshot and a bare `hido-model v1` file, all written by the
// build that still had separate single, ensemble and bare model types:
//
//   hido-gen subspace --rows 400 --dims 12 --outliers 4 --seed 6
//   F="--phi 5 --k 2 --m 10 --restarts 6 --seed 3"
//   hido fit $F --out v1.snapshot
//   hido fit $F --ensemble 3 --ensemble-mix ga,random-subspace,anneal
//       --out v2.snapshot
//   hido detect $F --save-model bare.hido
//
// plus that build's `hido serve` replies to the first 100 data rows
// (requests.txt) against v1 (v1.replies) and v2 (v2.replies). The bare file
// is v1's model text exactly, so it answers v1's replies.

std::string ReadFixture(const std::string& name) {
  const Result<FileBytes> bytes =
      ReadFile(std::string(HIDO_SERVE_TESTDATA) + "/" + name);
  EXPECT_TRUE(bytes.ok()) << name << ": " << bytes.status().ToString();
  return bytes.ok() ? std::string(bytes.value().view()) : std::string();
}

std::vector<std::string> FixtureLines(const std::string& name) {
  std::vector<std::string> lines = Split(ReadFixture(name), '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

// `text` with its first "<key> <value>" line at or after `from` replaced.
std::string WithLine(std::string text, const std::string& key,
                     const std::string& value, size_t from = 0) {
  const size_t start = text.find("\n" + key + " ", from);
  EXPECT_NE(start, std::string::npos) << key;
  if (start == std::string::npos) return text;
  const size_t end = text.find('\n', start + 1);
  text.replace(start + 1, end - start - 1, key + " " + value);
  return text;
}

TEST(SnapshotTest, GoldenFixturesAnswerTheirRecordedReplies) {
  const std::vector<std::string> requests = FixtureLines("requests.txt");
  ASSERT_EQ(requests.size(), 100u);
  const std::pair<const char*, const char*> cases[] = {
      {"v1.snapshot", "v1.replies"},
      {"v2.snapshot", "v2.replies"},
      {"bare.hido", "v1.replies"}};
  for (const auto& [file, replies_file] : cases) {
    const std::vector<std::string> replies = FixtureLines(replies_file);
    ASSERT_EQ(replies.size(), requests.size()) << replies_file;
    const Result<std::shared_ptr<ModelSnapshot>> loaded =
        LoadSnapshot(std::string(HIDO_SERVE_TESTDATA) + "/" + file);
    ASSERT_TRUE(loaded.ok()) << file << ": " << loaded.status().ToString();
    ScoreService service;
    service.Publish(loaded.value());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(service.Handle(requests[i]), replies[i])
          << file << " request " << i;
    }
  }
}

TEST(SnapshotTest, GoldenFixturesAreByteFixpoints) {
  for (const char* file : {"v1.snapshot", "v2.snapshot"}) {
    const std::string text = ReadFixture(file);
    const Result<ModelSnapshot> parsed = ParseSnapshot(text);
    ASSERT_TRUE(parsed.ok()) << file << ": " << parsed.status().ToString();
    EXPECT_EQ(SerializeSnapshot(parsed.value()), text) << file;
  }
}

// A bare model file loads as a header-less v1: provenance it never
// recorded keeps the defaults, and it upgrades to the v1 bytes.
TEST(SnapshotTest, BareModelFileUpgradesToV1Bytes) {
  const std::string bare = ReadFixture("bare.hido");
  const Result<ModelSnapshot> parsed = ParseSnapshot(bare);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed.value().is_ensemble());
  EXPECT_EQ(parsed.value().info.algorithm, "evolutionary");
  EXPECT_EQ(parsed.value().info.seed, 0u);
  EXPECT_EQ(SerializeSnapshot(parsed.value()),
            "hido-snapshot v1\nalgorithm evolutionary\nseed 0\nphi 0\n"
            "target_dim 0\nmodel\n" +
                bare);
  // The v1 snapshot of the same fit carries exactly these model bytes
  // behind its six header lines.
  const std::string v1 = ReadFixture("v1.snapshot");
  size_t body = 0;
  for (int line = 0; line < 6; ++line) body = v1.find('\n', body) + 1;
  EXPECT_EQ(v1.substr(body), bare);
}

// Counts read from a file never size an allocation: a parser that reserved
// or resized from any of these would die of std::bad_alloc.
TEST(SnapshotTest, CraftedCountsAreParseErrors) {
  const std::string v1 = ReadFixture("v1.snapshot");
  const std::string v2 = ReadFixture("v2.snapshot");
  const size_t model = v1.find("hido-model");
  ASSERT_NE(model, std::string::npos);
  const std::string crafted[] = {
      WithLine(v2, "members", "999999999999"),
      WithLine(v1, "num_dims", "999999999999", model),
      WithLine(v1, "phi", "999999999999", model),
      // phi must lie in [2, kDontCare), the range --phi accepts.
      WithLine(v1, "phi", "1", model),
      WithLine(v1, "phi", "65535", model),
      WithLine(v1, "phi", "65534", model),
      WithLine(v1, "num_projections", "999999999999", model),
  };
  for (const std::string& text : crafted) {
    const Result<ModelSnapshot> parsed = ParseSnapshot(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError)
        << parsed.status().ToString();
  }
}

// Every v2 member block repeats the one shared quantizer; a block that
// disagrees on it, on the column names or on num_points is rejected.
TEST(SnapshotTest, EnsembleMembersMustShareTheQuantizer) {
  const std::string v2 = ReadFixture("v2.snapshot");
  const size_t second = v2.find("member 1 ");
  ASSERT_NE(second, std::string::npos);
  // Same-length edits keep model_bytes valid.
  const std::pair<std::string, std::string> edits[] = {
      {"\nnum_points 400\n", "\nnum_points 401\n"},
      {"\ncolumn 0 c0 ", "\ncolumn 0 x0 "}};
  for (const auto& [from, to] : edits) {
    std::string text = v2;
    const size_t pos = text.find(from, second);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    const Result<ModelSnapshot> parsed = ParseSnapshot(text);
    ASSERT_FALSE(parsed.ok()) << to;
    EXPECT_NE(parsed.status().message().find("disagrees with member 0"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

// --------------------------------------------------- interrupted fits --

TEST(SnapshotTest, FitStoppedBeforeItsGridIsNotSaved) {
  const GeneratedDataset g = MakeData();
  StopToken token;
  token.RequestCancel();
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 2;
  config.stop = &token;
  const DetectionResult result = OutlierDetector(config).Detect(g.data);
  ASSERT_FALSE(result.completed);

  const std::string path = ::testing::TempDir() + "/stopped_fit.snapshot";
  std::remove(path.c_str());
  const Status saved = SaveSnapshot(MakeSnapshot(result, g.data, 3), path);
  EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition)
      << saved.ToString();
  EXPECT_NE(saved.message().find("stopped"), std::string::npos)
      << saved.ToString();
  EXPECT_FALSE(ReadFile(path).ok());
}

TEST(SnapshotTest, EnsembleStoppedBeforeItsFirstMemberIsNotSaved) {
  const GeneratedDataset g = MakeData();
  // Cancelled before the grid, and stopped at the first poll after it
  // (one poll before the grid build plus one per dimension).
  for (const uint64_t failpoint : {uint64_t{0}, g.data.num_cols() + 2}) {
    StopToken token;
    if (failpoint == 0) {
      token.RequestCancel();
    } else {
      token.ArmFailpoint(failpoint);
    }
    ensemble::EnsembleConfig config;
    config.base.phi = 5;
    config.base.target_dim = 2;
    config.base.stop = &token;
    const ensemble::EnsembleDetectionResult result =
        ensemble::EnsembleDetector(config).Detect(g.data);
    ASSERT_TRUE(result.members.empty()) << failpoint;
    EXPECT_EQ(result.grid.num_dims(), failpoint == 0 ? 0 : g.data.num_cols());

    const std::string path =
        ::testing::TempDir() + "/stopped_ensemble.snapshot";
    std::remove(path.c_str());
    const Status saved =
        SaveSnapshot(MakeEnsembleSnapshot(result, g.data, 3), path);
    EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition)
        << saved.ToString();
    EXPECT_FALSE(ReadFile(path).ok()) << failpoint;
  }
}

// A fit whose grid was built keeps the degrade contract: its best-so-far
// (possibly 0-projection) v1 is written, loads and serves.
TEST(SnapshotTest, FitStoppedAfterItsGridStillSavesAServableSnapshot) {
  const GeneratedDataset g = MakeData();
  StopToken token;
  token.ArmFailpoint(g.data.num_cols() + 2);
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 2;
  config.stop = &token;
  const DetectionResult result = OutlierDetector(config).Detect(g.data);
  ASSERT_FALSE(result.completed);
  ASSERT_EQ(result.grid.num_dims(), g.data.num_cols());

  const std::string path = ::testing::TempDir() + "/degraded_fit.snapshot";
  ASSERT_TRUE(SaveSnapshot(MakeSnapshot(result, g.data, 3), path).ok());
  ScoreService service;
  ASSERT_TRUE(service.PublishFromFile(path).ok());
  std::vector<std::string> fields;
  for (const double v : g.data.Row(0)) fields.push_back(StrFormat("%.17g", v));
  EXPECT_EQ(service.Handle("score " + Join(fields, ",")).substr(0, 9),
            "ok score=");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace hido
