#include "serve/score_service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "data/generators/synthetic.h"
#include "ensemble/ensemble_detector.h"

namespace hido {
namespace serve {
namespace {

GeneratedDataset MakeData() {
  SubspaceOutlierConfig config;
  config.num_points = 300;
  config.num_dims = 8;
  config.num_groups = 3;
  config.num_outliers = 3;
  config.seed = 9;
  return GenerateSubspaceOutliers(config);
}

std::shared_ptr<ModelSnapshot> FitSnapshot(const GeneratedDataset& g,
                                           uint64_t seed = 3) {
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 2;
  config.num_projections = 8;
  config.evolution.restarts = 4;
  config.seed = seed;
  return std::make_shared<ModelSnapshot>(
      MakeSnapshot(OutlierDetector(config).Detect(g.data), g.data, seed));
}

std::shared_ptr<ModelSnapshot> FitEnsembleSnapshot(const GeneratedDataset& g,
                                                   uint64_t seed = 3) {
  ensemble::EnsembleConfig config;
  config.base.phi = 5;
  config.base.target_dim = 2;
  config.base.num_projections = 6;
  config.base.evolution.population_size = 24;
  config.base.evolution.max_generations = 10;
  config.base.evolution.stagnation_generations = 0;
  config.base.evolution.restarts = 1;
  config.base.seed = seed;
  config.ensemble.num_members = 3;
  config.ensemble.combiner = ensemble::CombinerKind::kMeanNormalized;
  return std::make_shared<ModelSnapshot>(MakeEnsembleSnapshot(
      ensemble::EnsembleDetector(config).Detect(g.data), g.data, seed));
}

std::string CsvRow(const Dataset& data, size_t row) {
  std::vector<std::string> fields;
  for (const double v : data.Row(row)) {
    fields.push_back(StrFormat("%.17g", v));
  }
  return Join(fields, ",");
}

TEST(ScoreServiceTest, NoModelPublishedIsAnError) {
  ScoreService service;
  EXPECT_EQ(service.Handle("score 1,2,3"), "err no model published");
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(service.Current(), nullptr);
}

TEST(ScoreServiceTest, ScoreMatchesDirectModelScore) {
  const GeneratedDataset g = MakeData();
  std::shared_ptr<ModelSnapshot> snapshot = FitSnapshot(g);
  const ensemble::Model model = snapshot->model;  // copy before publishing
  ScoreService service;
  EXPECT_EQ(service.Publish(std::move(snapshot)), 1u);

  for (size_t row = 0; row < g.data.num_rows(); row += 17) {
    const ensemble::ModelScore expected = model.Score(g.data.Row(row));
    EXPECT_EQ(service.Handle("score " + CsvRow(g.data, row)),
              StrFormat("ok score=%.17g covering=%zu gen=1",
                        expected.score, expected.covering_projections))
        << "row " << row;
  }
}

TEST(ScoreServiceTest, ProtocolErrorsAndPing) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));

  EXPECT_EQ(service.Handle("ping"), "ok pong");
  EXPECT_EQ(service.Handle("score 1,2"), "err expected 8 values, got 2");
  const std::string bad = service.Handle("score 1,2,3,4,5,6,7,junk");
  EXPECT_EQ(bad.substr(0, 3), "err") << bad;
  EXPECT_EQ(service.Handle("bogus"), "err unknown command 'bogus'");
  EXPECT_FALSE(service.shutdown_requested());

  // Missing-value spellings become NaN coordinates (valid, not errors).
  const std::string missing = service.Handle("score 1,2,3,4,5,6,7,?");
  EXPECT_EQ(missing.substr(0, 8), "ok score") << missing;
}

TEST(ScoreServiceTest, InfoReportsProvenance) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g, /*seed=*/3));
  const std::string info = service.Handle("info");
  EXPECT_NE(info.find("ok gen=1"), std::string::npos) << info;
  EXPECT_NE(info.find("dims=8"), std::string::npos) << info;
  EXPECT_NE(info.find("algorithm=evolutionary"), std::string::npos) << info;
  EXPECT_NE(info.find("seed=3"), std::string::npos) << info;
}

TEST(ScoreServiceTest, BatchResponsesAreByteIdenticalAcrossThreadCounts) {
  const GeneratedDataset g = MakeData();
  std::vector<std::string> lines;
  for (size_t row = 0; row < g.data.num_rows(); ++row) {
    lines.push_back("score " + CsvRow(g.data, row));
  }

  std::vector<std::vector<std::string>> per_thread_count;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ScoreServiceOptions options;
    options.num_threads = threads;
    ScoreService service(options);
    service.Publish(FitSnapshot(g));
    std::vector<ServeRequest> batch;
    for (const std::string& line : lines) {
      batch.push_back(service.MakeRequest(line));
    }
    per_thread_count.push_back(service.Process(std::move(batch)));
  }
  EXPECT_EQ(per_thread_count[0], per_thread_count[1]);
  EXPECT_EQ(per_thread_count[0], per_thread_count[2]);
  EXPECT_EQ(per_thread_count[0].front().substr(0, 8), "ok score");
}

TEST(ScoreServiceTest, ExpiredDeadlineAnswersErrDeadline) {
  const GeneratedDataset g = MakeData();
  FakeClock clock(100.0);
  ScoreServiceOptions options;
  options.request_deadline_seconds = 5.0;
  options.clock = &clock;
  ScoreService service(options);
  service.Publish(FitSnapshot(g));

  const std::string line = "score " + CsvRow(g.data, 0);
  std::vector<ServeRequest> batch;
  batch.push_back(service.MakeRequest(line));   // deadline at t=105
  batch.push_back(service.MakeRequest("ping"));  // admin: no deadline shed
  clock.Advance(10.0);  // t=110: expired

  const std::vector<std::string> responses =
      service.Process(std::move(batch));
  EXPECT_EQ(responses[0], "err deadline");
  EXPECT_EQ(responses[1], "ok pong");

  // A fresh request after the advance is still inside its own budget.
  EXPECT_EQ(service.Handle(line).substr(0, 8), "ok score");

  // The boundary: a request picked up exactly at arrival + deadline has
  // expired; one picked up just before it still scores.
  std::vector<ServeRequest> at_deadline;
  at_deadline.push_back(service.MakeRequest(line));  // arrival t=110
  clock.Advance(5.0);                                // t=115
  EXPECT_EQ(service.Process(std::move(at_deadline)).front(), "err deadline");
  std::vector<ServeRequest> before_deadline;
  before_deadline.push_back(service.MakeRequest(line));  // arrival t=115
  clock.Advance(4.999);                                  // t=119.999
  EXPECT_EQ(service.Process(std::move(before_deadline)).front().substr(0, 8),
            "ok score");
}

TEST(ScoreServiceTest, SwapPublishesNewGenerationZeroDowntime) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g, /*seed=*/3));
  ASSERT_EQ(service.generation(), 1u);

  const std::string path = ::testing::TempDir() + "/swap_snapshot.hido";
  ASSERT_TRUE(SaveSnapshot(*FitSnapshot(g, /*seed=*/7), path).ok());
  const std::string swapped = service.Handle("swap " + path);
  EXPECT_EQ(swapped.substr(0, 18), "ok swapped gen=2 d") << swapped;
  EXPECT_EQ(service.generation(), 2u);
  EXPECT_EQ(service.Current()->info.seed, 7u);

  // A bad path answers err and keeps the current snapshot serving.
  EXPECT_EQ(service.Handle("swap /no/such/file").substr(0, 3), "err");
  EXPECT_EQ(service.generation(), 2u);
  std::remove(path.c_str());
}

// Swap-fault hardening: whatever is wrong with the snapshot on disk —
// missing, truncated mid-stream, or outright garbage — the answer is an
// `err ...` line and the served generation (and scores) are untouched.
TEST(ScoreServiceTest, SwapFaultsLeaveServedGenerationUntouched) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g, /*seed=*/3));
  ASSERT_EQ(service.generation(), 1u);
  const std::string line = "score " + CsvRow(g.data, 0);
  const std::string baseline = service.Handle(line);
  ASSERT_EQ(baseline.substr(0, 8), "ok score");

  const std::string good_path = ::testing::TempDir() + "/swap_good.hido";
  ASSERT_TRUE(SaveSnapshot(*FitSnapshot(g, /*seed=*/7), good_path).ok());
  const Result<FileBytes> read = ReadFile(good_path);
  ASSERT_TRUE(read.ok());
  const std::string bytes(read.value().view());

  const std::string truncated_path =
      ::testing::TempDir() + "/swap_truncated.hido";
  ASSERT_TRUE(WriteFileAtomic(truncated_path,
                              bytes.substr(0, bytes.size() / 2))
                  .ok());
  const std::string corrupt_path =
      ::testing::TempDir() + "/swap_corrupt.hido";
  std::string corrupt = bytes;
  for (size_t i = 0; i < corrupt.size(); i += 3) corrupt[i] ^= 0x5a;
  ASSERT_TRUE(WriteFileAtomic(corrupt_path, corrupt).ok());

  // Counts a crafted file could use to size an allocation: the model's
  // num_dims and phi, and a v2's member count.
  const std::string ensemble_bytes = SerializeSnapshot(*FitEnsembleSnapshot(g));
  const size_t model_text = bytes.find("hido-model");
  ASSERT_NE(model_text, std::string::npos);
  std::vector<std::string> crafted_paths;
  for (const auto& [text, key, from] :
       {std::tuple(bytes, "\nnum_dims ", model_text),
        std::tuple(bytes, "\nphi ", model_text),
        std::tuple(ensemble_bytes, "\nmembers ", size_t{0})}) {
    std::string crafted = text;
    const size_t start = crafted.find(key, from) + std::strlen(key);
    crafted.replace(start, crafted.find('\n', start) - start,
                    "999999999999");
    crafted_paths.push_back(::testing::TempDir() + "/swap_crafted_" +
                            std::to_string(crafted_paths.size()) + ".hido");
    ASSERT_TRUE(WriteFileAtomic(crafted_paths.back(), crafted).ok());
  }

  std::vector<std::string> bad_paths = {"/no/such/dir/snapshot.hido",
                                        truncated_path, corrupt_path};
  bad_paths.insert(bad_paths.end(), crafted_paths.begin(),
                   crafted_paths.end());
  for (const std::string& bad : bad_paths) {
    const std::string response = service.Handle("swap " + bad);
    EXPECT_EQ(response.substr(0, 4), "err ") << bad << " -> " << response;
    EXPECT_EQ(service.generation(), 1u) << bad;
    EXPECT_EQ(service.Handle(line), baseline) << bad;
  }

  // The service is not wedged: the intact snapshot still swaps in.
  EXPECT_EQ(service.Handle("swap " + good_path).substr(0, 16),
            "ok swapped gen=2");
  EXPECT_EQ(service.generation(), 2u);
  std::remove(good_path.c_str());
  for (size_t i = 1; i < bad_paths.size(); ++i) {
    std::remove(bad_paths[i].c_str());
  }
}

// The RCU contract: score requests racing an arbitrary number of model
// swaps never fail and never observe a torn model — every response is a
// well-formed `ok score=... gen=<g>` where <g> is one of the published
// generations.
TEST(ScoreServiceTest, ConcurrentSwapsLoseNoRequests) {
  const GeneratedDataset g = MakeData();
  ScoreServiceOptions options;
  options.num_threads = 4;
  ScoreService service(options);
  service.Publish(FitSnapshot(g, 3));

  std::shared_ptr<ModelSnapshot> next = FitSnapshot(g, 7);
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> scorers;
  for (int t = 0; t < 4; ++t) {
    scorers.emplace_back([&, t] {
      size_t row = static_cast<size_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const std::string response =
            service.Handle("score " + CsvRow(g.data, row));
        if (response.compare(0, 9, "ok score=") != 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        row = (row + 7) % g.data.num_rows();
      }
    });
  }
  for (int swap = 0; swap < 50; ++swap) {
    service.Publish(std::make_shared<ModelSnapshot>(*next));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& scorer : scorers) scorer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.generation(), 51u);
}

// ------------------------------------------------------- ensemble v2 --

// Ensemble score responses carry members=<E> (placed before gen=, which
// smoke tooling locates with a reverse search) and match the in-memory
// model byte for byte.
TEST(ScoreServiceTest, EnsembleScoreMatchesDirectModelScore) {
  const GeneratedDataset g = MakeData();
  std::shared_ptr<ModelSnapshot> snapshot = FitEnsembleSnapshot(g);
  const ensemble::Model model = snapshot->model;
  ScoreService service;
  EXPECT_EQ(service.Publish(std::move(snapshot)), 1u);

  for (size_t row = 0; row < g.data.num_rows(); row += 17) {
    const ensemble::ModelScore expected = model.Score(g.data.Row(row));
    EXPECT_EQ(service.Handle("score " + CsvRow(g.data, row)),
              StrFormat("ok score=%.17g covering=%zu members=3 gen=1",
                        expected.score, expected.covering_projections))
        << "row " << row;
  }
}

TEST(ScoreServiceTest, EnsembleInfoReportsMembersAndCombiner) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitEnsembleSnapshot(g, /*seed=*/5));
  const std::string info = service.Handle("info");
  EXPECT_NE(info.find("ok gen=1"), std::string::npos) << info;
  EXPECT_NE(info.find("algorithm=ensemble"), std::string::npos) << info;
  EXPECT_NE(info.find("members=3"), std::string::npos) << info;
  EXPECT_NE(info.find("combiner=mean"), std::string::npos) << info;
  EXPECT_NE(info.find("seed=5"), std::string::npos) << info;
}

// The zero-downtime swap criterion for the ensemble subsystem: a serving
// process moves single -> ensemble -> single through `swap` with every
// request answered and the response shape tracking the model kind.
TEST(ScoreServiceTest, SwapBetweenSingleAndEnsembleGenerations) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g, /*seed=*/3));
  const std::string line = "score " + CsvRow(g.data, 0);
  ASSERT_EQ(service.Handle(line).substr(0, 8), "ok score");

  const std::string ensemble_path =
      ::testing::TempDir() + "/swap_to_ensemble.hido";
  ASSERT_TRUE(SaveSnapshot(*FitEnsembleSnapshot(g, /*seed=*/7),
                           ensemble_path)
                  .ok());
  EXPECT_EQ(service.Handle("swap " + ensemble_path).substr(0, 16),
            "ok swapped gen=2");
  const std::string ensemble_response = service.Handle(line);
  EXPECT_NE(ensemble_response.find(" members=3 gen=2"), std::string::npos)
      << ensemble_response;
  EXPECT_TRUE(service.Current()->is_ensemble());

  const std::string single_path =
      ::testing::TempDir() + "/swap_to_single.hido";
  ASSERT_TRUE(SaveSnapshot(*FitSnapshot(g, /*seed=*/3), single_path).ok());
  EXPECT_EQ(service.Handle("swap " + single_path).substr(0, 16),
            "ok swapped gen=3");
  const std::string single_response = service.Handle(line);
  EXPECT_EQ(single_response.find("members="), std::string::npos)
      << single_response;
  EXPECT_NE(single_response.find("gen=3"), std::string::npos)
      << single_response;
  EXPECT_FALSE(service.Current()->is_ensemble());
  std::remove(ensemble_path.c_str());
  std::remove(single_path.c_str());
}

TEST(ScoreServiceTest, ShutdownSetsFlagAndAcknowledges) {
  ScoreService service;
  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(service.Handle("shutdown"), "ok bye");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ScoreServiceTest, StatsReportsCountersAndQuantiles) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  for (int i = 0; i < 5; ++i) {
    service.Handle("score " + CsvRow(g.data, static_cast<size_t>(i)));
  }
  const std::string stats = service.Handle("stats");
  EXPECT_EQ(stats.substr(0, 12), "ok requests=") << stats;
  EXPECT_NE(stats.find("score_p50_seconds="), std::string::npos) << stats;
  EXPECT_NE(stats.find("score_p99_seconds="), std::string::npos) << stats;
}

// A protocol line damaged in flight: one to three bit flips, truncations,
// NUL bytes, non-ASCII bytes, or a value replaced by one no double holds.
// A framed line never holds a newline, so any the flips make become spaces.
std::string MutateLine(std::string line, Rng& rng) {
  const size_t mutations = 1 + rng.UniformIndex(3);
  for (size_t m = 0; m < mutations && !line.empty(); ++m) {
    const size_t pos = rng.UniformIndex(line.size());
    switch (rng.UniformIndex(5)) {
      case 0:  // flip one bit
        line[pos] = static_cast<char>(line[pos] ^ (1 << rng.UniformIndex(8)));
        break;
      case 1:  // truncate
        line.resize(pos);
        break;
      case 2:  // a NUL byte
        line[pos] = '\0';
        break;
      case 3:  // a non-ASCII byte
        line[pos] = static_cast<char>(0x80 + rng.UniformIndex(0x80));
        break;
      case 4: {  // the rest of this value overflows a double
        const size_t comma = line.find(',', pos);
        line.replace(pos,
                     comma == std::string::npos ? std::string::npos
                                                : comma - pos,
                     "1e400");
        break;
      }
    }
  }
  std::replace(line.begin(), line.end(), '\n', ' ');
  return line;
}

// A deterministic mutation sweep over the line protocol: every damaged
// request gets exactly one `ok ` or `err ` line back, and the service
// answers as before afterwards.
TEST(ScoreServiceMutationSweep, EveryMutantGetsOneOkOrErrLine) {
  constexpr uint64_t kMutants = 2400;
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  const std::string path = ::testing::TempDir() + "/mutation_sweep.hido";
  ASSERT_TRUE(SaveSnapshot(*FitSnapshot(g, /*seed=*/7), path).ok());
  const std::string fixed = "score " + CsvRow(g.data, 0);
  const std::vector<std::string> valid = {
      fixed, "score " + CsvRow(g.data, 17), "info", "stats", "ping",
      "swap " + path};
  std::string wide = "score 0.5";  // 100 000 values for an 8-dim model
  for (int v = 1; v < 100000; ++v) wide += ",0.5";
  const std::string fixed_reply = service.Handle(fixed);
  const uint64_t generation = service.generation();

  size_t ok = 0;
  size_t err = 0;
  for (uint64_t seed = 1; seed <= kMutants; ++seed) {
    Rng rng(seed * 104729);
    const std::string line =
        seed % 400 == 0 ? wide
                        : MutateLine(valid[seed % valid.size()], rng);
    const std::string reply = service.Handle(line);
    EXPECT_EQ(reply.find('\n'), std::string::npos) << "seed " << seed;
    if (reply.rfind("ok ", 0) == 0) {
      ++ok;
    } else {
      EXPECT_EQ(reply.rfind("err ", 0), 0u) << "seed " << seed << ": "
                                             << reply;
      ++err;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(err, 0u);
  EXPECT_EQ(service.Handle("ping"), "ok pong");
  EXPECT_EQ(service.generation(), generation);  // no mutant swapped
  EXPECT_EQ(service.Handle(fixed), fixed_reply);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace hido
