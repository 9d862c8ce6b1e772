// hido — command-line outlier detection by sparse subspace projections.
//
// Subcommands:
//   hido detect    --input data.csv [options]   run the detector
//   hido fit       --input data.csv --out m     freeze a serveable snapshot
//   hido serve     --snapshot m [options]       serve score queries over TCP
//   hido loadgen   --port P [options]           drive a serve with traffic
//   hido score     --input new.csv --model m    score rows against m
//   hido advise    --rows N --dims D [options]  print §2.4 parameter advice
//   hido baselines --input data.csv [options]   run kNN / LOF / DB(k,λ)
//   hido describe  --input data.csv             dataset summary
//
// `detect` prints the abnormal projections and flagged rows, explains the
// strongest ones, and optionally writes machine-readable CSVs via --output.
// `fit` + `serve` split the same pipeline across processes: fit runs the
// search once and writes an immutable snapshot; serve loads it and answers
// line-protocol score requests (see src/serve/score_service.h); score
// reads the same snapshot, which `detect --save-model` also writes.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/db_outlier.h"
#include "baselines/knn_outlier.h"
#include "baselines/lof.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/run_control.h"
#include "common/socket.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "core/parameter_advisor.h"
#include "core/report_io.h"
#include "core/scoring.h"
#include "core/search_checkpoint.h"
#include "data/column_stats.h"
#include "data/csv.h"
#include "data/encoding.h"
#include "ensemble/ensemble_detector.h"
#include "ensemble/model.h"
#include "eval/table.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/score_service.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace hido {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

bool WantsHelp(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg == "--help") return true;
  }
  return false;
}

// Parses flags; on --help prints usage (returns 0), on error prints the
// problem plus usage (returns 1), otherwise returns -1 ("keep going").
int ParseOrReport(FlagParser& flags, const std::vector<std::string>& args) {
  if (WantsHelp(args)) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  const Status parsed = flags.Parse(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }
  return -1;
}

// Reads --input. An input with no data rows is an error here, once, so no
// subcommand hands an empty dataset to code that requires rows.
Result<Dataset> LoadInput(const FlagParser& flags,
                          const StopToken* stop = nullptr) {
  const int64_t label_column = flags.GetInt("label-column");
  if (label_column < -1 || label_column > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(StrFormat(
        "--label-column must be -1 (none) or in [0, %d], got %lld",
        std::numeric_limits<int>::max(),
        static_cast<long long>(label_column)));
  }
  CsvReadOptions options;
  options.has_header = flags.GetBool("header");
  options.label_column = static_cast<int>(label_column);
  options.stop = stop;  // Ctrl-C aborts a long load instead of hanging it
  Result<Dataset> data = [&]() -> Result<Dataset> {
    if (!flags.GetBool("encode-categorical")) {
      return ReadCsv(flags.GetString("input"), options);
    }
    Result<EncodedDataset> encoded =
        ReadCsvEncoded(flags.GetString("input"), options);
    if (!encoded.ok()) return encoded.status();
    for (const CategoricalMapping& mapping : encoded.value().categorical) {
      std::fprintf(stderr,
                   "note: column '%s' is categorical (%zu values, "
                   "ordinal-encoded)\n",
                   encoded.value().data.ColumnName(mapping.column).c_str(),
                   mapping.values.size());
    }
    return std::move(encoded.value().data);
  }();
  if (data.ok() && data.value().num_rows() == 0) {
    return Status::InvalidArgument(
        StrFormat("%s has no data rows", flags.GetString("input").c_str()));
  }
  return data;
}

// The grid fits ranges from each column's present values, so `detect` and
// `fit` need at least one in every column.
Status CheckEveryColumnHasValues(const FlagParser& flags,
                                 const Dataset& data) {
  for (size_t c = 0; c < data.num_cols(); ++c) {
    // Stops at the column's first value, where PresentCount reads it all.
    size_t row = 0;
    while (row < data.num_rows() && data.IsMissing(row, c)) ++row;
    if (row == data.num_rows()) {
      return Status::InvalidArgument(StrFormat(
          "%s: column '%s' has no values (every cell is missing)",
          flags.GetString("input").c_str(), data.ColumnName(c).c_str()));
    }
  }
  return Status::Ok();
}

void AddInputFlags(FlagParser& flags) {
  flags.AddString("input", "", "input CSV path", /*required=*/true);
  flags.AddBool("header", true, "first CSV line is a header");
  flags.AddInt("label-column", -1,
               "column index holding class labels (-1: none)");
  flags.AddBool("encode-categorical", true,
                "ordinal-encode non-numeric columns instead of failing");
}

void AddTelemetryFlags(FlagParser& flags) {
  flags.AddString("metrics-json", "",
                  "write machine-readable run telemetry (config, metrics, "
                  "results, timing tree) to this path as JSON");
  flags.AddBool("stats", false,
                "print a run-telemetry summary to stderr after the run");
}

// Captures and emits telemetry when --metrics-json or --stats asked for it.
// Returns a non-zero exit code only when the JSON write fails.
int EmitTelemetry(const FlagParser& flags, const char* tool,
                  obs::TelemetryRow config,
                  std::vector<obs::TelemetryRow> results) {
  const std::string path = flags.GetString("metrics-json");
  const bool stats = flags.GetBool("stats");
  if (path.empty() && !stats) return 0;
  obs::RunTelemetry telemetry = obs::CaptureRunTelemetry(tool);
  telemetry.config = std::move(config);
  telemetry.results = std::move(results);
  if (stats) {
    std::fprintf(stderr, "%s",
                 obs::RenderTelemetrySummary(telemetry).c_str());
  }
  if (!path.empty()) {
    const Status written = obs::WriteRunTelemetryJson(telemetry, path);
    if (!written.ok()) return Fail(written);
    std::printf("wrote run telemetry to %s\n", path.c_str());
  }
  return 0;
}

// Range-checks --deadline for every subcommand that reads it: 0 means
// none. A negative value would otherwise mean "no deadline" silently.
Status CheckDeadline(const FlagParser& flags) {
  const double deadline = flags.GetDouble("deadline");
  if (!(deadline >= 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "--deadline must be 0 (none) or a positive number of seconds, got %g",
        deadline));
  }
  return Status::Ok();
}

// Cancellation shared by the long-running subcommands: one token fed by an
// optional --deadline and by Ctrl-C, installed for the duration of the run.
// Either source degrades the run to a valid best-so-far report instead of
// killing the process.
class ScopedRunControl {
 public:
  explicit ScopedRunControl(double deadline_seconds) {
    if (deadline_seconds > 0.0) token_.SetDeadline(deadline_seconds);
    InstallSigintCancel(&token_);
  }
  ~ScopedRunControl() { InstallSigintCancel(nullptr); }

  const StopToken& token() const { return token_; }

  /// Prints a note when the run stopped early; call after the work is done.
  void ReportIfStopped() const {
    if (token_.cause() == StopCause::kNone) return;
    std::fprintf(stderr,
                 "note: run stopped early (%s); results below cover the "
                 "work finished before the stop\n",
                 StopCauseToString(token_.cause()));
  }

 private:
  StopToken token_;
};

// Search flags shared by `detect` and `fit` (they configure the same
// offline pipeline; only the output artifact differs).
void AddSearchFlags(FlagParser& flags) {
  flags.AddInt("phi", 0, "ranges per attribute (0: auto per paper sec 2.4)");
  flags.AddInt("k", 0, "projection dimensionality (0: k* rule)");
  flags.AddDouble("s", -3.0, "target sparsity level for the k* rule");
  flags.AddInt("m", 20, "number of abnormal projections to report");
  flags.AddString("algorithm", "evolutionary", "evolutionary | brute-force");
  flags.AddString("binning", "equi-depth", "equi-depth | equi-width");
  flags.AddString("expectation", "uniform", "uniform | empirical");
  flags.AddInt("population", 100, "GA population size");
  flags.AddInt("generations", 100, "GA max generations per restart");
  flags.AddInt("restarts", 4, "independent GA restarts");
  flags.AddString("crossover", "optimized", "optimized | two-point");
  flags.AddInt("threads", 1,
               "worker threads for the search (0: all hardware threads); "
               "results are seed-deterministic for any value");
  flags.AddInt("seed", 42, "random seed");
  flags.AddDouble("deadline", 0.0,
                  "wall-clock budget in seconds (0: none); an expired run "
                  "still reports its best-so-far projections");
  flags.AddInt("ensemble", 0,
               "run an E-member subspace ensemble instead of one search "
               "(0: off); members share the grid and results stay "
               "bit-identical across --threads");
  flags.AddString("combiner", "mean",
                  "ensemble score combiner: breadth-first | cumsum | max | "
                  "mean");
  flags.AddString("ensemble-mix", "",
                  "comma-separated member-kind cycle for --ensemble "
                  "(ga | random-subspace | hill-climb | anneal); member i "
                  "runs entry i mod len (empty: all ga, i.e. decorrelated "
                  "restarts)");
}

// Range-checks the --phi and --s flags that `detect`, `fit` and `advise`
// share, so a bad value ends in an error message instead of an abort. The
// phi cap bounds the grid's range bitmaps (GridModel::kMaxPhi).
Status CheckPhiAndS(const FlagParser& flags) {
  const int64_t phi = flags.GetInt("phi");
  if (phi != 0 &&
      (phi < 2 || static_cast<uint64_t>(phi) > GridModel::kMaxPhi)) {
    return Status::InvalidArgument(
        StrFormat("--phi must be 0 (auto) or in [2, %zu], got %lld",
                  GridModel::kMaxPhi, static_cast<long long>(phi)));
  }
  if (!(flags.GetDouble("s") < 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "--s must be negative (paper reference point: -3), got %g",
        flags.GetDouble("s")));
  }
  return Status::Ok();
}

// Largest --threads accepted. ParallelFor clamps work to the pool anyway,
// but some callers size per-worker scratch from the request (the kNN
// baseline keeps one heap per requested worker).
constexpr size_t kMaxThreads = 1024;

// Range-checks --threads for every subcommand that reads it: 0 means all
// hardware threads.
Status CheckThreads(const FlagParser& flags) {
  const int64_t threads = flags.GetInt("threads");
  if (threads < 0 || static_cast<uint64_t>(threads) > kMaxThreads) {
    return Status::InvalidArgument(StrFormat(
        "--threads must be 0 (all hardware threads) or in [1, %zu], got "
        "%lld",
        kMaxThreads, static_cast<long long>(threads)));
  }
  return Status::Ok();
}

// Translates the AddSearchFlags values into a DetectorConfig (everything
// except stop/checkpoint/resume, which stay subcommand-specific). Values
// the search would reject with an invariant check are range-checked here,
// so a bad flag ends in an error message instead of an abort.
Status SearchConfigFromFlags(const FlagParser& flags,
                             DetectorConfig* config) {
  HIDO_RETURN_IF_ERROR(CheckPhiAndS(flags));
  if (flags.GetInt("k") < 0) {
    return Status::InvalidArgument(
        StrFormat("--k must be 0 (the k* rule) or at least 1, got %lld",
                  static_cast<long long>(flags.GetInt("k"))));
  }
  if (flags.GetInt("m") < 1) {
    return Status::InvalidArgument(
        StrFormat("--m must be at least 1, got %lld",
                  static_cast<long long>(flags.GetInt("m"))));
  }
  const int64_t population = flags.GetInt("population");
  if (population < 2 ||
      static_cast<uint64_t>(population) > EvolutionaryOptions::kMaxPopulation) {
    return Status::InvalidArgument(
        StrFormat("--population must be in [2, %zu], got %lld",
                  EvolutionaryOptions::kMaxPopulation,
                  static_cast<long long>(population)));
  }
  const int64_t restarts = flags.GetInt("restarts");
  if (restarts < 0 ||
      static_cast<uint64_t>(restarts) > EvolutionaryOptions::kMaxRestarts) {
    return Status::InvalidArgument(
        StrFormat("--restarts must be in [0, %zu] (0 runs one), got %lld",
                  EvolutionaryOptions::kMaxRestarts,
                  static_cast<long long>(restarts)));
  }
  HIDO_RETURN_IF_ERROR(CheckThreads(flags));
  config->phi = static_cast<size_t>(flags.GetInt("phi"));
  config->target_dim = static_cast<size_t>(flags.GetInt("k"));
  config->sparsity_target = flags.GetDouble("s");
  config->num_projections = static_cast<size_t>(flags.GetInt("m"));
  config->seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const size_t threads = static_cast<size_t>(flags.GetInt("threads"));
  config->num_threads = threads == 0 ? HardwareThreads() : threads;
  if (flags.GetString("algorithm") == "brute-force") {
    config->algorithm = SearchAlgorithm::kBruteForce;
  } else if (flags.GetString("algorithm") != "evolutionary") {
    return Status::InvalidArgument("unknown --algorithm");
  }
  if (flags.GetString("binning") == "equi-width") {
    config->binning = BinningMode::kEquiWidth;
  } else if (flags.GetString("binning") != "equi-depth") {
    return Status::InvalidArgument("unknown --binning");
  }
  if (flags.GetString("expectation") == "empirical") {
    config->expectation = ExpectationModel::kEmpiricalMarginals;
  } else if (flags.GetString("expectation") != "uniform") {
    return Status::InvalidArgument("unknown --expectation");
  }
  config->evolution.population_size =
      static_cast<size_t>(flags.GetInt("population"));
  config->evolution.max_generations =
      static_cast<size_t>(flags.GetInt("generations"));
  config->evolution.restarts =
      static_cast<size_t>(flags.GetInt("restarts"));
  if (flags.GetString("crossover") == "two-point") {
    config->evolution.crossover = CrossoverKind::kTwoPoint;
  } else if (flags.GetString("crossover") != "optimized") {
    return Status::InvalidArgument("unknown --crossover");
  }
  return Status::Ok();
}

// True when --ensemble asked for the meta-detector (E >= 1).
bool WantsEnsemble(const FlagParser& flags) {
  return flags.GetInt("ensemble") > 0;
}

// Layers the --ensemble/--combiner/--ensemble-mix flags over an already
// translated DetectorConfig. Call only when WantsEnsemble.
Status EnsembleConfigFromFlags(const FlagParser& flags,
                               const DetectorConfig& base,
                               ensemble::EnsembleConfig* config) {
  config->base = base;
  config->ensemble.num_members =
      static_cast<size_t>(flags.GetInt("ensemble"));
  if (!ParseCombinerKind(flags.GetString("combiner"),
                         &config->ensemble.combiner)) {
    return Status::InvalidArgument(
        "unknown --combiner (breadth-first | cumsum | max | mean)");
  }
  if (!flags.GetString("ensemble-mix").empty()) {
    Result<std::vector<ensemble::MemberKind>> mix =
        ensemble::ParseMemberMix(flags.GetString("ensemble-mix"));
    if (!mix.ok()) return mix.status();
    config->ensemble.mix = std::move(mix.value());
  }
  return Status::Ok();
}

// Member summary + top combined rows for `detect --ensemble`; shared shape
// with the single-run projection table so the two modes read alike.
void PrintEnsembleResult(const ensemble::EnsembleDetectionResult& result,
                         size_t rank_n) {
  TablePrinter members({"member", "kind", "seed", "projections", "scale",
                        "evaluations"});
  for (size_t i = 0; i < result.members.size(); ++i) {
    const ensemble::EnsembleMemberResult& m = result.members[i];
    members.AddRow({StrFormat("%zu", i),
                    ensemble::MemberKindToString(m.kind),
                    StrFormat("%llu", static_cast<unsigned long long>(m.seed)),
                    StrFormat("%zu", m.projections.size()),
                    StrFormat("%.3f", m.score_scale),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(m.evaluations))});
  }
  members.Print();

  const size_t show = rank_n == 0 ? 10 : rank_n;
  std::printf("\ntop %zu rows by combined %s score:\n",
              std::min(show, result.ranked_rows.size()),
              ensemble::CombinerKindToString(result.combiner));
  for (size_t i = 0; i < result.ranked_rows.size() && i < show; ++i) {
    const ensemble::EnsemblePointScore& s =
        result.scores[result.ranked_rows[i]];
    std::printf("  row %-6zu score %-8.3f covering projections %zu\n",
                s.row, s.score, s.covering_projections);
  }
}

// ---------------------------------------------------------------- detect --

// `detect --save-model`: writes the snapshot `fit` would write for the
// same flags. Returns a non-zero exit code only when the save fails.
int SaveSnapshotIfAsked(const FlagParser& flags,
                     const serve::ModelSnapshot& snapshot) {
  const std::string path = flags.GetString("save-model");
  if (path.empty()) return 0;
  const Status saved = serve::SaveSnapshot(snapshot, path);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote model to %s\n", path.c_str());
  return 0;
}

int RunDetect(const std::vector<std::string>& args) {
  FlagParser flags("hido detect", "find outliers by sparse projections");
  AddInputFlags(flags);
  AddSearchFlags(flags);
  flags.AddString("checkpoint", "",
                  "periodically save evolutionary search state to this path "
                  "(atomic write; survives crashes and Ctrl-C)");
  flags.AddInt("checkpoint-every", 10,
               "generations between checkpoint saves");
  flags.AddString("resume", "",
                  "resume the evolutionary search from a checkpoint file "
                  "(flags must match the interrupted run)");
  flags.AddInt("explain", 3, "print explanations for the strongest N rows");
  flags.AddInt("rank", 0,
               "also print the top-N ranked rows by outlier score (0: off)");
  flags.AddString("output", "",
                  "prefix for <prefix>.projections.csv / .outliers.csv");
  flags.AddString("save-model", "",
                  "also write the fitted model as a snapshot for `hido "
                  "score` / `hido serve` (path; the bytes `hido fit --out` "
                  "writes for the same flags)");
  AddTelemetryFlags(flags);
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;

  const Status deadline_ok = CheckDeadline(flags);
  if (!deadline_ok.ok()) return Fail(deadline_ok);
  // Installed before the load: CSV parsing and grid construction poll the
  // same token as the search, so Ctrl-C / --deadline interrupt the whole
  // pipeline, not just the search phase.
  const ScopedRunControl control(flags.GetDouble("deadline"));

  // The root of the timing tree opens before the load and closes once the
  // detection is done, so load_input sits beside grid_build,
  // evolutionary_search and postprocess under one span that covers the run.
  std::optional<obs::TraceSpan> root;
  root.emplace("detect");
  Result<Dataset> data = [&] {
    const obs::TraceSpan span("load_input");
    return LoadInput(flags, &control.token());
  }();
  if (!data.ok()) return Fail(data.status());
  const Status has_values = CheckEveryColumnHasValues(flags, data.value());
  if (!has_values.ok()) return Fail(has_values);

  DetectorConfig config;
  const Status configured = SearchConfigFromFlags(flags, &config);
  if (!configured.ok()) return Fail(configured);

  if (WantsEnsemble(flags)) {
    // Checkpointing is a single-search feature: one shared checkpoint path
    // would be clobbered by every member, and the report CSVs are a
    // projection report, which an ensemble does not produce.
    for (const char* incompatible : {"checkpoint", "resume", "output"}) {
      if (!flags.GetString(incompatible).empty()) {
        return Fail(Status::InvalidArgument(StrFormat(
            "--%s does not apply to --ensemble runs", incompatible)));
      }
    }
    config.stop = &control.token();
    ensemble::EnsembleConfig ensemble_config;
    const Status layered =
        EnsembleConfigFromFlags(flags, config, &ensemble_config);
    if (!layered.ok()) return Fail(layered);

    const ensemble::EnsembleDetector detector(ensemble_config);
    const ensemble::EnsembleDetectionResult result =
        detector.Detect(data.value());
    root.reset();
    control.ReportIfStopped();

    const serve::ModelSnapshot snapshot =
        serve::MakeEnsembleSnapshot(result, data.value(), config.seed);
    std::printf("detected with phi=%zu, k=%zu (ensemble of %zu, %s "
                "combiner) in %.3fs%s: %zu member projections\n\n",
                result.phi, result.target_dim, result.members.size(),
                ensemble::CombinerKindToString(result.combiner),
                result.seconds, result.completed ? "" : " [incomplete]",
                snapshot.model.num_projections());
    PrintEnsembleResult(result,
                        static_cast<size_t>(flags.GetInt("rank")));
    const int saved = SaveSnapshotIfAsked(flags, snapshot);
    if (saved != 0) return saved;

    obs::TelemetryRow telemetry_config{
        {"input", flags.GetString("input")},
        {"algorithm", "ensemble"},
        {"phi", static_cast<uint64_t>(result.phi)},
        {"target_dim", static_cast<uint64_t>(result.target_dim)},
        {"ensemble", static_cast<uint64_t>(result.members.size())},
        {"combiner", ensemble::CombinerKindToString(result.combiner)},
        {"ensemble_mix", flags.GetString("ensemble-mix")},
        {"seed", static_cast<uint64_t>(config.seed)},
        {"threads", static_cast<uint64_t>(config.num_threads)},
    };
    obs::TelemetryRow result_row{
        {"completed", result.completed},
        {"stop_cause", StopCauseToString(result.stop_cause)},
        {"members_run", static_cast<uint64_t>(result.members.size())},
        {"rows", static_cast<uint64_t>(data.value().num_rows())},
        {"dims", static_cast<uint64_t>(data.value().num_cols())},
    };
    return EmitTelemetry(flags, "hido detect",
                         std::move(telemetry_config),
                         {std::move(result_row)});
  }

  config.evolution.checkpoint_path = flags.GetString("checkpoint");
  config.evolution.checkpoint_every_generations =
      static_cast<size_t>(flags.GetInt("checkpoint-every"));
  EvolutionCheckpoint checkpoint;  // must outlive Detect when resuming
  if (!flags.GetString("resume").empty()) {
    if (config.algorithm != SearchAlgorithm::kEvolutionary) {
      return Fail(Status::InvalidArgument(
          "--resume only applies to --algorithm=evolutionary"));
    }
    Result<EvolutionCheckpoint> loaded =
        LoadCheckpoint(flags.GetString("resume"));
    if (!loaded.ok()) return Fail(loaded.status());
    checkpoint = std::move(loaded.value());
    config.evolution.resume = &checkpoint;
  }

  config.stop = &control.token();

  const OutlierDetector detector(config);
  const Status resumable = detector.CheckResume(data.value());
  if (!resumable.ok()) return Fail(resumable);
  const DetectionResult result = detector.Detect(data.value());
  root.reset();
  control.ReportIfStopped();

  std::printf("detected with phi=%zu, k=%zu (%s) in %.3fs%s: "
              "%zu abnormal projections covering %zu rows\n\n",
              result.phi, result.target_dim,
              flags.GetString("algorithm").c_str(), result.seconds,
              result.completed ? "" : " [incomplete]",
              result.report.projections.size(),
              result.report.outliers.size());

  TablePrinter table({"#", "projection", "count", "sparsity"});
  for (size_t i = 0; i < result.report.projections.size(); ++i) {
    const ScoredProjection& s = result.report.projections[i];
    std::string name = s.projection.ToString();
    if (name.size() > 48) name = name.substr(0, 45) + "...";
    table.AddRow({StrFormat("%zu", i), name, StrFormat("%zu", s.count),
                  StrFormat("%.3f", s.sparsity)});
  }
  table.Print();

  const size_t explain = std::min<size_t>(
      static_cast<size_t>(flags.GetInt("explain")),
      result.report.outliers.size());
  if (explain > 0) std::printf("\nstrongest outliers:\n");
  for (size_t i = 0; i < explain; ++i) {
    std::printf("%s\n", ExplainOutlier(result.report, i, result.grid,
                                       data.value())
                            .c_str());
  }

  const size_t rank_n = static_cast<size_t>(flags.GetInt("rank"));
  if (rank_n > 0) {
    const std::vector<PointScore> scores =
        ScoreAllPoints(result.grid, result.report.projections);
    const std::vector<size_t> order = RankRows(scores);
    std::printf("\ntop %zu rows by outlier score:\n",
                std::min(rank_n, order.size()));
    for (size_t i = 0; i < order.size() && i < rank_n; ++i) {
      const PointScore& s = scores[order[i]];
      std::printf("  row %-6zu score %-8.3f covering projections %zu\n",
                  s.row, s.sparsity_score, s.covering_projections);
    }
  }

  if (!flags.GetString("output").empty()) {
    const Status written =
        WriteReport(result.report, flags.GetString("output"));
    if (!written.ok()) return Fail(written);
    std::printf("wrote %s.projections.csv and %s.outliers.csv\n",
                flags.GetString("output").c_str(),
                flags.GetString("output").c_str());
  }
  const int saved = SaveSnapshotIfAsked(
      flags, serve::MakeSnapshot(result, data.value(), config.seed));
  if (saved != 0) return saved;

  obs::TelemetryRow telemetry_config{
      {"input", flags.GetString("input")},
      {"algorithm", flags.GetString("algorithm")},
      {"phi", static_cast<uint64_t>(result.phi)},
      {"target_dim", static_cast<uint64_t>(result.target_dim)},
      {"num_projections", static_cast<uint64_t>(config.num_projections)},
      {"binning", flags.GetString("binning")},
      {"expectation", flags.GetString("expectation")},
      {"seed", static_cast<uint64_t>(config.seed)},
      {"threads", static_cast<uint64_t>(config.num_threads)},
      {"resumed", config.evolution.resume != nullptr},
  };
  obs::TelemetryRow result_row{
      {"completed", result.completed},
      {"stop_cause", StopCauseToString(result.stop_cause)},
      {"projections_reported",
       static_cast<uint64_t>(result.report.projections.size())},
      {"points_flagged",
       static_cast<uint64_t>(result.report.outliers.size())},
      {"rows", static_cast<uint64_t>(data.value().num_rows())},
      {"dims", static_cast<uint64_t>(data.value().num_cols())},
  };
  return EmitTelemetry(flags, "hido detect", std::move(telemetry_config),
                       {std::move(result_row)});
}

// ------------------------------------------------------------------- fit --

int RunFit(const std::vector<std::string>& args) {
  FlagParser flags("hido fit",
                   "run the offline search once and freeze quantizer + "
                   "report into an immutable snapshot for `hido serve`");
  AddInputFlags(flags);
  AddSearchFlags(flags);
  flags.AddString("out", "", "snapshot output path (atomic write)",
                  /*required=*/true);
  AddTelemetryFlags(flags);
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;

  const Status deadline_ok = CheckDeadline(flags);
  if (!deadline_ok.ok()) return Fail(deadline_ok);
  const ScopedRunControl control(flags.GetDouble("deadline"));
  // One root span covers the load and the fit, as in `detect`.
  std::optional<obs::TraceSpan> root;
  root.emplace("fit");
  Result<Dataset> data = [&] {
    const obs::TraceSpan span("load_input");
    return LoadInput(flags, &control.token());
  }();
  if (!data.ok()) return Fail(data.status());
  const Status has_values = CheckEveryColumnHasValues(flags, data.value());
  if (!has_values.ok()) return Fail(has_values);

  DetectorConfig config;
  const Status configured = SearchConfigFromFlags(flags, &config);
  if (!configured.ok()) return Fail(configured);
  config.stop = &control.token();

  // The one fork: which detector runs. A stopped run still snapshots its
  // best-so-far model (the members that finished, for an ensemble): an
  // interrupted refit should degrade, not produce nothing to serve.
  serve::ModelSnapshot snapshot;
  bool completed = true;
  StopCause stop_cause = StopCause::kNone;
  if (WantsEnsemble(flags)) {
    ensemble::EnsembleConfig ensemble_config;
    const Status layered =
        EnsembleConfigFromFlags(flags, config, &ensemble_config);
    if (!layered.ok()) return Fail(layered);
    const ensemble::EnsembleDetector detector(ensemble_config);
    const ensemble::EnsembleDetectionResult result =
        detector.Detect(data.value());
    root.reset();
    snapshot = serve::MakeEnsembleSnapshot(result, data.value(), config.seed);
    completed = result.completed;
    stop_cause = result.stop_cause;
  } else {
    const OutlierDetector detector(config);
    const DetectionResult result = detector.Detect(data.value());
    root.reset();
    snapshot = serve::MakeSnapshot(result, data.value(), config.seed);
    completed = result.completed;
    stop_cause = result.stop_cause;
  }
  control.ReportIfStopped();

  const ensemble::Model& model = snapshot.model;
  const Status saved = serve::SaveSnapshot(snapshot, flags.GetString("out"));
  if (!saved.ok()) return Fail(saved);
  obs::TelemetryRow telemetry_config{
      {"input", flags.GetString("input")},
      {"out", flags.GetString("out")},
      {"algorithm", snapshot.info.algorithm},
      {"phi", snapshot.info.phi},
      {"target_dim", snapshot.info.target_dim},
  };
  std::string members;
  std::string kind = snapshot.info.algorithm;
  if (model.is_ensemble()) {
    const char* combiner = ensemble::CombinerKindToString(*model.combiner);
    members = StrFormat("%zu members, ", model.members.size());
    kind += StrFormat("/%s", combiner);
    telemetry_config.emplace_back(
        "ensemble", static_cast<uint64_t>(model.members.size()));
    telemetry_config.emplace_back("combiner", combiner);
  }
  std::printf("wrote snapshot to %s (%s%zu projections over %zu dims, "
              "phi=%zu, %s%s)\n",
              flags.GetString("out").c_str(), members.c_str(),
              model.num_projections(), model.num_dims(),
              static_cast<size_t>(snapshot.info.phi), kind.c_str(),
              completed ? "" : ", incomplete");

  telemetry_config.emplace_back("seed", static_cast<uint64_t>(config.seed));
  telemetry_config.emplace_back("threads",
                                static_cast<uint64_t>(config.num_threads));
  obs::TelemetryRow result_row{
      {"completed", completed},
      {"stop_cause", StopCauseToString(stop_cause)},
      {"projections_reported",
       static_cast<uint64_t>(model.num_projections())},
      {"rows", static_cast<uint64_t>(data.value().num_rows())},
      {"dims", static_cast<uint64_t>(data.value().num_cols())},
  };
  return EmitTelemetry(flags, "hido fit", std::move(telemetry_config),
                       {std::move(result_row)});
}

// ----------------------------------------------------------------- serve --

int RunServe(const std::vector<std::string>& args) {
  FlagParser flags("hido serve",
                   "serve score queries from a snapshot over a "
                   "line-delimited TCP socket (protocol: "
                   "src/serve/score_service.h)");
  flags.AddString("snapshot", "", "snapshot file from `hido fit`",
                  /*required=*/true);
  flags.AddString("host", "127.0.0.1", "numeric IPv4 address to bind");
  flags.AddInt("port", 0,
               "TCP port (0: kernel-assigned; printed on startup)");
  flags.AddInt("threads", 1,
               "worker threads per request batch (0: all hardware "
               "threads); responses are byte-identical for any value");
  flags.AddDouble("request-deadline", 0.0,
                  "per-request budget in seconds, measured from arrival; "
                  "expired requests answer `err deadline` (0: none)");
  flags.AddInt("max-batch", 256,
               "max requests scored per event-loop round");
  flags.AddDouble("deadline", 0.0,
                  "stop serving after this many seconds (0: run until a "
                  "`shutdown` request or Ctrl-C)");
  flags.AddInt("max-connections", 256,
               "connection cap; accepts beyond it answer `err busy` and "
               "count under serve.shed.connections");
  flags.AddInt("max-out-bytes", 4 << 20,
               "per-connection outbound buffer cap in bytes; slower "
               "readers are evicted (serve.evictions)");
  flags.AddInt("write-stall-ms", 5000,
               "evict a connection whose writes make no progress for this "
               "long (0: never)");
  flags.AddInt("idle-timeout-ms", 0,
               "evict a connection idle this long with `err idle timeout` "
               "(0: never)");
  flags.AddInt("max-pending", 1024,
               "per-connection buffered-request cap; newest excess lines "
               "answer `err overloaded` (serve.shed.requests)");
  flags.AddString("fault-script", "",
                  "deterministic fault injection for the serve loop, e.g. "
                  "\"read@2=EINTR;write@3=short:5\" (see common/socket.h); "
                  "testing only");
  AddTelemetryFlags(flags);
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;

  const Status threads_ok = CheckThreads(flags);
  if (!threads_ok.ok()) return Fail(threads_ok);
  // The limits below are cast to the server's int and unsigned fields,
  // where a value out of range would wrap into a silently different one.
  // SocketServer::Start refuses a zero batch or connection cap.
  constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
  constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
  const std::pair<const char*, int64_t> limits[] = {
      {"port", 65535},
      {"max-batch", kMaxInt64},
      {"max-connections", kMaxInt64},
      {"max-out-bytes", kMaxInt64},
      {"max-pending", kMaxInt64},
      {"write-stall-ms", kMaxInt},
      {"idle-timeout-ms", kMaxInt},
  };
  for (const auto& [name, max] : limits) {
    const int64_t value = flags.GetInt(name);
    if (value < 0 || value > max) {
      return Fail(Status::InvalidArgument(StrFormat(
          "--%s must be in [0, %lld], got %lld", name,
          static_cast<long long>(max), static_cast<long long>(value))));
    }
  }
  if (!(flags.GetDouble("request-deadline") >= 0.0)) {
    return Fail(Status::InvalidArgument(
        StrFormat("--request-deadline must be non-negative, got %g",
                  flags.GetDouble("request-deadline"))));
  }
  const Status deadline_ok = CheckDeadline(flags);
  if (!deadline_ok.ok()) return Fail(deadline_ok);
  const ScopedRunControl control(flags.GetDouble("deadline"));

  serve::ScoreServiceOptions service_options;
  const size_t threads = static_cast<size_t>(flags.GetInt("threads"));
  service_options.num_threads =
      threads == 0 ? HardwareThreads() : threads;
  service_options.request_deadline_seconds =
      flags.GetDouble("request-deadline");
  serve::ScoreService service(service_options);
  const Status published =
      service.PublishFromFile(flags.GetString("snapshot"));
  if (!published.ok()) return Fail(published);

  serve::ServerOptions server_options;
  server_options.host = flags.GetString("host");
  server_options.port = static_cast<int>(flags.GetInt("port"));
  server_options.max_batch =
      static_cast<size_t>(flags.GetInt("max-batch"));
  server_options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections"));
  server_options.max_out_bytes =
      static_cast<size_t>(flags.GetInt("max-out-bytes"));
  server_options.write_stall_ms =
      static_cast<int>(flags.GetInt("write-stall-ms"));
  server_options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms"));
  server_options.max_pending =
      static_cast<size_t>(flags.GetInt("max-pending"));
  server_options.stop = &control.token();

  FaultInjector fault_injector;
  const std::string fault_script = flags.GetString("fault-script");
  if (!fault_script.empty()) {
    Result<FaultInjector> parsed_script = FaultInjector::Parse(fault_script);
    if (!parsed_script.ok()) return Fail(parsed_script.status());
    fault_injector = std::move(parsed_script.value());
    // Run() executes on this thread, so arming here scopes the faults to
    // the serve loop; the CLI does no other socket I/O meanwhile.
    FaultInjector::InstallOnThisThread(&fault_injector);
  }

  serve::SocketServer server(service, server_options);
  const Status started = server.Start();
  if (!started.ok()) return Fail(started);

  // Smoke scripts block on this line to learn the kernel-assigned port;
  // flush so it is visible through a pipe before the loop blocks in poll.
  std::printf("listening on %s:%d (gen %llu)\n",
              server_options.host.c_str(), server.port(),
              static_cast<unsigned long long>(service.generation()));
  std::fflush(stdout);

  const Status served = [&] {
    const obs::TraceSpan span("serve");
    return server.Run();
  }();
  FaultInjector::InstallOnThisThread(nullptr);
  if (!served.ok()) return Fail(served);
  control.ReportIfStopped();
  std::printf("serve loop exited (%s)\n",
              service.shutdown_requested() ? "shutdown request"
                                           : "stop signal");

  obs::TelemetryRow telemetry_config{
      {"snapshot", flags.GetString("snapshot")},
      {"host", server_options.host},
      {"port", static_cast<uint64_t>(server.port())},
      {"threads", static_cast<uint64_t>(service_options.num_threads)},
      {"request_deadline",
       service_options.request_deadline_seconds},
      {"max_batch", static_cast<uint64_t>(server_options.max_batch)},
  };
  obs::TelemetryRow result_row{
      {"generation", service.generation()},
      {"shutdown_requested", service.shutdown_requested()},
      {"faults_fired", fault_injector.fired()},
  };
  return EmitTelemetry(flags, "hido serve", std::move(telemetry_config),
                       {std::move(result_row)});
}

// --------------------------------------------------------------- loadgen --
//
// A deterministic line-protocol load generator against `hido serve`,
// built on the same common/socket helpers the server uses. Four traffic
// modes exercise the overload/fault machinery from the client side:
//
//   serial       one request in flight; every response compared against a
//                fault-free warmup pass
//   pipeline     whole passes written as one burst; responses must come
//                back complete, in order, byte-identical
//   flaky        serial, but every Kth request is cut mid-line with a hard
//                close, then retried on a fresh connection
//   slow-reader  pipelined burst read at a crawl; with --expect evicted the
//                run succeeds only if the server gives up on us
//
// Failed exchanges retry with exponential backoff + jitter (seeded Rng, so
// reruns take the same schedule). Exit status: 0 iff the --expect
// criterion held.

/// Outcome tallies for one loadgen run; printed as the summary line and
/// emitted through --metrics-json for CI assertions.
struct LoadgenStats {
  size_t responses = 0;    ///< well-formed lines read back
  size_t mismatches = 0;   ///< responses differing from the warmup oracle
  size_t retries = 0;      ///< failed exchanges retried after backoff
  size_t reconnects = 0;   ///< connections re-established after the first
  bool evicted = false;    ///< server closed on us / said `err evicted`
};

/// One client connection: a non-blocking fd plus its read carry buffer.
struct LoadgenConn {
  OwnedFd fd;
  std::string carry;
};

/// Tunables shared by every mode, lifted from flags once.
struct LoadgenConfig {
  std::string host;
  int port = 0;
  double timeout_seconds = 5.0;
  int max_retries = 5;
  int backoff_base_ms = 10;
  int backoff_max_ms = 1000;
  int read_delay_ms = 0;
  size_t disconnect_every = 13;
};

Status LoadgenConnect(const LoadgenConfig& config, LoadgenConn* conn) {
  Result<OwnedFd> fd = ConnectTcp(config.host, config.port);
  if (!fd.ok()) return fd.status();
  const Status nonblocking = SetNonBlocking(fd.value().get());
  if (!nonblocking.ok()) return nonblocking;
  conn->fd = std::move(fd.value());
  conn->carry.clear();
  return Status::Ok();
}

void LoadgenDrop(LoadgenConn* conn) {
  conn->fd.Reset();
  conn->carry.clear();
}

/// Sleeps min(max, base * 2^attempt) ms, jittered to [50%, 100%] so
/// concurrent clients do not thunder back in lockstep.
void LoadgenBackoff(Rng& rng, int attempt, const LoadgenConfig& config) {
  const int shift = std::min(attempt, 20);
  double delay_ms =
      std::min<double>(config.backoff_max_ms,
                       static_cast<double>(config.backoff_base_ms) *
                           static_cast<double>(uint64_t{1} << shift));
  delay_ms *= 0.5 + 0.5 * rng.UniformDouble();
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(delay_ms));
}

/// Writes all of `data` to the non-blocking fd within the deadline.
Status LoadgenSendAll(int fd, std::string_view data, double timeout_seconds) {
  const Clock& clock = Clock::Real();
  const double deadline = clock.NowSeconds() + timeout_seconds;
  size_t sent = 0;
  while (sent < data.size()) {
    Result<size_t> wrote = WriteSome(fd, data.substr(sent));
    if (!wrote.ok()) return wrote.status();
    sent += wrote.value();
    if (sent >= data.size()) break;
    const double remaining = deadline - clock.NowSeconds();
    if (remaining <= 0.0) return Status::DeadlineExceeded("send timed out");
    const int wait_ms =
        static_cast<int>(std::min(remaining * 1000.0 + 1.0, 250.0));
    Result<bool> writable = WaitWritable(fd, wait_ms);
    if (!writable.ok()) return writable.status();
  }
  return Status::Ok();
}

/// Reads one '\n'-terminated line (CR stripped) within the deadline.
Result<std::string> LoadgenReadLine(LoadgenConn* conn,
                                    double timeout_seconds) {
  const Clock& clock = Clock::Real();
  const double deadline = clock.NowSeconds() + timeout_seconds;
  while (true) {
    const size_t eol = conn->carry.find('\n');
    if (eol != std::string::npos) {
      std::string line = conn->carry.substr(0, eol);
      conn->carry.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const double remaining = deadline - clock.NowSeconds();
    if (remaining <= 0.0) {
      return Status::DeadlineExceeded("response timed out");
    }
    const int wait_ms =
        static_cast<int>(std::min(remaining * 1000.0 + 1.0, 250.0));
    Result<bool> ready = WaitReadable(conn->fd.get(), wait_ms);
    if (!ready.ok()) return ready.status();
    if (!ready.value()) continue;
    Result<ReadOutcome> outcome = ReadAvailable(conn->fd.get(), &conn->carry);
    if (!outcome.ok()) return outcome.status();
    if (outcome.value().bytes == 0) {
      return Status::IoError("connection closed");
    }
  }
}

/// One request/response exchange with reconnect-and-resend retries. A
/// failed exchange drops the connection first: once pairing is in doubt
/// the only safe resume point is a fresh stream.
Result<std::string> LoadgenExchange(const LoadgenConfig& config,
                                    LoadgenConn* conn,
                                    const std::string& line, Rng& rng,
                                    LoadgenStats* stats) {
  Status last = Status::Ok();
  for (int attempt = 0; attempt <= config.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats->retries;
      LoadgenBackoff(rng, attempt - 1, config);
    }
    if (!conn->fd.valid()) {
      last = LoadgenConnect(config, conn);
      if (!last.ok()) continue;
      ++stats->reconnects;
    }
    last = LoadgenSendAll(conn->fd.get(), line + "\n",
                          config.timeout_seconds);
    if (last.ok()) {
      Result<std::string> response =
          LoadgenReadLine(conn, config.timeout_seconds);
      if (response.ok()) return response;
      last = response.status();
    }
    LoadgenDrop(conn);
  }
  return last;
}

/// Serial and flaky modes: one exchange at a time; in flaky mode every
/// `disconnect_every`th request is first cut mid-line with a hard close,
/// which the retry path must absorb without losing the request.
Status RunSerialPass(const LoadgenConfig& config, LoadgenConn* conn,
                     const std::vector<std::string>& lines,
                     const std::vector<std::string>& expected, bool flaky,
                     Rng& rng, LoadgenStats* stats) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (flaky && (i + 1) % config.disconnect_every == 0 && conn->fd.valid()) {
      const std::string full = lines[i] + "\n";
      (void)LoadgenSendAll(conn->fd.get(), full.substr(0, full.size() / 2),
                           config.timeout_seconds);
      LoadgenDrop(conn);  // the server sees a torn line and EOF
    }
    Result<std::string> response =
        LoadgenExchange(config, conn, lines[i], rng, stats);
    if (!response.ok()) return response.status();
    ++stats->responses;
    if (response.value() == "err evicted" ||
        response.value() == "err idle timeout") {
      stats->evicted = true;
    }
    if (!expected.empty() && response.value() != expected[i]) {
      ++stats->mismatches;
    }
  }
  return Status::Ok();
}

/// Pipeline and slow-reader modes: the whole pass goes out as one burst,
/// then responses are read back in order (slow-reader inserts
/// `read_delay_ms` between them). A dead connection mid-pass reconnects
/// and resends from the first unanswered request — answered prefixes are
/// never replayed, so duplicates cannot be produced.
Status RunPipelinePass(const LoadgenConfig& config, LoadgenConn* conn,
                       const std::vector<std::string>& lines,
                       const std::vector<std::string>& expected, Rng& rng,
                       LoadgenStats* stats) {
  size_t next = 0;  // first request still awaiting its response
  int consecutive_failures = 0;
  while (next < lines.size()) {
    if (consecutive_failures > config.max_retries) {
      return Status::IoError(
          StrFormat("pipeline pass stuck at request %zu after %d retries",
                    next, config.max_retries));
    }
    if (consecutive_failures > 0) {
      ++stats->retries;
      LoadgenBackoff(rng, consecutive_failures - 1, config);
    }
    if (!conn->fd.valid()) {
      if (!LoadgenConnect(config, conn).ok()) {
        ++consecutive_failures;
        continue;
      }
      ++stats->reconnects;
    }
    std::string burst;
    for (size_t i = next; i < lines.size(); ++i) burst += lines[i] + "\n";
    if (!LoadgenSendAll(conn->fd.get(), burst, config.timeout_seconds)
             .ok()) {
      LoadgenDrop(conn);
      ++consecutive_failures;
      continue;
    }
    while (next < lines.size()) {
      Result<std::string> response =
          LoadgenReadLine(conn, config.timeout_seconds);
      if (!response.ok()) {
        LoadgenDrop(conn);
        ++consecutive_failures;
        break;
      }
      consecutive_failures = 0;
      ++stats->responses;
      if (response.value() == "err evicted" ||
          response.value() == "err idle timeout") {
        stats->evicted = true;
      }
      if (!expected.empty() && response.value() != expected[next]) {
        ++stats->mismatches;
      }
      ++next;
      if (config.read_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config.read_delay_ms));
      }
    }
  }
  return Status::Ok();
}

/// slow-reader + --expect evicted: floods the server with one pipelined
/// burst while reading nothing at all — the pathological slow reader —
/// then lingers `read_delay_ms` to let a stall/idle timer expire before
/// draining whatever arrived. Success is the server giving up on us: a
/// mid-send reset, an `err evicted` notice, or EOF. A response timeout is
/// NOT an eviction (the server was just slow) and fails the run.
Status RunEvictionProbe(const LoadgenConfig& config, LoadgenConn* conn,
                        const std::vector<std::string>& lines,
                        LoadgenStats* stats) {
  std::string burst;
  for (const std::string& line : lines) burst += line + "\n";
  // The send budget is generous: the probe's job is to outlive the write
  // side and starve the read side.
  const Status sent = LoadgenSendAll(conn->fd.get(), burst,
                                     std::max(config.timeout_seconds, 30.0));
  if (!sent.ok()) {
    stats->evicted = true;  // the eviction arrived while we were writing
    LoadgenDrop(conn);
    return Status::Ok();
  }
  if (config.read_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.read_delay_ms));
  }
  // Drain at full speed: the damage is done, now we only need to observe
  // the verdict buried in (or after) the backlog.
  while (true) {
    Result<std::string> response =
        LoadgenReadLine(conn, config.timeout_seconds);
    if (!response.ok()) {
      if (response.status().code() == StatusCode::kDeadlineExceeded) {
        return response.status();
      }
      stats->evicted = true;  // reset or EOF: the server dropped us
      LoadgenDrop(conn);
      return Status::Ok();
    }
    ++stats->responses;
    if (response.value() == "err evicted" ||
        response.value() == "err idle timeout") {
      stats->evicted = true;
    }
  }
}

int RunLoadgen(const std::vector<std::string>& args) {
  FlagParser flags("hido loadgen",
                   "drive a running `hido serve` with scripted traffic "
                   "(serial, pipelined, flaky, slow-reader) and verify "
                   "responses arrive complete, in order, and "
                   "byte-identical");
  flags.AddString("host", "127.0.0.1", "server address");
  flags.AddInt("port", 0, "server port", /*required=*/true);
  flags.AddString("mode", "pipeline",
                  "traffic shape: serial | pipeline | flaky | slow-reader");
  flags.AddInt("requests", 200, "requests per pass");
  flags.AddInt("passes", 1, "times to repeat the request list");
  flags.AddString("input", "",
                  "CSV whose rows become `score` requests (cycled); "
                  "without it every request is `ping`");
  flags.AddBool("header", true, "first CSV line is a header");
  flags.AddDouble("timeout", 5.0, "per-response deadline in seconds");
  flags.AddInt("max-retries", 5,
               "reconnect-and-resend attempts per stuck exchange");
  flags.AddInt("backoff-base-ms", 10, "first retry delay");
  flags.AddInt("backoff-max-ms", 1000, "retry delay ceiling");
  flags.AddInt("seed", 42, "jitter RNG seed (reruns repeat the schedule)");
  flags.AddInt("read-delay-ms", 20,
               "slow-reader: pause between responses (with --expect "
               "evicted: one post-send linger before draining)");
  flags.AddInt("disconnect-every", 13,
               "flaky: hard-close mid-request every Kth request");
  flags.AddString("expect", "all",
                  "success criterion: `all` (every response correct) or "
                  "`evicted` (the server must drop this client)");
  AddTelemetryFlags(flags);
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;

  const std::string mode = flags.GetString("mode");
  if (mode != "serial" && mode != "pipeline" && mode != "flaky" &&
      mode != "slow-reader") {
    return Fail(Status::InvalidArgument("unknown --mode " + mode));
  }
  const std::string expect = flags.GetString("expect");
  if (expect != "all" && expect != "evicted") {
    return Fail(Status::InvalidArgument("unknown --expect " + expect));
  }
  if (expect == "evicted" && mode != "slow-reader") {
    return Fail(Status::InvalidArgument(
        "--expect evicted requires --mode slow-reader"));
  }
  // Counts and delays are range-checked before the request list is sized
  // or a socket opened: a count sizes memory, and the retry and delay
  // values are cast to int, where a value out of range would wrap into a
  // silently different one.
  constexpr int64_t kMaxCount = int64_t{1} << 20;
  constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
  constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
  struct Range {
    const char* name;
    int64_t min;
    int64_t max;
  };
  const Range ranges[] = {
      {"requests", 1, kMaxCount},      {"passes", 1, kMaxCount},
      {"max-retries", 0, kMaxInt},     {"backoff-base-ms", 0, kMaxInt},
      {"backoff-max-ms", 0, kMaxInt},  {"read-delay-ms", 0, kMaxInt},
      {"disconnect-every", 1, kMaxInt64},
  };
  for (const Range& range : ranges) {
    const int64_t value = flags.GetInt(range.name);
    if (value < range.min || value > range.max) {
      return Fail(Status::InvalidArgument(StrFormat(
          "--%s must be in [%lld, %lld], got %lld", range.name,
          static_cast<long long>(range.min),
          static_cast<long long>(range.max),
          static_cast<long long>(value))));
    }
  }
  if (!(flags.GetDouble("timeout") > 0.0)) {
    return Fail(Status::InvalidArgument(
        StrFormat("--timeout must be a positive number of seconds, got %g",
                  flags.GetDouble("timeout"))));
  }

  LoadgenConfig config;
  config.host = flags.GetString("host");
  config.port = static_cast<int>(flags.GetInt("port"));
  config.timeout_seconds = flags.GetDouble("timeout");
  config.max_retries = static_cast<int>(flags.GetInt("max-retries"));
  config.backoff_base_ms = static_cast<int>(flags.GetInt("backoff-base-ms"));
  config.backoff_max_ms = static_cast<int>(flags.GetInt("backoff-max-ms"));
  config.read_delay_ms =
      mode == "slow-reader" ? static_cast<int>(flags.GetInt("read-delay-ms"))
                            : 0;
  config.disconnect_every =
      static_cast<size_t>(flags.GetInt("disconnect-every"));

  // Build the request list: `score <row>` lines cycled from --input (their
  // responses differ row to row, so reordering is detectable), or bare
  // pings.
  const size_t requests = static_cast<size_t>(flags.GetInt("requests"));
  std::vector<std::string> lines;
  lines.reserve(requests);
  if (!flags.GetString("input").empty()) {
    CsvReadOptions csv_options;
    csv_options.has_header = flags.GetBool("header");
    Result<Dataset> data = ReadCsv(flags.GetString("input"), csv_options);
    if (!data.ok()) return Fail(data.status());
    if (data.value().num_rows() == 0) {
      return Fail(Status::InvalidArgument("--input has no rows"));
    }
    for (size_t i = 0; i < requests; ++i) {
      std::vector<std::string> fields;
      const auto row = data.value().Row(i % data.value().num_rows());
      for (const double v : row) fields.push_back(StrFormat("%.17g", v));
      lines.push_back("score " + Join(fields, ","));
    }
  } else {
    lines.assign(requests, "ping");
  }

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  LoadgenStats stats;
  LoadgenConn conn;
  const Status connected = LoadgenConnect(config, &conn);
  if (!connected.ok()) return Fail(connected);

  // Warmup oracle: each distinct request answered once, serially, before
  // any chaos. Later passes must reproduce these bytes exactly. The
  // eviction probe skips it — its only assertion is the eviction itself.
  std::vector<std::string> expected;
  if (expect == "all") {
    LoadgenStats warmup_stats;
    expected.reserve(lines.size());
    for (const std::string& line : lines) {
      Result<std::string> response =
          LoadgenExchange(config, &conn, line, rng, &warmup_stats);
      if (!response.ok()) return Fail(response.status());
      expected.push_back(response.value());
    }
  }

  const size_t passes = static_cast<size_t>(flags.GetInt("passes"));
  Status run = Status::Ok();
  for (size_t pass = 0; pass < passes && run.ok(); ++pass) {
    if (expect == "evicted") {
      run = RunEvictionProbe(config, &conn, lines, &stats);
    } else if (mode == "serial" || mode == "flaky") {
      run = RunSerialPass(config, &conn, lines, expected, mode == "flaky",
                          rng, &stats);
    } else {
      run = RunPipelinePass(config, &conn, lines, expected, rng, &stats);
    }
  }
  if (!run.ok()) return Fail(run);

  const size_t total = lines.size() * passes;
  const bool ok =
      expect == "evicted"
          ? stats.evicted
          : (stats.mismatches == 0 && stats.responses == total);
  std::printf("loadgen %s: requests=%zu responses=%zu mismatches=%zu "
              "retries=%zu reconnects=%zu evicted=%d -> %s\n",
              mode.c_str(), total, stats.responses, stats.mismatches,
              stats.retries, stats.reconnects, stats.evicted ? 1 : 0,
              ok ? "OK" : "FAILED");

  obs::TelemetryRow telemetry_config{
      {"host", config.host},
      {"port", static_cast<uint64_t>(config.port)},
      {"mode", mode},
      {"expect", expect},
      {"requests", static_cast<uint64_t>(total)},
      {"passes", static_cast<uint64_t>(passes)},
      {"seed", static_cast<uint64_t>(flags.GetInt("seed"))},
  };
  obs::TelemetryRow result_row{
      {"responses", static_cast<uint64_t>(stats.responses)},
      {"mismatches", static_cast<uint64_t>(stats.mismatches)},
      {"retries", static_cast<uint64_t>(stats.retries)},
      {"reconnects", static_cast<uint64_t>(stats.reconnects)},
      {"evicted", stats.evicted},
      {"ok", ok},
  };
  const int telemetry_exit =
      EmitTelemetry(flags, "hido loadgen", std::move(telemetry_config),
                    {std::move(result_row)});
  if (telemetry_exit != 0) return telemetry_exit;
  return ok ? 0 : 1;
}

// ----------------------------------------------------------------- score --

int RunScore(const std::vector<std::string>& args) {
  FlagParser flags("hido score",
                   "score new rows against a fitted model (a snapshot "
                   "from `hido fit` or `hido detect --save-model`)");
  AddInputFlags(flags);
  flags.AddString("model", "",
                  "snapshot from `hido fit` or `hido detect --save-model` "
                  "(model files older builds wrote load too)",
                  /*required=*/true);
  flags.AddDouble("threshold", 0.0,
                  "alert threshold (0: alert on any coverage); a single "
                  "fit alerts when its sparsity score <= threshold, an "
                  "ensemble when its combined score (higher = stronger) "
                  ">= threshold");
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;

  Result<std::shared_ptr<serve::ModelSnapshot>> snapshot =
      serve::LoadSnapshot(flags.GetString("model"));
  if (!snapshot.ok()) return Fail(snapshot.status());
  const ensemble::Model& model = snapshot.value()->model;
  Result<Dataset> data = LoadInput(flags);
  if (!data.ok()) return Fail(data.status());
  if (data.value().num_cols() != model.num_dims()) {
    return Fail(Status::InvalidArgument(
        StrFormat("input has %zu columns, model expects %zu",
                  data.value().num_cols(), model.num_dims())));
  }

  const double threshold = flags.GetDouble("threshold");
  size_t alerts = 0;
  for (size_t row = 0; row < data.value().num_rows(); ++row) {
    const ensemble::ModelScore score = model.Score(data.value().Row(row));
    const bool alert =
        score.covering_projections > 0 &&
        (model.is_ensemble() ? score.score >= threshold
                             : score.score <= threshold);
    if (alert) {
      ++alerts;
      std::printf("row %-6zu score %-8.3f covering projections %zu\n",
                  row, score.score, score.covering_projections);
    }
  }
  std::printf("%zu of %zu rows alerted\n", alerts,
              data.value().num_rows());
  return 0;
}

// ---------------------------------------------------------------- advise --

int RunAdvise(const std::vector<std::string>& args) {
  FlagParser flags("hido advise", "print the paper's sec 2.4 parameters");
  flags.AddInt("rows", 0, "number of data points N", /*required=*/true);
  flags.AddInt("dims", 0, "number of attributes d", /*required=*/true);
  flags.AddInt("phi", 0, "ranges per attribute (0: auto)");
  flags.AddDouble("s", -3.0, "target sparsity level (negative)");
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;
  for (const char* count : {"rows", "dims"}) {
    if (flags.GetInt(count) < 1) {
      return Fail(Status::InvalidArgument(
          StrFormat("--%s must be at least 1, got %lld", count,
                    static_cast<long long>(flags.GetInt(count)))));
    }
  }
  const Status checked = CheckPhiAndS(flags);
  if (!checked.ok()) return Fail(checked);
  const ParameterAdvice advice = AdviseParameters(
      static_cast<size_t>(flags.GetInt("rows")),
      static_cast<size_t>(flags.GetInt("dims")), flags.GetDouble("s"),
      static_cast<size_t>(flags.GetInt("phi")));
  std::printf("phi = %zu ranges per attribute\n", advice.phi);
  std::printf("k*  = %zu (projection dimensionality)\n", advice.k);
  std::printf("expected points per %zu-cube: %.3f\n", advice.k,
              advice.expected_points_per_cube);
  std::printf("empty-cube sparsity at k*: %.3f\n",
              advice.empty_cube_sparsity);
  return 0;
}

// ------------------------------------------------------------- baselines --

// kNN needs 1 <= k < rows, LOF 1 <= MinPts < rows, DB(k, lambda)
// 0 <= k < rows, and each method flags at least one row.
Status CheckBaselineCounts(const FlagParser& flags, size_t rows) {
  if (flags.GetInt("top") < 1) {
    return Status::InvalidArgument(
        StrFormat("--top must be at least 1, got %lld",
                  static_cast<long long>(flags.GetInt("top"))));
  }
  const std::pair<const char*, int64_t> counts[] = {
      {"knn-k", 1}, {"lof-minpts", 1}, {"db-max-neighbors", 0}};
  for (const auto& [count, min] : counts) {
    const int64_t value = flags.GetInt(count);
    if (value < min || static_cast<uint64_t>(value) >= rows) {
      return Status::InvalidArgument(StrFormat(
          "--%s must be at least %lld and below the %zu input rows, got %lld",
          count, static_cast<long long>(min), rows,
          static_cast<long long>(value)));
    }
  }
  return Status::Ok();
}

int RunBaselines(const std::vector<std::string>& args) {
  FlagParser flags("hido baselines",
                   "full-dimensional comparators: kNN [25], LOF [10], "
                   "DB(k,lambda) [22]");
  AddInputFlags(flags);
  flags.AddInt("top", 20, "rows to flag per method");
  flags.AddInt("knn-k", 5, "k for the kNN-distance method");
  flags.AddInt("lof-minpts", 10, "MinPts for LOF");
  flags.AddDouble("db-lambda", 0.0,
                  "lambda for DB outliers (0: the 5th-percentile distance)");
  flags.AddInt("db-max-neighbors", 5, "k for DB(k,lambda)");
  flags.AddInt("threads", 1,
               "worker threads per method (0: all hardware threads); "
               "results are identical for any value");
  flags.AddDouble("deadline", 0.0,
                  "wall-clock budget in seconds (0: none); methods not "
                  "finished in time report partial results");
  AddTelemetryFlags(flags);
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;
  const Status threads_ok = CheckThreads(flags);
  if (!threads_ok.ok()) return Fail(threads_ok);
  const Status deadline_ok = CheckDeadline(flags);
  if (!deadline_ok.ok()) return Fail(deadline_ok);
  const ScopedRunControl control(flags.GetDouble("deadline"));
  Result<Dataset> data = [&] {
    const obs::TraceSpan span("load_input");
    return LoadInput(flags, &control.token());
  }();
  if (!data.ok()) return Fail(data.status());
  const Status counts_ok = CheckBaselineCounts(flags, data.value().num_rows());
  if (!counts_ok.ok()) return Fail(counts_ok);
  const DistanceMetric metric(data.value());
  double lambda = flags.GetDouble("db-lambda");
  if (lambda <= 0.0) {
    Rng rng(1);
    lambda = EstimateLambda(metric, 0.05, 5000, rng);
    if (!(lambda > 0.0)) {
      return Fail(Status::InvalidArgument(
          "DB(k,lambda): the estimated lambda is 0 (the sampled rows "
          "coincide); pass --db-lambda"));
    }
  }
  const size_t top = static_cast<size_t>(flags.GetInt("top"));
  const size_t threads = static_cast<size_t>(flags.GetInt("threads"));
  const char* kPartialNote = "  (partial: stopped before every point)\n";

  std::printf("== kNN-distance outliers (k=%lld), strongest first ==\n",
              static_cast<long long>(flags.GetInt("knn-k")));
  KnnOutlierOptions kopts;
  kopts.k = static_cast<size_t>(flags.GetInt("knn-k"));
  kopts.num_outliers = top;
  kopts.num_threads = threads;
  kopts.stop = &control.token();
  RunStatus knn_status;
  const std::vector<KnnOutlier> knn_out =
      TopNKnnOutliers(metric, kopts, &knn_status);
  for (const KnnOutlier& o : knn_out) {
    std::printf("  row %zu  kth-NN distance %.4f\n", o.row, o.kth_distance);
  }
  if (!knn_status.completed) std::printf("%s", kPartialNote);

  std::printf("\n== LOF (MinPts=%lld), top scores ==\n",
              static_cast<long long>(flags.GetInt("lof-minpts")));
  LofOptions lofopts;
  lofopts.min_pts = static_cast<size_t>(flags.GetInt("lof-minpts"));
  lofopts.num_threads = threads;
  lofopts.stop = &control.token();
  RunStatus lof_status;
  const std::vector<double> scores = ComputeLof(metric, lofopts, &lof_status);
  const std::vector<size_t> lof_top = TopNByScore(scores, top);
  for (size_t row : lof_top) {
    std::printf("  row %zu  LOF %.3f\n", row, scores[row]);
  }
  if (!lof_status.completed) std::printf("%s", kPartialNote);

  std::printf("\n== DB(k=%lld, lambda=%.4f) outliers ==\n",
              static_cast<long long>(flags.GetInt("db-max-neighbors")),
              lambda);
  DbOutlierOptions dbopts;
  dbopts.lambda = lambda;
  dbopts.max_neighbors =
      static_cast<size_t>(flags.GetInt("db-max-neighbors"));
  dbopts.num_threads = threads;
  dbopts.stop = &control.token();
  RunStatus db_status;
  const std::vector<size_t> db = DbOutliers(metric, dbopts, &db_status);
  std::printf("  %zu rows flagged", db.size());
  for (size_t i = 0; i < db.size() && i < top; ++i) {
    std::printf("%s%zu", i == 0 ? ": " : ", ", db[i]);
  }
  std::printf("\n");
  if (!db_status.completed) std::printf("%s", kPartialNote);
  control.ReportIfStopped();

  obs::TelemetryRow telemetry_config{
      {"input", flags.GetString("input")},
      {"top", static_cast<uint64_t>(top)},
      {"knn_k", static_cast<uint64_t>(kopts.k)},
      {"lof_minpts", static_cast<uint64_t>(lofopts.min_pts)},
      {"db_lambda", lambda},
      {"db_max_neighbors", static_cast<uint64_t>(dbopts.max_neighbors)},
      {"threads", static_cast<uint64_t>(threads)},
  };
  std::vector<obs::TelemetryRow> method_rows;
  method_rows.push_back({{"method", "knn"},
                         {"completed", knn_status.completed},
                         {"flagged", static_cast<uint64_t>(knn_out.size())}});
  method_rows.push_back({{"method", "lof"},
                         {"completed", lof_status.completed},
                         {"flagged", static_cast<uint64_t>(lof_top.size())}});
  method_rows.push_back({{"method", "db"},
                         {"completed", db_status.completed},
                         {"flagged", static_cast<uint64_t>(db.size())}});
  return EmitTelemetry(flags, "hido baselines",
                       std::move(telemetry_config), std::move(method_rows));
}

// -------------------------------------------------------------- describe --

int RunDescribe(const std::vector<std::string>& args) {
  FlagParser flags("hido describe", "dataset summary");
  AddInputFlags(flags);
  const int parse_outcome = ParseOrReport(flags, args);
  if (parse_outcome >= 0) return parse_outcome;
  Result<Dataset> data = LoadInput(flags);
  if (!data.ok()) return Fail(data.status());
  std::printf("%s", DescribeDataset(data.value(), 32).c_str());
  const ParameterAdvice advice =
      AdviseParameters(data.value().num_rows(), data.value().num_cols());
  std::printf("suggested parameters (sec 2.4): phi=%zu, k=%zu\n", advice.phi,
              advice.k);
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: hido "
      "<detect|fit|serve|loadgen|score|advise|baselines|describe> "
      "[--flags]\n"
      "  detect     find outliers by sparse subspace projections\n"
      "  fit        freeze a fitted model into a serveable snapshot\n"
      "  serve      answer score queries from a snapshot over TCP\n"
      "  loadgen    drive a running serve with scripted traffic and "
      "verify responses\n"
      "  score      score new rows against a snapshot from fit or "
      "detect\n"
      "  advise     print the paper's parameter recommendation\n"
      "  baselines  run the kNN / LOF / DB(k,lambda) comparators\n"
      "  describe   dataset summary\n"
      "Run a subcommand with --help for its flags.\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    args.emplace_back(argv[i]);
  }

  if (command == "detect") return RunDetect(args);
  if (command == "fit") return RunFit(args);
  if (command == "serve") return RunServe(args);
  if (command == "loadgen") return RunLoadgen(args);
  if (command == "score") return RunScore(args);
  if (command == "advise") return RunAdvise(args);
  if (command == "baselines") return RunBaselines(args);
  if (command == "describe") return RunDescribe(args);
  return Usage();
}

}  // namespace
}  // namespace hido

int main(int argc, char** argv) { return hido::Main(argc, argv); }
