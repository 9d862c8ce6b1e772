// hido-gen — emit the bundled synthetic workloads as CSV files, with a
// ground-truth sidecar, so the full CLI pipeline (gen -> detect -> score)
// can be exercised and users can try the tool before pointing it at their
// own data.
//
//   hido-gen subspace   --rows 800 --dims 40 --outliers 8 --out data.csv
//   hido-gen arrhythmia --out data.csv
//   hido-gen housing    --out data.csv
//   hido-gen uniform    --rows 1000 --dims 20 --out data.csv
//
// The sidecar `<out>.truth` lists the planted anomaly rows one per line
// (empty for `uniform`).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/generators/arrhythmia_like.h"
#include "data/generators/housing_like.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteTruth(const std::vector<size_t>& rows, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (size_t row : rows) out << row << "\n";
  out.flush();
  if (!out) return Status::IoError("write failure: " + path);
  return Status::Ok();
}

// Largest table a workload may ask for: 2^28 values, 2 GiB of doubles.
constexpr int64_t kMaxValues = int64_t{1} << 28;

// Range-checks --rows and --dims for workload `kind`, which needs at least
// `min_dims` columns, so a bad size ends in an error message instead of an
// abort, an allocation without bound, or a table with no columns.
Status CheckShape(const FlagParser& flags, const std::string& kind,
                  int64_t min_dims) {
  const int64_t rows = flags.GetInt("rows");
  const int64_t dims = flags.GetInt("dims");
  if (rows < 1) {
    return Status::InvalidArgument(StrFormat(
        "--rows must be at least 1, got %lld", static_cast<long long>(rows)));
  }
  if (dims < min_dims) {
    return Status::InvalidArgument(
        StrFormat("--dims must be at least %lld for %s, got %lld",
                  static_cast<long long>(min_dims), kind.c_str(),
                  static_cast<long long>(dims)));
  }
  if (rows > kMaxValues / dims) {
    return Status::InvalidArgument(StrFormat(
        "--rows times --dims must be at most %lld values (2 GiB of doubles), "
        "got %lld x %lld",
        static_cast<long long>(kMaxValues), static_cast<long long>(rows),
        static_cast<long long>(dims)));
  }
  return Status::Ok();
}

int Emit(const Dataset& data, const std::vector<size_t>& truth,
         const std::string& out_path) {
  const Status written = WriteCsv(data, out_path);
  if (!written.ok()) return Fail(written);
  const Status truth_written = WriteTruth(truth, out_path + ".truth");
  if (!truth_written.ok()) return Fail(truth_written);
  std::printf("wrote %s (%zu rows x %zu cols) and %s.truth (%zu rows)\n",
              out_path.c_str(), data.num_rows(), data.num_cols(),
              out_path.c_str(), truth.size());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hido-gen <subspace|arrhythmia|housing|uniform> "
                 "[--flags]\n");
    return 1;
  }
  const std::string kind = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  FlagParser flags("hido-gen " + kind, "synthetic workload generator");
  flags.AddString("out", "", "output CSV path", /*required=*/true);
  flags.AddInt("rows", 800, "rows (subspace/uniform)");
  flags.AddInt("dims", 40, "dims (subspace/uniform)");
  flags.AddInt("outliers", 8, "planted anomalies (subspace)");
  flags.AddInt("seed", 42, "random seed");
  const Status parsed = flags.Parse(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }
  const std::string out = flags.GetString("out");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  if (kind == "subspace") {
    // The generator plants dims / 4 correlated groups and needs at least one.
    const Status shape = CheckShape(flags, kind, 4);
    if (!shape.ok()) return Fail(shape);
    const int64_t outliers = flags.GetInt("outliers");
    if (outliers < 0 || outliers > flags.GetInt("rows")) {
      return Fail(Status::InvalidArgument(StrFormat(
          "--outliers must be in [0, %lld] (the row count), got %lld",
          static_cast<long long>(flags.GetInt("rows")),
          static_cast<long long>(outliers))));
    }
    SubspaceOutlierConfig config;
    config.num_points = static_cast<size_t>(flags.GetInt("rows"));
    config.num_dims = static_cast<size_t>(flags.GetInt("dims"));
    config.num_groups = config.num_dims / 4;
    config.num_outliers = static_cast<size_t>(flags.GetInt("outliers"));
    config.seed = seed;
    const GeneratedDataset g = GenerateSubspaceOutliers(config);
    return Emit(g.data, g.outlier_rows, out);
  }
  if (kind == "arrhythmia") {
    ArrhythmiaLikeConfig config;
    config.seed = seed;
    const ArrhythmiaLikeDataset g = GenerateArrhythmiaLike(config);
    return Emit(g.data, g.rare_rows, out);
  }
  if (kind == "housing") {
    const HousingLikeDataset g = GenerateHousingLike(seed);
    return Emit(g.data, g.contrarian_rows, out);
  }
  if (kind == "uniform") {
    const Status shape = CheckShape(flags, kind, 1);
    if (!shape.ok()) return Fail(shape);
    const Dataset data =
        GenerateUniform(static_cast<size_t>(flags.GetInt("rows")),
                        static_cast<size_t>(flags.GetInt("dims")), seed);
    return Emit(data, {}, out);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", kind.c_str());
  return 1;
}

}  // namespace
}  // namespace hido

int main(int argc, char** argv) { return hido::Main(argc, argv); }
