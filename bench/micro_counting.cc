// Micro-benchmarks for the cube-counting substrate (google-benchmark):
// the AND+popcount kernels, the fused k-way cube count (counted and scored
// through SparsityObjective, as the searches do), and grid construction
// cost.
//
// Besides the console table, the run writes BENCH_counting.json
// (HIDO_BENCH_JSON overrides the path): one telemetry result row per
// benchmark, for CI trend tracking.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/bitset_kernels.h"
#include "common/rng.h"
#include "core/objective.h"
#include "data/generators/synthetic.h"
#include "obs/telemetry.h"

namespace hido {
namespace {

struct BenchFixture {
  BenchFixture(size_t n, size_t d, size_t phi)
      : data(GenerateUniform(n, d, 42)),
        grid(GridModel::Build(data,
                              [&] {
                                GridModel::Options o;
                                o.phi = phi;
                                return o;
                              }())) {}
  Dataset data;
  GridModel grid;
};

std::vector<std::vector<DimRange>> MakeQueries(const GridModel& grid,
                                               size_t k, size_t count) {
  Rng rng(7);
  std::vector<std::vector<DimRange>> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    std::vector<DimRange> conditions;
    std::vector<size_t> dims;
    rng.SampleWithoutReplacement(grid.num_dims(), k, &dims);
    for (size_t d : dims) {
      conditions.push_back(
          {static_cast<uint32_t>(d),
           static_cast<uint32_t>(rng.UniformIndex(grid.phi()))});
    }
    queries.push_back(std::move(conditions));
  }
  return queries;
}

// ---------------------------------------------------------------------------
// Kernel ablation: the raw AND+popcount at the bottom of every cube count,
// per counting kernel (forced scalar, forced AVX2, ambient auto) and per
// operand density. 128Ki-bit operands (2048 words) keep the loop in L1/L2
// so the ablation measures the kernel, not the memory system. items/sec is
// bits ANDed per second; the acceptance bar is avx2 >= 1.5x scalar on the
// dense shape. An unavailable kernel skips with an error label rather than
// silently benchmarking the fallback.

constexpr size_t kKernelBits = 1 << 17;

enum class BitDensity { kDense, kSparse, kMixed };

DynamicBitset MakeBits(size_t n, BitDensity density, uint64_t seed) {
  Rng rng(seed);
  DynamicBitset bits(n);
  for (size_t i = 0; i < n; ++i) {
    const double p = density == BitDensity::kDense    ? 0.5
                     : density == BitDensity::kSparse ? 0.01
                     : i < n / 2                      ? 0.5
                                                      : 0.01;
    if (rng.Bernoulli(p)) bits.Set(i);
  }
  return bits;
}

void BM_AndCountKernel(benchmark::State& state, const char* kernel,
                       BitDensity density) {
  KernelKind kind = KernelKind::kScalar;
  const bool forced = ParseKernelKind(kernel, &kind);
  if (forced && KernelTableFor(kind) == nullptr) {
    state.SkipWithError("kernel unavailable on this host");
    return;
  }
  const DynamicBitset a = MakeBits(kKernelBits, density, 3);
  const DynamicBitset b = MakeBits(kKernelBits, density, 5);
  // "auto" benches the ambient dispatch (no override in scope).
  std::unique_ptr<ScopedKernelOverride> override;
  if (forced) override = std::make_unique<ScopedKernelOverride>(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndCount(b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelBits));
}

void BM_AndCountScalar(benchmark::State& state, BitDensity density) {
  BM_AndCountKernel(state, "scalar", density);
}
void BM_AndCountAvx2(benchmark::State& state, BitDensity density) {
  BM_AndCountKernel(state, "avx2", density);
}
void BM_AndCountAuto(benchmark::State& state, BitDensity density) {
  BM_AndCountKernel(state, "auto", density);
}
BENCHMARK_CAPTURE(BM_AndCountScalar, dense, BitDensity::kDense);
BENCHMARK_CAPTURE(BM_AndCountScalar, sparse, BitDensity::kSparse);
BENCHMARK_CAPTURE(BM_AndCountScalar, mixed, BitDensity::kMixed);
BENCHMARK_CAPTURE(BM_AndCountAvx2, dense, BitDensity::kDense);
BENCHMARK_CAPTURE(BM_AndCountAvx2, sparse, BitDensity::kSparse);
BENCHMARK_CAPTURE(BM_AndCountAvx2, mixed, BitDensity::kMixed);
BENCHMARK_CAPTURE(BM_AndCountAuto, dense, BitDensity::kDense);
BENCHMARK_CAPTURE(BM_AndCountAuto, sparse, BitDensity::kSparse);
BENCHMARK_CAPTURE(BM_AndCountAuto, mixed, BitDensity::kMixed);

void BM_Count(benchmark::State& state, size_t n) {
  const size_t k = static_cast<size_t>(state.range(0));
  BenchFixture fixture(n, 32, 10);
  SparsityObjective objective(fixture.grid);
  const auto queries = MakeQueries(fixture.grid, k, 256);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        objective.EvaluateConditions(queries[i++ & 255]).count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_CountBitset1k(benchmark::State& state) { BM_Count(state, 1000); }
void BM_CountBitset100k(benchmark::State& state) { BM_Count(state, 100000); }
BENCHMARK(BM_CountBitset1k)->Arg(2)->Arg(4);
BENCHMARK(BM_CountBitset100k)->Arg(2)->Arg(4);

void BM_GridBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateUniform(n, 32, 11);
  GridModel::Options options;
  options.phi = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GridModel::Build(data, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GridBuild)->Arg(1000)->Arg(10000);

// Console output as usual, plus one telemetry row per finished benchmark.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      obs::TelemetryRow row = {
          {"benchmark", run.benchmark_name()},
          {"iterations", static_cast<uint64_t>(run.iterations)},
          {"real_time_ns", run.GetAdjustedRealTime()},
          {"cpu_time_ns", run.GetAdjustedCPUTime()},
      };
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row.push_back({"items_per_second",
                       static_cast<double>(items->second)});
      }
      rows.push_back(std::move(row));
    }
  }

  std::vector<obs::TelemetryRow> rows;
};

int BenchMain(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const char* env = std::getenv("HIDO_BENCH_JSON");
  const char* path = env != nullptr ? env : "BENCH_counting.json";
  obs::RunTelemetry telemetry = obs::CaptureRunTelemetry("micro_counting");
  telemetry.results = std::move(reporter.rows);
  const Status written = obs::WriteRunTelemetryJson(telemetry, path);
  if (!written.ok()) {
    std::fprintf(stderr, "warning: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace hido

int main(int argc, char** argv) { return hido::BenchMain(argc, argv); }
