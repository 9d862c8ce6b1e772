#include "core/search_checkpoint.h"

#include <limits>
#include <sstream>
#include <string_view>

#include "common/file_util.h"
#include "common/string_util.h"

namespace hido {

namespace {

constexpr char kMagic[] = "hido-checkpoint";
// v2 added the per-restart `ops` line (genetic-operator totals), so a
// resumed run's telemetry counters match the uninterrupted run's. v3 widened
// `counter_stats` to the cube-cache breakdown; v4 shrank it back to the
// queries and the two counting strategies once counts were no longer
// memoized; v5 kept only the queries, since every cube is counted one way;
// v6 drops the `counter_stats` line, which always repeated `evaluations`;
// v7 drops the line saying whether empty cubes could be reported, since
// they never are. Older versions are rejected; checkpoints are short-lived
// scratch state, not archives.
constexpr char kVersion[] = "v7";

const char* StateName(RestartCheckpoint::State state) {
  switch (state) {
    case RestartCheckpoint::State::kUnstarted:
      return "unstarted";
    case RestartCheckpoint::State::kPartial:
      return "partial";
    case RestartCheckpoint::State::kDone:
      return "done";
  }
  return "unknown";
}

void AppendConditions(std::string& out, const Projection& projection) {
  const std::vector<DimRange> conditions = projection.Conditions();
  out += StrFormat(" %zu", conditions.size());
  for (const DimRange& cond : conditions) {
    out += StrFormat(" %u:%u", cond.dim, cond.cell);
  }
}

void AppendBest(std::string& out,
                const std::vector<ScoredProjection>& best) {
  out += StrFormat("num_best %zu\n", best.size());
  for (const ScoredProjection& scored : best) {
    out += StrFormat("best %zu %.17g", scored.count, scored.sparsity);
    AppendConditions(out, scored.projection);
    out += "\n";
  }
}

// Projections are dense, one cell per dimension, so the memory a
// checkpoint's entries take is their count times num_dims — and both come
// from the file. The parser grows its containers only as entries parse and
// builds at most this many projection cells in all (128 MiB), so a
// num_dims the text cannot back fails instead of exhausting memory.
constexpr size_t kMaxProjectionCells = size_t{1} << 26;

// Token-stream parser state shared by the Parse* helpers below.
struct Parser {
  std::istringstream in;
  std::string token;
  size_t projection_cells = 0;  ///< cells of the projections built so far

  explicit Parser(std::string_view text) : in(std::string(text)) {}

  Status Fail(const std::string& what) {
    return Status::ParseError("checkpoint: " + what);
  }
  Status ExpectKey(const char* key) {
    if (!(in >> token) || token != key) {
      return Fail(StrFormat("expected '%s'", key));
    }
    return Status::Ok();
  }
};

Status ParseProjection(Parser& p, size_t num_dims, size_t phi,
                       Projection& out) {
  size_t num_conditions = 0;
  if (!(p.in >> num_conditions) || num_conditions > num_dims) {
    return p.Fail("bad condition count");
  }
  if (num_dims > kMaxProjectionCells - p.projection_cells) {
    return p.Fail("projections exceed the cell budget for num_dims");
  }
  p.projection_cells += num_dims;
  out = Projection(num_dims);
  for (size_t c = 0; c < num_conditions; ++c) {
    if (!(p.in >> p.token)) return p.Fail("missing condition");
    const std::vector<std::string> pair = Split(p.token, ':');
    if (pair.size() != 2) return p.Fail("bad condition '" + p.token + "'");
    const Result<int64_t> dim = ParseInt(pair[0]);
    const Result<int64_t> cell = ParseInt(pair[1]);
    if (!dim.ok() || !cell.ok() || dim.value() < 0 ||
        static_cast<size_t>(dim.value()) >= num_dims || cell.value() < 0 ||
        static_cast<size_t>(cell.value()) >= phi) {
      return p.Fail("condition out of range '" + p.token + "'");
    }
    if (out.IsSpecified(static_cast<size_t>(dim.value()))) {
      return p.Fail("duplicate dimension in projection");
    }
    out.Specify(static_cast<size_t>(dim.value()),
                static_cast<uint32_t>(cell.value()));
  }
  return Status::Ok();
}

Status ParseBest(Parser& p, size_t num_dims, size_t phi,
                 size_t num_projections,
                 std::vector<ScoredProjection>& best) {
  HIDO_RETURN_IF_ERROR(p.ExpectKey("num_best"));
  size_t num_best = 0;
  if (!(p.in >> num_best) || num_best > num_projections) {
    return p.Fail("bad num_best");
  }
  best.clear();
  for (size_t b = 0; b < num_best; ++b) {
    HIDO_RETURN_IF_ERROR(p.ExpectKey("best"));
    ScoredProjection scored;
    if (!(p.in >> scored.count >> scored.sparsity)) {
      return p.Fail("bad best entry");
    }
    HIDO_RETURN_IF_ERROR(
        ParseProjection(p, num_dims, phi, scored.projection));
    if (scored.projection.Dimensionality() == 0) {
      return p.Fail("best entry without conditions");
    }
    best.push_back(std::move(scored));
  }
  return Status::Ok();
}

// The fingerprint fields of a checkpoint for `options` over `shape`, with
// no runs.
EvolutionCheckpoint Fingerprint(const EvolutionaryOptions& options,
                                const GridShape& shape,
                                ExpectationModel expectation) {
  EvolutionCheckpoint checkpoint;
  checkpoint.seed = options.seed;
  checkpoint.restarts = std::max<size_t>(1, options.restarts);
  checkpoint.population_size = options.population_size;
  checkpoint.max_generations = options.max_generations;
  checkpoint.stagnation_generations = options.stagnation_generations;
  checkpoint.convergence_threshold = options.convergence_threshold;
  checkpoint.elitism = options.elitism;
  checkpoint.crossover = static_cast<int>(options.crossover);
  checkpoint.mutation_p1 = options.mutation.p1;
  checkpoint.mutation_p2 = options.mutation.p2;
  checkpoint.target_dim = options.target_dim;
  checkpoint.num_projections = options.num_projections;
  checkpoint.expectation = static_cast<int>(expectation);
  checkpoint.num_dims = shape.num_dims;
  checkpoint.phi = shape.phi;
  checkpoint.num_points = shape.num_points;
  return checkpoint;
}

}  // namespace

GridShape GridShape::Of(const GridModel& grid) {
  return {grid.num_points(), grid.num_dims(), grid.phi()};
}

EvolutionCheckpoint MakeCheckpointShell(const EvolutionaryOptions& options,
                                        const GridModel& grid,
                                        ExpectationModel expectation) {
  EvolutionCheckpoint checkpoint =
      Fingerprint(options, GridShape::Of(grid), expectation);
  checkpoint.runs.resize(checkpoint.restarts);
  return checkpoint;
}

std::string SerializeCheckpoint(const EvolutionCheckpoint& checkpoint) {
  std::string out = StrFormat("%s %s\n", kMagic, kVersion);
  out += StrFormat("seed %llu\n",
                   static_cast<unsigned long long>(checkpoint.seed));
  out += StrFormat("restarts %zu\n", checkpoint.restarts);
  out += StrFormat("population_size %zu\n", checkpoint.population_size);
  out += StrFormat("max_generations %zu\n", checkpoint.max_generations);
  out += StrFormat("stagnation_generations %zu\n",
                   checkpoint.stagnation_generations);
  out += StrFormat("convergence_threshold %.17g\n",
                   checkpoint.convergence_threshold);
  out += StrFormat("elitism %zu\n", checkpoint.elitism);
  out += StrFormat("crossover %d\n", checkpoint.crossover);
  out += StrFormat("mutation %.17g %.17g\n", checkpoint.mutation_p1,
                   checkpoint.mutation_p2);
  out += StrFormat("target_dim %zu\n", checkpoint.target_dim);
  out += StrFormat("num_projections %zu\n", checkpoint.num_projections);
  out += StrFormat("expectation %d\n", checkpoint.expectation);
  out += StrFormat("num_dims %zu\n", checkpoint.num_dims);
  out += StrFormat("phi %zu\n", checkpoint.phi);
  out += StrFormat("num_points %zu\n", checkpoint.num_points);

  for (size_t r = 0; r < checkpoint.runs.size(); ++r) {
    const RestartCheckpoint& run = checkpoint.runs[r];
    out += StrFormat("run %zu %s\n", r, StateName(run.state));
    if (run.state == RestartCheckpoint::State::kUnstarted) continue;
    out += StrFormat("generation %zu\n", run.generation);
    out += StrFormat("evaluations %llu\n",
                     static_cast<unsigned long long>(run.evaluations));
    out += StrFormat("ops %llu %llu %llu\n",
                     static_cast<unsigned long long>(run.crossovers),
                     static_cast<unsigned long long>(run.mutations),
                     static_cast<unsigned long long>(run.selections));
    if (run.state == RestartCheckpoint::State::kDone) {
      out += StrFormat("stop_reason %d\n",
                       static_cast<int>(run.stop_reason));
    } else {
      out += StrFormat("stagnant %zu\n", run.stagnant_generations);
      out += StrFormat("rng %llu %llu %llu %llu %.17g %d\n",
                       static_cast<unsigned long long>(run.rng.s[0]),
                       static_cast<unsigned long long>(run.rng.s[1]),
                       static_cast<unsigned long long>(run.rng.s[2]),
                       static_cast<unsigned long long>(run.rng.s[3]),
                       run.rng.spare_normal,
                       run.rng.has_spare_normal ? 1 : 0);
    }
    AppendBest(out, run.best);
    if (run.state == RestartCheckpoint::State::kPartial) {
      out += StrFormat("population %zu\n", run.population.size());
      for (const Individual& individual : run.population) {
        // Infeasible strings carry +infinity sparsity, which the text
        // format cannot round-trip; store 0 and restore the infinity from
        // the feasibility flag on load.
        out += StrFormat("indiv %d %zu %.17g", individual.feasible ? 1 : 0,
                         individual.count,
                         individual.feasible ? individual.sparsity : 0.0);
        AppendConditions(out, individual.projection);
        out += "\n";
      }
    }
  }
  return out;
}

Result<EvolutionCheckpoint> ParseCheckpoint(std::string_view text) {
  Parser p(text);
  if (!(p.in >> p.token) || p.token != kMagic) return p.Fail("bad magic");
  if (!(p.in >> p.token) || p.token != kVersion) {
    return p.Fail("bad version");
  }

  EvolutionCheckpoint checkpoint;
  HIDO_RETURN_IF_ERROR(p.ExpectKey("seed"));
  if (!(p.in >> checkpoint.seed)) return p.Fail("bad seed");
  HIDO_RETURN_IF_ERROR(p.ExpectKey("restarts"));
  if (!(p.in >> checkpoint.restarts) || checkpoint.restarts == 0) {
    return p.Fail("bad restarts");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("population_size"));
  if (!(p.in >> checkpoint.population_size) ||
      checkpoint.population_size < 2) {
    return p.Fail("bad population_size");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("max_generations"));
  if (!(p.in >> checkpoint.max_generations)) {
    return p.Fail("bad max_generations");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("stagnation_generations"));
  if (!(p.in >> checkpoint.stagnation_generations)) {
    return p.Fail("bad stagnation_generations");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("convergence_threshold"));
  if (!(p.in >> checkpoint.convergence_threshold)) {
    return p.Fail("bad convergence_threshold");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("elitism"));
  if (!(p.in >> checkpoint.elitism)) return p.Fail("bad elitism");
  HIDO_RETURN_IF_ERROR(p.ExpectKey("crossover"));
  if (!(p.in >> checkpoint.crossover)) return p.Fail("bad crossover");
  HIDO_RETURN_IF_ERROR(p.ExpectKey("mutation"));
  if (!(p.in >> checkpoint.mutation_p1 >> checkpoint.mutation_p2)) {
    return p.Fail("bad mutation");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("target_dim"));
  if (!(p.in >> checkpoint.target_dim) || checkpoint.target_dim == 0) {
    return p.Fail("bad target_dim");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("num_projections"));
  if (!(p.in >> checkpoint.num_projections) ||
      checkpoint.num_projections == 0) {
    return p.Fail("bad num_projections");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("expectation"));
  if (!(p.in >> checkpoint.expectation)) return p.Fail("bad expectation");
  HIDO_RETURN_IF_ERROR(p.ExpectKey("num_dims"));
  if (!(p.in >> checkpoint.num_dims) || checkpoint.num_dims == 0) {
    return p.Fail("bad num_dims");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("phi"));
  // The range `--phi` accepts; a cell must fit a Projection condition.
  if (!(p.in >> checkpoint.phi) || checkpoint.phi < 2 ||
      checkpoint.phi >= Projection::kDontCare) {
    return p.Fail("bad phi");
  }
  HIDO_RETURN_IF_ERROR(p.ExpectKey("num_points"));
  if (!(p.in >> checkpoint.num_points)) return p.Fail("bad num_points");

  // One entry per `run` line the text holds, never sized from `restarts`.
  for (size_t r = 0; r < checkpoint.restarts; ++r) {
    HIDO_RETURN_IF_ERROR(p.ExpectKey("run"));
    size_t index = 0;
    if (!(p.in >> index) || index != r) return p.Fail("bad run index");
    if (!(p.in >> p.token)) return p.Fail("bad run state");
    RestartCheckpoint& run = checkpoint.runs.emplace_back();
    if (p.token == "unstarted") {
      run.state = RestartCheckpoint::State::kUnstarted;
      continue;
    }
    if (p.token == "done") {
      run.state = RestartCheckpoint::State::kDone;
    } else if (p.token == "partial") {
      run.state = RestartCheckpoint::State::kPartial;
    } else {
      return p.Fail("unknown run state '" + p.token + "'");
    }

    HIDO_RETURN_IF_ERROR(p.ExpectKey("generation"));
    if (!(p.in >> run.generation) ||
        run.generation > checkpoint.max_generations) {
      return p.Fail("bad generation");
    }
    HIDO_RETURN_IF_ERROR(p.ExpectKey("evaluations"));
    if (!(p.in >> run.evaluations)) return p.Fail("bad evaluations");
    HIDO_RETURN_IF_ERROR(p.ExpectKey("ops"));
    if (!(p.in >> run.crossovers >> run.mutations >> run.selections)) {
      return p.Fail("bad ops");
    }

    if (run.state == RestartCheckpoint::State::kDone) {
      HIDO_RETURN_IF_ERROR(p.ExpectKey("stop_reason"));
      int reason = 0;
      if (!(p.in >> reason) || reason < 0 ||
          reason > static_cast<int>(StopReason::kCancelled)) {
        return p.Fail("bad stop_reason");
      }
      run.stop_reason = static_cast<StopReason>(reason);
    } else {
      HIDO_RETURN_IF_ERROR(p.ExpectKey("stagnant"));
      if (!(p.in >> run.stagnant_generations)) return p.Fail("bad stagnant");
      HIDO_RETURN_IF_ERROR(p.ExpectKey("rng"));
      int has_spare = 0;
      if (!(p.in >> run.rng.s[0] >> run.rng.s[1] >> run.rng.s[2] >>
            run.rng.s[3] >> run.rng.spare_normal >> has_spare) ||
          (has_spare != 0 && has_spare != 1)) {
        return p.Fail("bad rng state");
      }
      run.rng.has_spare_normal = has_spare == 1;
    }

    HIDO_RETURN_IF_ERROR(ParseBest(p, checkpoint.num_dims, checkpoint.phi,
                                   checkpoint.num_projections, run.best));

    if (run.state == RestartCheckpoint::State::kPartial) {
      HIDO_RETURN_IF_ERROR(p.ExpectKey("population"));
      size_t population_size = 0;
      if (!(p.in >> population_size) ||
          population_size != checkpoint.population_size) {
        return p.Fail("population size mismatch");
      }
      for (size_t i = 0; i < population_size; ++i) {
        HIDO_RETURN_IF_ERROR(p.ExpectKey("indiv"));
        Individual& individual = run.population.emplace_back();
        int feasible = 0;
        if (!(p.in >> feasible >> individual.count >>
              individual.sparsity) ||
            (feasible != 0 && feasible != 1)) {
          return p.Fail("bad individual");
        }
        individual.feasible = feasible == 1;
        if (!individual.feasible) {
          individual.sparsity = std::numeric_limits<double>::infinity();
          individual.count = 0;
        }
        HIDO_RETURN_IF_ERROR(ParseProjection(
            p, checkpoint.num_dims, checkpoint.phi, individual.projection));
      }
    }
  }
  return checkpoint;
}

Status ValidateCheckpoint(const EvolutionCheckpoint& checkpoint,
                          const EvolutionaryOptions& options,
                          const GridShape& shape,
                          ExpectationModel expectation) {
  const EvolutionCheckpoint expected =
      Fingerprint(options, shape, expectation);
  auto mismatch = [](const char* what) {
    return Status::FailedPrecondition(
        StrFormat("checkpoint does not match this run: %s differs", what));
  };
  if (checkpoint.seed != expected.seed) return mismatch("seed");
  if (checkpoint.restarts != expected.restarts) return mismatch("restarts");
  if (checkpoint.population_size != expected.population_size) {
    return mismatch("population_size");
  }
  if (checkpoint.max_generations != expected.max_generations) {
    return mismatch("max_generations");
  }
  if (checkpoint.stagnation_generations !=
      expected.stagnation_generations) {
    return mismatch("stagnation_generations");
  }
  if (checkpoint.convergence_threshold != expected.convergence_threshold) {
    return mismatch("convergence_threshold");
  }
  if (checkpoint.elitism != expected.elitism) return mismatch("elitism");
  if (checkpoint.crossover != expected.crossover) {
    return mismatch("crossover");
  }
  if (checkpoint.mutation_p1 != expected.mutation_p1 ||
      checkpoint.mutation_p2 != expected.mutation_p2) {
    return mismatch("mutation");
  }
  if (checkpoint.target_dim != expected.target_dim) {
    return mismatch("target_dim");
  }
  if (checkpoint.num_projections != expected.num_projections) {
    return mismatch("num_projections");
  }
  if (checkpoint.expectation != expected.expectation) {
    return mismatch("expectation");
  }
  if (checkpoint.num_dims != expected.num_dims) {
    return mismatch("num_dims");
  }
  if (checkpoint.phi != expected.phi) return mismatch("phi");
  if (checkpoint.num_points != expected.num_points) {
    return mismatch("num_points");
  }
  if (checkpoint.runs.size() != expected.restarts) {
    return Status::FailedPrecondition("checkpoint run count is malformed");
  }
  if (checkpoint.target_dim > checkpoint.num_dims) {
    return Status::FailedPrecondition(
        "checkpoint target_dim exceeds dimensionality");
  }
  // The search only ever keeps target_dim-cubes as best entries and as
  // feasible individuals; the genetic operators rely on it.
  for (const RestartCheckpoint& run : checkpoint.runs) {
    for (const ScoredProjection& scored : run.best) {
      if (scored.projection.Dimensionality() != checkpoint.target_dim) {
        return Status::FailedPrecondition(
            "checkpoint best entry is not a target_dim cube");
      }
    }
    for (const Individual& individual : run.population) {
      if (individual.feasible &&
          individual.projection.Dimensionality() != checkpoint.target_dim) {
        return Status::FailedPrecondition(
            "checkpoint individual marked feasible is not a target_dim cube");
      }
    }
  }
  return Status::Ok();
}

Status SaveCheckpointAtomic(const EvolutionCheckpoint& checkpoint,
                            const std::string& path) {
  return WriteFileAtomic(path, SerializeCheckpoint(checkpoint));
}

Result<EvolutionCheckpoint> LoadCheckpoint(const std::string& path) {
  const Result<FileBytes> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ParseCheckpoint(bytes.value().view());
}

}  // namespace hido
