#include "data/generators/synthetic.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace hido {

namespace {

double ClampUnit(double v) { return std::min(0.999999, std::max(0.0, v)); }

// One correlated attribute group: `dims` move together. Mode j places dim i
// of the group at level `levels[i][j]` (a per-dim permutation of 0..M-1, so
// the joint support is a random "diagonal" of the M^|dims| grid).
struct Group {
  std::vector<size_t> dims;
  // levels[dim_index_in_group][mode] in [0, M).
  std::vector<std::vector<size_t>> levels;
};

// Center value of level `level` out of `modes` on the unit interval.
double LevelCenter(size_t level, size_t modes) {
  return (static_cast<double>(level) + 0.5) / static_cast<double>(modes);
}

std::vector<Group> MakeGroups(const SubspaceOutlierConfig& config,
                              Rng& rng) {
  std::vector<size_t> chosen;
  rng.SampleWithoutReplacement(
      config.num_dims, config.num_groups * config.group_dims, &chosen);
  // `chosen` is sorted; shuffle so group membership is not positional.
  std::vector<size_t> pool = chosen;
  rng.Shuffle(pool);

  std::vector<Group> groups(config.num_groups);
  size_t next = 0;
  for (Group& group : groups) {
    group.dims.assign(pool.begin() + static_cast<ptrdiff_t>(next),
                      pool.begin() + static_cast<ptrdiff_t>(
                                         next + config.group_dims));
    next += config.group_dims;
    std::sort(group.dims.begin(), group.dims.end());
    group.levels.resize(group.dims.size());
    for (std::vector<size_t>& perm : group.levels) {
      perm.resize(config.modes_per_group);
      for (size_t m = 0; m < config.modes_per_group; ++m) perm[m] = m;
      rng.Shuffle(perm);
    }
  }
  return groups;
}

// Balanced mode assignments: a shuffled deck holding each mode
// floor/ceil(n/M) times. Exact balance matters: it puts the equi-depth
// range boundaries into the gaps *between* mode clusters, so discretized
// cells align with modes instead of splitting them.
std::vector<size_t> MakeModeDeck(size_t n, size_t modes, Rng& rng) {
  std::vector<size_t> deck(n);
  for (size_t i = 0; i < n; ++i) deck[i] = i % modes;
  rng.Shuffle(deck);
  return deck;
}

// Writes a sample into `row`: uniform noise everywhere, then the assigned
// mode per group.
void SampleBackgroundRow(const std::vector<Group>& groups,
                         const std::vector<size_t>& group_modes,
                         const SubspaceOutlierConfig& config, Rng& rng,
                         std::vector<double>& row) {
  for (size_t d = 0; d < config.num_dims; ++d) {
    row[d] = rng.UniformDouble();
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    const Group& group = groups[g];
    const size_t mode = group_modes[g];
    for (size_t i = 0; i < group.dims.size(); ++i) {
      row[group.dims[i]] = ClampUnit(
          rng.Normal(LevelCenter(group.levels[i][mode],
                                 config.modes_per_group),
                     config.mode_sigma));
    }
  }
}

}  // namespace

GeneratedDataset GenerateSubspaceOutliers(
    const SubspaceOutlierConfig& config) {
  HIDO_CHECK(config.num_points >= 1);
  HIDO_CHECK(config.num_dims >= 2);
  HIDO_CHECK(config.num_groups >= 1);
  HIDO_CHECK_MSG(config.group_dims >= 2,
                 "a correlated group needs >= 2 dims");
  HIDO_CHECK_MSG(config.num_groups * config.group_dims <= config.num_dims,
                 "groups need %zu dims but only %zu exist",
                 config.num_groups * config.group_dims, config.num_dims);
  HIDO_CHECK(config.modes_per_group >= 2);
  HIDO_CHECK_MSG(config.outlier_subspace_dims >= 2 &&
                     config.outlier_subspace_dims <= config.group_dims,
                 "outlier_subspace_dims must be in [2, group_dims]");
  HIDO_CHECK(config.num_outliers <= config.num_points);
  HIDO_CHECK(config.missing_fraction >= 0.0 &&
             config.missing_fraction < 1.0);

  Rng rng(config.seed);
  const std::vector<Group> groups = MakeGroups(config, rng);

  GeneratedDataset out;
  out.data = Dataset(config.num_dims);
  for (const Group& group : groups) {
    out.groups.push_back(group.dims);
  }

  // One balanced mode deck per group, covering every row (outliers use
  // their deck modes in the groups they do not deviate in).
  std::vector<std::vector<size_t>> decks(groups.size());
  for (auto& deck : decks) {
    deck = MakeModeDeck(config.num_points, config.modes_per_group, rng);
  }
  std::vector<size_t> group_modes(groups.size());
  auto modes_for_row = [&](size_t r) {
    for (size_t g = 0; g < groups.size(); ++g) group_modes[g] = decks[g][r];
  };

  const size_t num_background = config.num_points - config.num_outliers;

  // Pre-pass: arrange the decks so each anomaly pair's members hold
  // *different* deck modes in their shared group (swaps preserve the deck's
  // mode totals; done before any row is generated so data and bookkeeping
  // agree).
  for (size_t o = 0; o + 1 < config.num_outliers; o += 2) {
    const size_t group_id = (o / 2) % groups.size();
    const size_t first = num_background + o;
    if (decks[group_id][first + 1] != decks[group_id][first]) continue;
    for (size_t r = 0; r < num_background; ++r) {
      if (decks[group_id][r] != decks[group_id][first]) {
        std::swap(decks[group_id][r], decks[group_id][first + 1]);
        break;
      }
    }
  }

  std::vector<double> row(config.num_dims);
  for (size_t i = 0; i < num_background; ++i) {
    modes_for_row(i);
    SampleBackgroundRow(groups, group_modes, config, rng, row);
    out.data.AppendRow(row);
  }

  // Planted anomalies. Each anomaly keeps its deck mode i on the first
  // deviating dim and takes a different mode j on the others, so no mode
  // matches the resulting combination (per-dim level assignments are
  // injective in the mode) and no background point shares the cell —
  // marginally common, jointly unique.
  //
  // Anomalies are planted in complementary PAIRS per group — (i,j,...) and
  // (j,i,...) — with deck entries arranged so the pair's overrides cancel:
  // per-dimension marginals stay *exactly* balanced and the equi-depth
  // ranges keep aligning with the modes (otherwise every +-1 marginal
  // imbalance spills a boundary point into a spurious one-point cell that
  // ties with the planted ones). An odd final anomaly accepts the +-1.
  std::vector<size_t> pending_picks;
  for (size_t o = 0; o < config.num_outliers; ++o) {
    const size_t row_id = num_background + o;
    const size_t group_id = (o / 2) % groups.size();
    const Group& group = groups[group_id];
    const bool has_partner = (o + 1 < config.num_outliers);
    const bool is_first_of_pair = (o % 2 == 0);

    modes_for_row(row_id);
    SampleBackgroundRow(groups, group_modes, config, rng, row);

    const size_t mode_i = group_modes[group_id];
    size_t mode_j;
    if (is_first_of_pair && has_partner) {
      mode_j = decks[group_id][row_id + 1];  // partner's deck mode
      rng.SampleWithoutReplacement(
          group.dims.size(), config.outlier_subspace_dims, &pending_picks);
    } else if (!is_first_of_pair) {
      mode_j = decks[group_id][row_id - 1];  // complement the partner
      // Degenerate fallback (pre-pass found no swap candidate): accept the
      // +-1 imbalance rather than an on-mode combination.
      while (mode_j == mode_i) {
        mode_j = rng.UniformIndex(config.modes_per_group);
      }
    } else {
      // Odd final anomaly without a partner.
      mode_j = rng.UniformIndex(config.modes_per_group);
      while (mode_j == mode_i) {
        mode_j = rng.UniformIndex(config.modes_per_group);
      }
      rng.SampleWithoutReplacement(
          group.dims.size(), config.outlier_subspace_dims, &pending_picks);
    }
    HIDO_DCHECK(mode_j != mode_i);

    std::vector<size_t> dims;
    for (size_t p = 0; p < pending_picks.size(); ++p) {
      const size_t gi = pending_picks[p];
      dims.push_back(group.dims[gi]);
      if (p == 0) continue;  // keeps the deck-mode (i) value
      row[group.dims[gi]] = ClampUnit(
          rng.Normal(LevelCenter(group.levels[gi][mode_j],
                                 config.modes_per_group),
                     config.mode_sigma));
    }
    std::sort(dims.begin(), dims.end());
    out.outlier_rows.push_back(out.data.num_rows());
    out.outlier_dims.push_back(std::move(dims));
    out.data.AppendRow(row);
  }

  // Scatter the anomalies across the file: permute all rows so planted
  // rows are not clustered at the end (real anomalies carry no positional
  // signal, and evaluation tie-breaks must not be able to exploit one).
  std::vector<size_t> order(out.data.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  out.data = out.data.SelectRows(order);
  std::vector<size_t> position_of(order.size());
  for (size_t new_row = 0; new_row < order.size(); ++new_row) {
    position_of[order[new_row]] = new_row;
  }
  for (size_t& row : out.outlier_rows) row = position_of[row];

  if (config.missing_fraction > 0.0) {
    for (size_t r = 0; r < out.data.num_rows(); ++r) {
      for (size_t c = 0; c < out.data.num_cols(); ++c) {
        if (rng.Bernoulli(config.missing_fraction)) {
          out.data.SetMissing(r, c);
        }
      }
    }
  }
  return out;
}

Dataset GenerateUniform(size_t num_points, size_t num_dims, uint64_t seed) {
  Rng rng(seed);
  Dataset data(num_dims);
  std::vector<double> row(num_dims);
  for (size_t i = 0; i < num_points; ++i) {
    for (size_t d = 0; d < num_dims; ++d) {
      row[d] = rng.UniformDouble();
    }
    data.AppendRow(row);
  }
  return data;
}

}  // namespace hido
