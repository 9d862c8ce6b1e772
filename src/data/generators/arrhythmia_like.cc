#include "data/generators/arrhythmia_like.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/rng.h"

namespace hido {

namespace {

// Class frequencies of the real UCI arrhythmia dataset (452 records),
// matching Table 2: common classes {1,2,6,10,16} cover 85.4%, rare classes
// {3,4,5,7,8,9,14,15} cover 14.6%.
struct ClassFrequency {
  int32_t code;
  size_t count_in_452;
};
constexpr ClassFrequency kRealFrequencies[] = {
    {1, 245}, {2, 44}, {6, 25}, {10, 50}, {16, 22},  // common
    {3, 15},  {4, 15}, {5, 13}, {7, 3},   {8, 2},
    {9, 9},   {14, 4}, {15, 5},  // rare
};
constexpr size_t kNumCommon = 5;
constexpr size_t kNumClasses = std::size(kRealFrequencies);

double ClampUnit(double v) { return std::min(0.999999, std::max(0.0, v)); }

// A correlated pair of attributes whose joint support is M modes (a random
// per-dim permutation diagonal).
struct Group {
  size_t dim_a;
  size_t dim_b;
  std::vector<size_t> levels_a;  // level of mode m on dim_a
  std::vector<size_t> levels_b;
};

double LevelCenter(size_t level, size_t modes) {
  return (static_cast<double>(level) + 0.5) / static_cast<double>(modes);
}

// Largest-remainder apportionment of `total` rows to the real frequencies.
std::vector<size_t> ApportionCounts(size_t total) {
  std::vector<size_t> counts(kNumClasses, 0);
  std::vector<std::pair<double, size_t>> remainders;  // (frac, class idx)
  size_t assigned = 0;
  for (size_t i = 0; i < kNumClasses; ++i) {
    const double exact = static_cast<double>(total) *
                         static_cast<double>(kRealFrequencies[i].count_in_452) /
                         452.0;
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - std::floor(exact), i});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t j = 0; assigned < total; ++j) {
    counts[remainders[j % remainders.size()].second] += 1;
    ++assigned;
  }
  return counts;
}

}  // namespace

ArrhythmiaLikeDataset GenerateArrhythmiaLike(
    const ArrhythmiaLikeConfig& config) {
  HIDO_CHECK(config.num_rows >= 20);
  HIDO_CHECK(config.num_groups >= 2);
  HIDO_CHECK_MSG(2 * config.num_groups <= config.num_dims,
                 "groups need %zu dims but only %zu exist",
                 2 * config.num_groups, config.num_dims);
  HIDO_CHECK(config.modes_per_group >= 2);
  HIDO_CHECK(!config.rare_classes.empty());

  Rng rng(config.seed);
  const std::vector<size_t> counts = ApportionCounts(config.num_rows);
  const size_t M = config.modes_per_group;

  // Correlated attribute pairs.
  std::vector<size_t> pool;
  rng.SampleWithoutReplacement(config.num_dims, 2 * config.num_groups, &pool);
  rng.Shuffle(pool);
  std::vector<Group> groups(config.num_groups);
  for (size_t g = 0; g < groups.size(); ++g) {
    groups[g].dim_a = std::min(pool[2 * g], pool[2 * g + 1]);
    groups[g].dim_b = std::max(pool[2 * g], pool[2 * g + 1]);
    groups[g].levels_a.resize(M);
    groups[g].levels_b.resize(M);
    for (size_t m = 0; m < M; ++m) {
      groups[g].levels_a[m] = m;
      groups[g].levels_b[m] = m;
    }
    rng.Shuffle(groups[g].levels_a);
    rng.Shuffle(groups[g].levels_b);
  }

  // Balanced mode assignment per group: each mode holds floor/ceil(N/M)
  // rows, so equi-depth range boundaries fall between mode clusters instead
  // of splitting them.
  std::vector<std::vector<size_t>> decks(groups.size());
  for (auto& deck : decks) {
    deck.resize(config.num_rows);
    for (size_t i = 0; i < deck.size(); ++i) deck[i] = i % M;
    rng.Shuffle(deck);
  }

  // One signature group per rare class: its members take off-mode
  // combinations there (the pair (mode_i, mode_j), i != j, varies per row
  // so same-class records spread over many sparse cells).
  std::vector<size_t> signature_group(config.rare_classes.size());
  for (size_t& g : signature_group) g = rng.UniformIndex(groups.size());

  // Row plan, shuffled so class blocks interleave as in a real file.
  struct RowSpec {
    int32_t code;
    bool rare;
    size_t index;  // common-class id or rare-class id
  };
  std::vector<RowSpec> plan;
  plan.reserve(config.num_rows);
  for (size_t i = 0; i < kNumCommon; ++i) {
    for (size_t n = 0; n < counts[i]; ++n) {
      plan.push_back({kRealFrequencies[i].code, false, i});
    }
  }
  for (size_t i = 0; i + kNumCommon < kNumClasses; ++i) {
    for (size_t n = 0; n < counts[kNumCommon + i]; ++n) {
      plan.push_back({kRealFrequencies[kNumCommon + i].code, true, i});
    }
  }
  rng.Shuffle(plan);

  ArrhythmiaLikeDataset out;
  out.data = Dataset(config.num_dims);
  out.rare_classes = config.rare_classes;
  std::vector<int32_t> labels;
  labels.reserve(plan.size());
  std::vector<double> row(config.num_dims);
  std::vector<size_t> common_rows;

  auto sample_group_mode = [&](const Group& group, size_t mode) {
    row[group.dim_a] =
        ClampUnit(rng.Normal(LevelCenter(group.levels_a[mode], M),
                             config.mode_sigma));
    row[group.dim_b] =
        ClampUnit(rng.Normal(LevelCenter(group.levels_b[mode], M),
                             config.mode_sigma));
  };

  for (size_t r = 0; r < plan.size(); ++r) {
    const RowSpec& spec = plan[r];
    for (size_t d = 0; d < config.num_dims; ++d) {
      row[d] = rng.UniformDouble();
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      sample_group_mode(groups[g], decks[g][r]);
    }
    if (spec.rare) {
      // Off-mode combination in the class's signature group: keep the deck
      // mode on one attribute (marginals stay balanced) and override the
      // other with a different mode's level.
      const size_t gid = signature_group[spec.index];
      const Group& group = groups[gid];
      const size_t mode_i = decks[gid][r];
      size_t mode_j = rng.UniformIndex(M);
      while (mode_j == mode_i) mode_j = rng.UniformIndex(M);
      if (rng.Bernoulli(0.5)) {
        row[group.dim_b] =
            ClampUnit(rng.Normal(LevelCenter(group.levels_b[mode_j], M),
                                 config.mode_sigma));
      } else {
        row[group.dim_a] =
            ClampUnit(rng.Normal(LevelCenter(group.levels_a[mode_j], M),
                                 config.mode_sigma));
      }
      out.rare_rows.push_back(r);
    } else {
      common_rows.push_back(r);
    }
    out.data.AppendRow(row);
    labels.push_back(spec.code);
  }

  // Gross recording errors: an out-of-scale value paired with an
  // inconsistent partner value (the paper's 780 cm / 6 kg person). The
  // coordinate +5.0 lands in the top range of its attribute; the partner
  // takes a mode whose dim_a level is NOT the top range's level, so the
  // combination matches no mode.
  const size_t num_errors =
      std::min(config.num_recording_errors, common_rows.size());
  if (num_errors > 0) {
    std::vector<size_t> picks;
    rng.SampleWithoutReplacement(common_rows.size(), num_errors, &picks);
    for (size_t p : picks) {
      const size_t r = common_rows[p];
      const Group& group = groups[rng.UniformIndex(groups.size())];
      // Mode holding the top level of dim_a (exists: levels_a is a perm).
      size_t top_mode = 0;
      for (size_t m = 0; m < M; ++m) {
        if (group.levels_a[m] == M - 1) top_mode = m;
      }
      size_t other = rng.UniformIndex(M);
      while (other == top_mode) other = rng.UniformIndex(M);
      out.data.Set(r, group.dim_a, 5.0 + rng.UniformDouble());
      out.data.Set(
          r, group.dim_b,
          ClampUnit(rng.Normal(LevelCenter(group.levels_b[other], M),
                               config.mode_sigma)));
      out.recording_error_rows.push_back(r);
    }
  }

  out.data.SetLabels(std::move(labels));
  return out;
}

}  // namespace hido
