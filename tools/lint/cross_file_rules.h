#ifndef HIDO_TOOLS_LINT_CROSS_FILE_RULES_H_
#define HIDO_TOOLS_LINT_CROSS_FILE_RULES_H_

// Pass 2 of hido_lint: cross-file rules over the project model.
//
//   layering         The include graph must respect the dependency DAG
//                    declared in tools/lint/layers.txt. The spec is data,
//                    not code: `layer <name> <path-prefix>...` lines
//                    declare layers (prefixes match at a directory
//                    boundary, anywhere in the path, so fixture trees
//                    under tests/lint/testdata/<case>/src/ map the same
//                    way as the real tree), and `allow <from> -> <to>...`
//                    lines declare the direct edges; reachability is the
//                    transitive closure, same-layer includes are always
//                    legal. Any other resolved include is reported as an
//                    upward include at its exact file:line. Cycles in the
//                    file-level include graph are found via Tarjan SCC and
//                    reported with the full offending path a -> b -> a.
//
//   metric-contract  Every Counter("…")/Gauge("…")/Histogram("…") literal
//                    registered under src/ must (1) parse against the
//                    CONTRIBUTING dotted-naming grammar
//                    (segment = [a-z][a-z0-9_]*, two or more segments),
//                    (2) be declared with its kind and thread-variance in
//                    the contract block of src/obs/telemetry.h, between
//                    the METRIC-CONTRACT-BEGIN/END markers; and (3) every
//                    contract entry must match at least one registration —
//                    dead documentation fails the build too. Dynamic name
//                    parts (`<dynamic>` in extracted patterns,
//                    `<placeholder>` spellings in the contract) match any
//                    single segment.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lint_rules.h"
#include "tools/lint/project_model.h"

namespace hido {
namespace lint {

/// The parsed layering DAG.
struct LayerSpec {
  struct Layer {
    std::string name;
    std::vector<std::string> prefixes;  ///< Directory-boundary substrings.
  };
  std::vector<Layer> layers;
  /// Transitive closure: reachable[from] contains every layer `from` may
  /// include (itself included).
  std::map<std::string, std::set<std::string>> reachable;
};

/// Parses a layers.txt. On failure returns false and sets `error` to a
/// line-precise message; the caller treats that as a usage error (the spec
/// is configuration, not linted source).
bool ParseLayerSpec(const std::string& content, LayerSpec& spec,
                    std::string& error);

/// Maps a path to its layer name via the spec's prefixes, or "" when the
/// file is outside every declared layer (then layering does not apply).
std::string LayerOf(const LayerSpec& spec, const std::string& path);

/// The layering rule: upward includes + SCC include cycles.
std::vector<Finding> CheckLayering(const ProjectIndex& index,
                                   const LayerSpec& spec);

/// One parsed entry of the telemetry.h metric contract block.
struct MetricContractEntry {
  size_t line = 0;
  std::string kind;     ///< "counter" | "gauge" | "histogram".
  std::string pattern;  ///< Dotted name, `<placeholder>` segments allowed.
  bool invariant = false;
};

/// Parses the METRIC-CONTRACT block out of the contract header's raw
/// lines. Malformed lines inside the block become findings against
/// `contract_path`.
std::vector<MetricContractEntry> ParseMetricContract(
    const std::string& contract_path, const std::vector<std::string>& lines,
    std::vector<Finding>& findings);

/// The metric-contract rule over the whole index. Looks for the contract
/// header (a file whose path is or ends with "src/obs/telemetry.h"); when
/// the index has none (partial-root runs) only the grammar check runs.
std::vector<Finding> CheckMetricContract(const ProjectIndex& index);

/// True when `name` parses against the metric-name grammar:
/// two or more '.'-separated segments, each [a-z][a-z0-9_]* or a
/// `<placeholder>` when `allow_placeholders`.
bool IsValidMetricPattern(const std::string& name, bool allow_placeholders);

}  // namespace lint
}  // namespace hido

#endif  // HIDO_TOOLS_LINT_CROSS_FILE_RULES_H_
