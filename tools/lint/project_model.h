#ifndef HIDO_TOOLS_LINT_PROJECT_MODEL_H_
#define HIDO_TOOLS_LINT_PROJECT_MODEL_H_

// Pass 1 of hido_lint: the project model.
//
// hido_lint used to be a per-file token linter; the cross-file rules
// (layering, metric-contract) need to see the whole project at once. The
// model is built in a single indexing pass: every .h/.cc file under the
// lint roots is read once and reduced to
//
//   * its repo-relative path (and the include-name other files use for it),
//   * its lines, raw and with comments+strings removed (for token rules),
//   * its #include edges (quoted vs angle, with line numbers),
//   * every Counter/Gauge/Histogram name literal it registers (read from a
//     comments-only-stripped view that is not kept),
//
// after which pass 2 runs the per-file rules (tools/lint/lint_rules.h) and
// the cross-file rules (tools/lint/cross_file_rules.h) over the index
// without touching the filesystem again. Keeping the index cheap is a
// stated budget: a full-repo run must stay under the CI lint time budget,
// so everything here is one linear scan per file, and each file is
// stripped and split into lines once, here, for both passes.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace hido {
namespace lint {

/// One #include directive.
struct IncludeEdge {
  size_t line = 0;      ///< 1-based line of the directive.
  char style = '"';     ///< '"' for project includes, '<' for system.
  std::string target;   ///< The spelled include name ("common/status.h").
};

/// One metric-name registration literal, normalized to a dotted pattern.
/// Dynamic name parts (StrFormat("%s") arguments, string concatenation
/// onto a trailing-dot prefix) become a `<dynamic>` placeholder segment so
/// the contract can match them with its own `<placeholder>` entries.
struct MetricLiteral {
  size_t line = 0;      ///< 1-based line where the literal starts.
  std::string kind;     ///< "counter", "gauge", or "histogram".
  std::string pattern;  ///< e.g. "search.generations", "serve.<dynamic>.requests".
};

/// Everything pass 2 needs to know about one source file.
struct FileIndex {
  std::string path;  ///< Repo-relative with '/' separators.
  /// SplitLines(content): the raw bytes as read, one entry per line.
  std::vector<std::string> raw_lines;
  /// SplitLines(StripCommentsAndStrings(content)), numbered as raw_lines.
  std::vector<std::string> code_lines;
  std::vector<IncludeEdge> includes;
  std::vector<MetricLiteral> metrics;
};

/// The whole indexed project, files sorted by path (deterministic output
/// order falls out of deterministic iteration).
struct ProjectIndex {
  std::vector<FileIndex> files;

  /// include-name -> index into `files`. Each file is registered under its
  /// full path and under the path after the last "src/" segment, which is
  /// how library headers are spelled ("src/common/rng.h" is included as
  /// "common/rng.h"); the suffix form also resolves includes inside lint
  /// fixtures rooted at tests/lint/testdata/<case>/src/.
  std::map<std::string, size_t> by_include_name;

  /// Returns the index of the file a quoted include resolves to, or
  /// npos when the target is not part of the index (system headers,
  /// third-party, partial-root runs).
  size_t Resolve(const std::string& include_target) const;

  static constexpr size_t npos = static_cast<size_t>(-1);
};

/// Indexes one in-memory file (the unit the tests drive directly).
FileIndex BuildFileIndex(const std::string& path, const std::string& content);

/// Assembles the project index from per-file indexes: sorts by path and
/// builds the include-name map (first registration wins on collision, so
/// the order is deterministic).
ProjectIndex BuildProjectIndex(std::vector<FileIndex> files);

/// Extracts #include edges. `code_lines` are the comments+strings-stripped
/// lines (they gate the match so commented-out includes and includes quoted
/// inside string literals never count); `raw_lines` are the raw source
/// lines the include name is read from (the stripper empties string-literal
/// contents, which would blank out every "project/include.h").
std::vector<IncludeEdge> ExtractIncludes(
    const std::vector<std::string>& code_lines,
    const std::vector<std::string>& raw_lines);

/// Extracts metric-name literals from the comments-only-stripped view.
/// Recognizes Counter("…") / Gauge("…") / Histogram("…") and their
/// registry Get* forms, tolerating line breaks anywhere whitespace is
/// legal, adjacent-literal concatenation, a StrFormat(...) or
/// std::string(...) wrapper, and runtime suffix concatenation (a literal
/// ending in '.' followed by '+', e.g. "run.stops." + cause).
std::vector<MetricLiteral> ExtractMetricLiterals(
    const std::string& code_with_strings);

/// True when `path` lies under a "src/" directory segment (either the repo
/// root's src/ or a fixture's .../src/). Metric extraction and the
/// doc-comment rule scope themselves with this: test code may spell
/// metric-looking literals freely.
bool IsUnderSrc(const std::string& path);

}  // namespace lint
}  // namespace hido

#endif  // HIDO_TOOLS_LINT_PROJECT_MODEL_H_
