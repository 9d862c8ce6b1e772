#ifndef HIDO_TOOLS_LINT_LINT_RULES_H_
#define HIDO_TOOLS_LINT_LINT_RULES_H_

// Repo-invariant lint rules for hido_lint.
//
// Each rule enforces one repo-wide invariant that the compiler cannot (or
// does not) check, at regex/token level over comment- and string-stripped
// source text:
//
//   no-exceptions    throw/try/catch anywhere — recoverable failures use
//                    hido::Status / hido::Result<T>.
//   no-raw-random    std::mt19937 / std::random_device / rand() /
//                    time(nullptr) outside common/rng.* — all randomness
//                    flows through seeded hido::Rng streams, the backbone
//                    of the bit-determinism contract.
//   no-raw-mutex     std::mutex & friends anywhere but the one wrapper
//                    file src/common/mutex.h — locking goes through the
//                    annotated common::Mutex so Clang Thread Safety
//                    Analysis sees every critical section. The allowlist
//                    is exact-file, not prefix: a new file dropped beside
//                    mutex.h gets no free pass.
//   no-stdio-in-core printf/std::cout/std::cerr inside src/core/ — library
//                    code reports through HIDO_LOG_* / Status, never by
//                    writing to the process's streams.
//   no-naked-new     the `new` keyword anywhere — allocations are owned by
//                    containers or smart pointers (std::make_unique); the
//                    only sanctioned exception is a leaked-on-purpose
//                    process singleton, escaped per line with a comment
//                    justifying the leak.
//   simd-confinement SIMD intrinsics, vector types, and architecture
//                    macros (__AVX2__, __ARM_NEON, __builtin_cpu_supports)
//                    outside src/common/bitset_kernels.* — portable code
//                    reaches vector speed through the BitsetKernels
//                    dispatch table, never by scattering #ifdef'd
//                    intrinsics. The allowlist is exact-file, like
//                    no-raw-mutex.
//   header-guard     .h files carry the canonical HIDO_<PATH>_H_ guard.
//   include-order    each contiguous #include block is internally sorted
//                    and does not mix <system> with "project" includes.
//   doc-comment      public declarations (namespace scope or public class
//                    sections) in src/ headers carry a /// doc comment —
//                    every library header is API surface for the layer
//                    above it, and its docs are load-bearing.
//
// Two further rules are *cross-file* and live in the project model
// (tools/lint/project_model.h + cross_file_rules.h) because they need the
// whole index, not one file:
//
//   layering         the include graph respects the dependency DAG spec in
//                    tools/lint/layers.txt (no upward or cyclic includes).
//   metric-contract  every Counter/Gauge/Histogram name literal parses
//                    against the dotted-naming grammar and is declared in
//                    src/obs/telemetry.h's contract block, and every
//                    contract entry is registered somewhere (no dead docs).
//
// Escape hatch: a finding on line N is suppressed when line N contains
//   // hido-lint: allow(<rule-name>)
// Use it sparingly and justify it in a neighbouring comment; the
// suppression is per-line and per-rule.

#include <cstddef>
#include <string>
#include <vector>

namespace hido {
namespace lint {

/// One rule violation.
struct Finding {
  std::string rule;
  std::string path;
  size_t line = 0;  ///< 1-based; 0 = file-level finding (e.g. header guard)
  std::string message;
};

/// Name + one-line rationale for every rule (for --list-rules and docs).
struct RuleInfo {
  const char* name;
  const char* what;
};

/// The rule table, in evaluation order.
const std::vector<RuleInfo>& Rules();

/// True when `raw_line` carries the per-line suppression comment for
/// `rule`.
bool IsSuppressed(const std::string& raw_line, const std::string& rule);

/// The literals every match of token rule `rule` (no-exceptions ...
/// simd-confinement) contains one of: its regex runs only on lines that
/// hold one. Empty for a rule that is not a per-line token rule.
const std::vector<std::string>& TokenRuleAnchors(const std::string& rule);

/// True when token rule `rule`'s regex matches `code_line`, a line of
/// stripped code, whatever its anchors (for tests that pin the anchors).
bool TokenRuleMatches(const std::string& rule, const std::string& code_line);

/// An #include directive's delimiter and spelled name.
struct IncludeName {
  char style = '"';  ///< '"' for project includes, '<' for system.
  std::string name;  ///< The text between the delimiters.
};

/// Reads one line as an #include directive, as include-order and the
/// project model's include graph both do. `code_line`, the line of
/// stripped code, must open with `#include` (so commented-out includes and
/// ones quoted inside literals never count); `raw_line`, the same line
/// unstripped, supplies the name, since the stripper empties quoted ones.
/// Returns false when the line is no include.
bool ParseIncludeLine(const std::string& code_line,
                      const std::string& raw_line, IncludeName* include);

/// Splits text at every '\n' into its lines, the last one after the last
/// '\n' (empty when the text ends with one). Stripped and raw views of a
/// file split into the same numbering: the strippers keep every '\n'.
std::vector<std::string> SplitLines(const std::string& text);

/// Removes comments and string/char literal *contents* from source text,
/// preserving line structure (every '\n' survives), so token rules cannot
/// fire on documentation or on patterns quoted inside literals. Handles
/// //-comments, /*...*/ (multi-line), "..."/'...' with escapes, and
/// R"delim(...)delim" raw strings.
std::string StripCommentsAndStrings(const std::string& source);

/// Like StripCommentsAndStrings but keeps string/char literal contents
/// (raw strings are still collapsed to "" because their multi-line bodies
/// would corrupt line-oriented scans). Used by the project model to read
/// metric-name literals out of registration calls.
std::string StripComments(const std::string& source);

/// Lints one in-memory file. `path` must be repo-relative with '/'
/// separators (e.g. "src/core/detector.cc"); rules use it to scope
/// themselves (allowed directories, header-guard derivation).
std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content);

/// LintContent over a file already split: `code_lines` is
/// SplitLines(StripCommentsAndStrings(content)) and `raw_lines`
/// SplitLines(content), as the project model keeps them.
std::vector<Finding> LintLines(const std::string& path,
                               const std::vector<std::string>& code_lines,
                               const std::vector<std::string>& raw_lines);

/// Canonical include guard for a repo-relative header path:
/// "src/common/mutex.h" -> "HIDO_COMMON_MUTEX_H_",
/// "tools/lint/lint_rules.h" -> "HIDO_TOOLS_LINT_LINT_RULES_H_".
std::string ExpectedHeaderGuard(const std::string& path);

}  // namespace lint
}  // namespace hido

#endif  // HIDO_TOOLS_LINT_LINT_RULES_H_
