#include "tools/lint/lint_rules.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

namespace hido {
namespace lint {

namespace {

// True when `path` starts with `prefix` at a directory boundary.
bool PathStartsWith(const std::string& path, const std::string& prefix) {
  return path.size() >= prefix.size() &&
         path.compare(0, prefix.size(), prefix) == 0;
}

bool IsHeader(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// A token rule: regex over stripped code text, scoped by path predicates.
struct TokenRule {
  const char* name;
  const char* what;
  // Matches one offending line of stripped code.
  std::regex pattern;
  // Literals every match contains one of: the regex runs only on lines
  // that hold one, and stays the judge there.
  std::vector<std::string> anchors;
  // Paths where the construct is legitimate (prefix match); empty = none.
  std::vector<std::string> allowed_prefixes;
  // Exact repo-relative paths where the construct is legitimate. Tighter
  // than a prefix: new files beside an allowed one are NOT exempt and must
  // either use the sanctioned wrapper or carry a per-line escape.
  std::vector<std::string> allowed_files;
  // When non-empty, the rule only applies under these prefixes.
  std::vector<std::string> only_under;
  const char* message;
};

const std::vector<TokenRule>& TokenRules() {
  // Leaked-on-purpose: compiled regexes must outlive every caller.
  static const std::vector<TokenRule>* const rules = new std::vector<  // hido-lint: allow(no-naked-new)
      TokenRule>{
      {"no-exceptions",
       "recoverable failures return Status/Result<T>; no throw/try/catch",
       std::regex(R"(\bthrow\b|\btry\s*\{|\bcatch\s*\()"),
       {"throw", "try", "catch"},
       {},
       {},
       {},
       "exception construct; use hido::Status / hido::Result<T> instead"},
      {"no-raw-random",
       "all randomness flows through seeded hido::Rng streams "
       "(determinism contract)",
       std::regex(R"(\bstd::mt19937(_64)?\b|\bstd::random_device\b)"
                  R"(|\bs?rand\s*\(|\b(std::)?time\s*\(\s*(nullptr|NULL|0)\s*\))"),
       {"mt19937", "random_device", "rand", "time"},
       {"src/common/rng."},
       {},
       {},
       "raw randomness/time seed; draw from hido::Rng (common/rng.h) with "
       "an explicit seed"},
      {"no-raw-mutex",
       "locking goes through the annotated common::Mutex so Clang thread "
       "safety analysis sees it",
       std::regex(R"(\bstd::(recursive_|shared_|timed_)?mutex\b)"
                  R"(|\bstd::condition_variable(_any)?\b)"
                  R"(|\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b)"),
       {"mutex", "condition_variable", "lock"},
       {},
       // Exactly the wrapper that owns the raw primitives. Everything else
       // in src/common/ — including concurrent components such as
       // src/common/thread_pool.cc — uses common::Mutex like the rest of
       // the repo.
       {"src/common/mutex.h"},
       {},
       "raw std::mutex/lock; use common::Mutex / MutexLock / CondVar "
       "(common/mutex.h) so the thread-safety analysis applies"},
      {"no-stdio-in-core",
       "core library code reports through HIDO_LOG_* / Status, not the "
       "process's streams",
       std::regex(R"(\b(printf|fprintf|sprintf|puts)\s*\()"
                  R"(|\bstd::(cout|cerr|clog)\b)"),
       {"printf", "puts", "cout", "cerr", "clog"},
       {},
       {},
       {"src/core/"},
       "direct stdio in src/core; use HIDO_LOG_* (common/logging.h) or "
       "return a Status"},
      {"no-naked-new",
       "allocations are owned by containers or smart pointers; a bare new "
       "needs a per-line justification",
       std::regex(R"(\bnew\b)"),
       {"new"},
       {},
       {},
       {},
       "naked new; use std::make_unique/containers, or suppress with a "
       "justified leaked-singleton escape"},
      {"simd-confinement",
       "SIMD intrinsics and architecture macros live only in "
       "src/common/bitset_kernels.*; everything else goes through the "
       "kernel table",
       std::regex(R"(\b_mm\d*_\w+\s*\(|\b__m(128|256|512)[id]?\b)"
                  R"(|\bimmintrin\.h\b|\barm_neon\.h\b|\bv\w+q_[us]\d+\s*\()"
                  R"(|\b__builtin_cpu_supports\b|\b__AVX2__\b|\b__ARM_NEON\b)"),
       {"_mm", "__m", "immintrin", "arm_neon", "q_", "__builtin_cpu_supports",
        "__AVX2__", "__ARM_NEON"},
       {},
       // Exact files, like no-raw-mutex: a new vectorized component does
       // not get a free pass by sitting next to the kernels — it adds an
       // entry to the BitsetKernels table instead.
       {"src/common/bitset_kernels.h", "src/common/bitset_kernels.cc"},
       {},
       "SIMD intrinsic/architecture macro outside bitset_kernels.*; route "
       "through the BitsetKernels table (common/bitset_kernels.h)"},
  };
  return *rules;
}

void CheckHeaderGuard(const std::string& path,
                      const std::vector<std::string>& code_lines,
                      const std::vector<std::string>& raw_lines,
                      std::vector<Finding>& findings) {
  if (!IsHeader(path)) return;
  const std::string guard = ExpectedHeaderGuard(path);
  // Neither directive spans a line, so a line-by-line search finds what a
  // search of the whole stripped text would.
  const auto has = [&code_lines](const std::string& directive) {
    return std::any_of(code_lines.begin(), code_lines.end(),
                       [&directive](const std::string& line) {
                         return line.find(directive) != std::string::npos;
                       });
  };
  if (has("#ifndef " + guard) && has("#define " + guard)) return;
  for (const std::string& raw : raw_lines) {
    if (IsSuppressed(raw, "header-guard")) return;
  }
  findings.push_back({"header-guard", path, 0,
                      "missing or wrong include guard; expected #ifndef " +
                          guard + " / #define " + guard});
}

void CheckIncludeOrder(const std::string& path,
                       const std::vector<std::string>& code_lines,
                       const std::vector<std::string>& raw_lines,
                       std::vector<Finding>& findings) {
  // Contiguous #include runs must be internally sorted and style-pure
  // (either all <system> or all "project"). Blocks are separated by any
  // non-include line, so the conventional layout — own header, blank,
  // sorted system block, blank, sorted project block — passes, and an
  // unsorted or mixed block is pinpointed to its first offending line.
  // Names are read from the raw line: the stripper empties string-literal
  // contents, which would blank out every "project/include.h". The
  // stripped line gates the match so commented-out includes don't count.
  std::string prev_name;
  char prev_style = 0;
  bool in_block = false;
  // The first include of a block is exempt from the cross-block
  // comparison, so "own header first" layouts pass trivially.
  for (size_t i = 0; i < code_lines.size(); ++i) {
    IncludeName include;
    if (!ParseIncludeLine(code_lines[i], raw_lines[i], &include)) {
      in_block = false;
      continue;
    }
    const char style = include.style;
    const std::string& name = include.name;
    if (in_block) {
      if (style != prev_style) {
        if (!IsSuppressed(raw_lines[i], "include-order")) {
          findings.push_back(
              {"include-order", path, i + 1,
               "mixed <system> and \"project\" includes in one block; "
               "separate them with a blank line"});
        }
      } else if (name < prev_name) {
        if (!IsSuppressed(raw_lines[i], "include-order")) {
          findings.push_back({"include-order", path, i + 1,
                              "include '" + name +
                                  "' breaks alphabetical order (after '" +
                                  prev_name + "')"});
        }
      }
    }
    prev_name = name;
    prev_style = style;
    in_block = true;
  }
}

// Trims ASCII whitespace from both ends (the lint library deliberately
// has no dependency on hido_common, so no string_util here).
std::string TrimCopy(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

bool StartsWithWord(const std::string& code, const char* word) {
  const size_t n = std::string(word).size();
  return code.compare(0, n, word) == 0 &&
         (code.size() == n ||
          !(std::isalnum(static_cast<unsigned char>(code[n])) ||
            code[n] == '_'));
}

// Structural `///` doc-comment check for library headers: every
// declaration that starts at namespace scope or in a public class section
// must be introduced by an adjacent `///` line (or carry a trailing
// `///<`). Scoped by *substring* "src/", not prefix, so the
// deliberate-violation fixtures under tests/lint/testdata/src/
// exercise the rule through the normal testdata harness. The walk is
// token-level like every other rule here — brace-tracked scopes and
// paren-tracked continuations — with the noise cases exempt: access
// labels, preprocessor lines, closing braces, forward declarations,
// friends, using-aliases, static_asserts, and `= default` / `= delete`
// special members.
void CheckDocComments(const std::string& path,
                      const std::vector<std::string>& code_lines,
                      const std::vector<std::string>& raw_lines,
                      std::vector<Finding>& findings) {
  if (!IsHeader(path) || (path.compare(0, 4, "src/") != 0 &&
                          path.find("/src/") == std::string::npos)) {
    return;
  }
  enum class Scope { kNamespace, kClassPublic, kClassHidden, kOther };
  // File scope holds only guards/includes (preprocessor-exempt), so it
  // behaves like kOther; docs are demanded once inside a namespace.
  std::vector<Scope> stack = {Scope::kOther};
  static const std::regex forward_decl_re(
      R"(^(class|struct|enum(\s+class)?)\s+\w+\s*;)");
  int paren_depth = 0;
  bool continuation = false;
  bool in_directive = false;  // inside a backslash-continued #define etc.
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string code = TrimCopy(code_lines[i]);
    if (in_directive) {  // a directive spans every backslash-continued line
      in_directive = !code.empty() && code.back() == '\\';
      continue;
    }
    if (code.empty()) continue;     // blank or comment-only line
    if (code[0] == '#') {           // preprocessor
      in_directive = code.back() == '\\';
      continue;
    }
    const bool is_label =
        code == "public:" || code == "private:" || code == "protected:";

    if (!continuation && paren_depth == 0 &&
        (stack.back() == Scope::kNamespace ||
         stack.back() == Scope::kClassPublic)) {
      const bool exempt =
          is_label || code[0] == '}' || code == "{" ||
          StartsWithWord(code, "namespace") ||
          StartsWithWord(code, "using") ||
          StartsWithWord(code, "typedef") ||
          StartsWithWord(code, "friend") ||
          StartsWithWord(code, "static_assert") ||
          code.find("= default") != std::string::npos ||
          code.find("= delete") != std::string::npos ||
          std::regex_search(code, forward_decl_re);
      if (!exempt) {
        const bool documented =
            raw_lines[i].find("///") != std::string::npos ||
            (i > 0 && TrimCopy(raw_lines[i - 1]).compare(0, 3, "///") == 0);
        if (!documented && !IsSuppressed(raw_lines[i], "doc-comment")) {
          findings.push_back(
              {"doc-comment", path, i + 1,
               "public declaration in a src/ header without a /// doc "
               "comment (adjacent /// line or trailing ///<)"});
        }
      }
    }

    if (is_label && (stack.back() == Scope::kClassPublic ||
                     stack.back() == Scope::kClassHidden)) {
      stack.back() =
          code == "public:" ? Scope::kClassPublic : Scope::kClassHidden;
    }

    // Classify what the FIRST '{' on this line would open; later braces
    // on the same line are bodies/initializers (kOther). A class nested
    // somewhere not externally visible (a private section, a function
    // body) opens kOther: its members are implementation detail whatever
    // their access, so labels inside it must not resurrect the check.
    const bool parent_visible = stack.back() == Scope::kNamespace ||
                                stack.back() == Scope::kClassPublic;
    Scope opening = Scope::kOther;
    if (StartsWithWord(code, "namespace")) {
      opening = Scope::kNamespace;
    } else if (!StartsWithWord(code, "enum") && parent_visible) {
      if (StartsWithWord(code, "struct")) opening = Scope::kClassPublic;
      if (StartsWithWord(code, "class")) opening = Scope::kClassHidden;
    }
    bool first_open = true;
    for (const char c : code) {
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth > 0) --paren_depth;
      } else if (c == '{') {
        stack.push_back(first_open ? opening : Scope::kOther);
        first_open = false;
      } else if (c == '}') {
        if (stack.size() > 1) stack.pop_back();
      }
    }
    const char last = code.back();
    continuation = paren_depth > 0 ||
                   (last != ';' && last != '{' && last != '}' && last != ':');
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  // Leaked-on-purpose, same as TokenRules().
  static const std::vector<RuleInfo>* const rules = new std::vector<RuleInfo>{  // hido-lint: allow(no-naked-new)
      {"no-exceptions",
       "recoverable failures return Status/Result<T>; no throw/try/catch"},
      {"no-raw-random",
       "all randomness flows through seeded hido::Rng streams "
       "(determinism contract)"},
      {"no-raw-mutex",
       "locking goes through the annotated common::Mutex so Clang thread "
       "safety analysis sees it"},
      {"no-stdio-in-core",
       "core library code reports through HIDO_LOG_* / Status, not the "
       "process's streams"},
      {"no-naked-new",
       "allocations are owned by containers or smart pointers; a bare new "
       "needs a per-line justification"},
      {"simd-confinement",
       "SIMD intrinsics and architecture macros live only in "
       "src/common/bitset_kernels.*; everything else goes through the "
       "kernel table"},
      {"header-guard", ".h files carry the canonical HIDO_<PATH>_H_ guard"},
      {"include-order",
       "each contiguous #include block is sorted and style-pure"},
      {"doc-comment",
       "public declarations in src/ headers carry /// doc comments (every "
       "library header is API surface for the layer above)"},
      {"layering",
       "the include graph respects the dependency DAG in "
       "tools/lint/layers.txt (no upward or cyclic includes)"},
      {"metric-contract",
       "metric name literals parse against the dotted grammar and match "
       "the obs/telemetry.h contract block both ways"},
  };
  return *rules;
}

const std::vector<std::string>& TokenRuleAnchors(const std::string& rule) {
  static const std::vector<std::string> kNone;
  for (const TokenRule& token_rule : TokenRules()) {
    if (rule == token_rule.name) return token_rule.anchors;
  }
  return kNone;
}

bool TokenRuleMatches(const std::string& rule, const std::string& code_line) {
  for (const TokenRule& token_rule : TokenRules()) {
    if (rule == token_rule.name) {
      return std::regex_search(code_line, token_rule.pattern);
    }
  }
  return false;
}

namespace {

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// The position just past `#include` (leading spaces, '#', spaces, the
// word) at the start of `line`, or npos.
size_t SkipIncludeKeyword(const std::string& line) {
  size_t i = 0;
  while (i < line.size() && IsSpace(line[i])) ++i;
  if (i == line.size() || line[i] != '#') return std::string::npos;
  ++i;
  while (i < line.size() && IsSpace(line[i])) ++i;
  if (line.compare(i, 7, "include") != 0) return std::string::npos;
  return i + 7;
}

}  // namespace

bool ParseIncludeLine(const std::string& code_line,
                      const std::string& raw_line, IncludeName* include) {
  const size_t gate = SkipIncludeKeyword(code_line);
  if (gate == std::string::npos ||
      (gate < code_line.size() && IsWordChar(code_line[gate]))) {
    return false;
  }
  size_t i = SkipIncludeKeyword(raw_line);
  if (i == std::string::npos) return false;
  while (i < raw_line.size() && IsSpace(raw_line[i])) ++i;
  if (i == raw_line.size() || (raw_line[i] != '<' && raw_line[i] != '"')) {
    return false;
  }
  const size_t close = raw_line.find_first_of("\">", i + 1);
  if (close == std::string::npos || close == i + 1) return false;
  include->style = raw_line[i];
  include->name = raw_line.substr(i + 1, close - i - 1);
  return true;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (true) {
    const size_t end = text.find('\n', begin);
    if (end == std::string::npos) break;
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  lines.push_back(text.substr(begin));
  return lines;
}

bool IsSuppressed(const std::string& raw_line, const std::string& rule) {
  const std::string tag = "hido-lint: allow(" + rule + ")";
  return raw_line.find(tag) != std::string::npos;
}

namespace {

// Shared stripper behind StripCommentsAndStrings / StripComments.
// `keep_strings` preserves "..."/'...' contents (escapes included); raw
// strings always collapse to "" so their multi-line bodies never leak
// into line-oriented scans.
std::string StripImpl(const std::string& source, bool keep_strings) {
  std::string out;
  out.reserve(source.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    const char next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   source[i - 1])) &&
                               source[i - 1] != '_'))) {
          // R"delim( — capture the delimiter up to the '('.
          size_t j = i + 2;
          raw_delim.clear();
          while (j < source.size() && source[j] != '(' &&
                 raw_delim.size() < 16) {
            raw_delim.push_back(source[j]);
            ++j;
          }
          if (j < source.size() && source[j] == '(') {
            state = State::kRawString;
            out += "\"\"";  // keep a placeholder so the line stays code
            i = j;
          } else {
            out.push_back(c);  // not a raw string after all
          }
        } else if (c == '"') {
          state = State::kString;
          out.push_back(c);
        } else if (c == '\'') {
          state = State::kChar;
          out.push_back(c);
        } else {
          out.push_back(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out.push_back(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (c == '\n') {
          out.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          if (keep_strings) {
            out.push_back(c);
            out.push_back(next);
          }
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out.push_back(c);
        } else if (c == '\n') {
          out.push_back(c);  // unterminated; keep line structure
          state = State::kCode;
        } else if (keep_strings) {
          out.push_back(c);
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          if (keep_strings) {
            out.push_back(c);
            out.push_back(next);
          }
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out.push_back(c);
        } else if (c == '\n') {
          out.push_back(c);
          state = State::kCode;
        } else if (keep_strings) {
          out.push_back(c);
        }
        break;
      case State::kRawString: {
        // Look for )delim"
        if (c == ')' &&
            source.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < source.size() &&
            source[i + 1 + raw_delim.size()] == '"') {
          i += raw_delim.size() + 1;
          state = State::kCode;
        } else if (c == '\n') {
          out.push_back(c);
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& source) {
  return StripImpl(source, /*keep_strings=*/false);
}

std::string StripComments(const std::string& source) {
  return StripImpl(source, /*keep_strings=*/true);
}

std::string ExpectedHeaderGuard(const std::string& path) {
  std::string trimmed = path;
  // Library headers are included as "common/mutex.h" etc., so the guard
  // drops the src/ prefix; tools/tests keep their full path.
  if (PathStartsWith(trimmed, "src/")) trimmed = trimmed.substr(4);
  std::string guard = "HIDO_";
  for (char c : trimmed) {
    if (c == '/' || c == '.' || c == '-') {
      guard.push_back('_');
    } else {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  guard.push_back('_');
  return guard;
}

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content) {
  return LintLines(path, SplitLines(StripCommentsAndStrings(content)),
                   SplitLines(content));
}

std::vector<Finding> LintLines(const std::string& path,
                               const std::vector<std::string>& code_lines,
                               const std::vector<std::string>& raw_lines) {
  std::vector<Finding> findings;

  for (const TokenRule& rule : TokenRules()) {
    bool scoped_in = rule.only_under.empty();
    for (const std::string& prefix : rule.only_under) {
      if (PathStartsWith(path, prefix)) scoped_in = true;
    }
    if (!scoped_in) continue;
    bool allowed = false;
    for (const std::string& prefix : rule.allowed_prefixes) {
      if (PathStartsWith(path, prefix)) allowed = true;
    }
    for (const std::string& file : rule.allowed_files) {
      if (path == file) allowed = true;
    }
    if (allowed) continue;
    for (size_t i = 0; i < code_lines.size(); ++i) {
      const std::string& line = code_lines[i];
      const bool anchored = std::any_of(
          rule.anchors.begin(), rule.anchors.end(),
          [&line](const std::string& anchor) {
            return line.find(anchor) != std::string::npos;
          });
      if (!anchored || !std::regex_search(line, rule.pattern)) continue;
      if (IsSuppressed(raw_lines[i], rule.name)) continue;
      findings.push_back({rule.name, path, i + 1, rule.message});
    }
  }

  CheckHeaderGuard(path, code_lines, raw_lines, findings);
  CheckIncludeOrder(path, code_lines, raw_lines, findings);
  CheckDocComments(path, code_lines, raw_lines, findings);
  return findings;
}

}  // namespace lint
}  // namespace hido
