#include "tools/lint/project_model.h"

#include <algorithm>
#include <utility>

#include "tools/lint/lint_rules.h"

namespace hido {
namespace lint {

namespace {

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

size_t SkipWs(const std::string& text, size_t i) {
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
          text[i] == '\r')) {
    ++i;
  }
  return i;
}

// Matches `word` at `i` followed by optional whitespace and '('; returns
// the position just past the '(' or npos.
size_t MatchCallOpen(const std::string& text, size_t i, const char* word) {
  const size_t n = std::string(word).size();
  if (text.compare(i, n, word) != 0) return std::string::npos;
  const size_t after = SkipWs(text, i + n);
  if (after >= text.size() || text[after] != '(') return std::string::npos;
  return after + 1;
}

// Turns a registered name (possibly with %-format holes or a trailing-dot
// concatenation prefix) into the canonical dotted pattern: any segment
// containing a '%' hole becomes `<dynamic>`, and a runtime-appended suffix
// adds one `<dynamic>` segment.
std::string NormalizePattern(const std::string& name, bool concat_suffix) {
  std::vector<std::string> segments;
  std::string segment;
  for (char c : name) {
    if (c == '.') {
      segments.push_back(segment);
      segment.clear();
    } else {
      segment.push_back(c);
    }
  }
  segments.push_back(segment);
  if (concat_suffix && !segments.empty() && segments.back().empty()) {
    segments.back() = "<dynamic>";
  }
  std::string pattern;
  for (size_t i = 0; i < segments.size(); ++i) {
    std::string s = segments[i];
    if (s.find('%') != std::string::npos) s = "<dynamic>";
    if (i > 0) pattern.push_back('.');
    pattern += s;
  }
  return pattern;
}

}  // namespace

bool IsUnderSrc(const std::string& path) {
  return path.compare(0, 4, "src/") == 0 ||
         path.find("/src/") != std::string::npos;
}

std::vector<IncludeEdge> ExtractIncludes(
    const std::vector<std::string>& code_lines,
    const std::vector<std::string>& raw_lines) {
  // The stripped view gates the match (commented-out includes and
  // "#include" spelled inside string literals are not code); the raw view
  // supplies the name, because the stripper empties quoted contents.
  std::vector<IncludeEdge> edges;
  for (size_t i = 0; i < code_lines.size() && i < raw_lines.size(); ++i) {
    IncludeName include;
    if (!ParseIncludeLine(code_lines[i], raw_lines[i], &include)) continue;
    edges.push_back({i + 1, include.style, std::move(include.name)});
  }
  return edges;
}

std::vector<MetricLiteral> ExtractMetricLiterals(
    const std::string& code_with_strings) {
  const std::string& text = code_with_strings;
  std::vector<MetricLiteral> literals;
  size_t line = 1;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (!IsIdentChar(text[i])) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < text.size() && IsIdentChar(text[i])) ++i;
    const std::string ident = text.substr(start, i - start);
    std::string kind;
    if (ident == "Counter" || ident == "GetCounter") {
      kind = "counter";
    } else if (ident == "Gauge" || ident == "GetGauge") {
      kind = "gauge";
    } else if (ident == "Histogram" || ident == "GetHistogram") {
      kind = "histogram";
    } else {
      continue;
    }
    size_t j = SkipWs(text, i);
    if (j >= text.size() || text[j] != '(') continue;
    j = SkipWs(text, j + 1);
    // Optional one-level wrapper whose first argument is the literal.
    bool wrapped = false;
    if (size_t open = MatchCallOpen(text, j, "StrFormat");
        open != std::string::npos) {
      j = SkipWs(text, open);
      wrapped = true;
    } else if (size_t open = MatchCallOpen(text, j, "std::string");
               open != std::string::npos) {
      j = SkipWs(text, open);
      wrapped = true;
    }
    if (j >= text.size() || text[j] != '"') continue;  // not a registration
    // One or more adjacent string literals (concatenated by the compiler),
    // possibly split across lines.
    std::string name;
    while (j < text.size() && text[j] == '"') {
      ++j;
      while (j < text.size() && text[j] != '"' && text[j] != '\n') {
        if (text[j] == '\\' && j + 1 < text.size()) {
          name.push_back(text[j + 1]);
          j += 2;
        } else {
          name.push_back(text[j]);
          ++j;
        }
      }
      if (j < text.size() && text[j] == '"') ++j;
      const size_t k = SkipWs(text, j);
      if (k < text.size() && text[k] == '"') {
        j = k;
      } else {
        break;
      }
    }
    size_t after = SkipWs(text, j);
    if (wrapped && after < text.size() && text[after] == ')') {
      after = SkipWs(text, after + 1);
    }
    const bool concat_suffix =
        !name.empty() && name.back() == '.' &&
        after < text.size() && text[after] == '+';
    // `line` still points at the identifier: the main loop has counted
    // every newline up to `start`, and identifiers contain none. The
    // lookahead past `i` is re-scanned by the main loop, so its newlines
    // are counted exactly once.
    literals.push_back({line, kind, NormalizePattern(name, concat_suffix)});
  }
  return literals;
}

FileIndex BuildFileIndex(const std::string& path, const std::string& content) {
  FileIndex file;
  file.path = path;
  file.raw_lines = SplitLines(content);
  file.code_lines = SplitLines(StripCommentsAndStrings(content));
  file.includes = ExtractIncludes(file.code_lines, file.raw_lines);
  if (IsUnderSrc(path)) {
    file.metrics = ExtractMetricLiterals(StripComments(content));
  }
  return file;
}

ProjectIndex BuildProjectIndex(std::vector<FileIndex> files) {
  ProjectIndex index;
  index.files = std::move(files);
  std::sort(index.files.begin(), index.files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.path < b.path;
            });
  for (size_t i = 0; i < index.files.size(); ++i) {
    const std::string& path = index.files[i].path;
    index.by_include_name.emplace(path, i);
    // Register the "library spelling": the path after the last src/
    // directory segment ("src/common/rng.h" -> "common/rng.h"; fixture
    // trees rooted at .../testdata/<case>/src/ resolve the same way).
    size_t pos = std::string::npos;
    size_t search = 0;
    while (true) {
      const size_t hit = path.find("src/", search);
      if (hit == std::string::npos) break;
      if (hit == 0 || path[hit - 1] == '/') pos = hit;
      search = hit + 1;
    }
    if (pos != std::string::npos) {
      index.by_include_name.emplace(path.substr(pos + 4), i);
    }
  }
  return index;
}

size_t ProjectIndex::Resolve(const std::string& include_target) const {
  const auto it = by_include_name.find(include_target);
  return it == by_include_name.end() ? npos : it->second;
}

}  // namespace lint
}  // namespace hido
