// hido_lint — project-aware repo-invariant linter.
//
// Two passes (see tools/lint/project_model.h):
//
//   pass 1  indexes every .h/.cc file under the given roots (default:
//           src tools tests) — stripped source, #include edges, metric
//           name literals — reading each file exactly once;
//   pass 2  runs the per-file rules (tools/lint/lint_rules.h) and the
//           cross-file rules (tools/lint/cross_file_rules.h: layering,
//           metric-contract) over the index.
//
// Findings print as `path:line: [rule] message`. Exit status: 0 clean,
// 1 findings, 2 usage/IO error. Directories named `testdata` are skipped
// unless --include-testdata is given (lint fixtures contain deliberate
// violations).
//
// Flags:
//   --list-rules          print the rule table and exit
//   --rule=<name>         run only this rule (repeatable)
//   --layers=<path>       layering DAG spec (default tools/lint/layers.txt)
//   --sarif=<path>        also write a SARIF 2.1.0 report
//   --github              also print GitHub ::error workflow annotations
//   --changed-only[=REF]  index everything (cross-file rules need the
//                         whole project) but report only findings in files
//                         changed vs REF (default HEAD), per git diff
//   --check-docs=<path>   verify the rule table in a markdown doc matches
//                         --list-rules (both directions) and exit
//
// Run it locally with `./build/tools/lint/hido_lint` from the repo root;
// CI runs it as the `lint` ctest and as the static-analysis SARIF step.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/cross_file_rules.h"
#include "tools/lint/lint_rules.h"
#include "tools/lint/project_model.h"
#include "tools/lint/sarif.h"

namespace hido {
namespace lint {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::vector<std::string> roots;
  std::set<std::string> only_rules;  // empty = all
  std::string layers_path = "tools/lint/layers.txt";
  std::string sarif_path;
  std::string check_docs_path;
  std::string changed_base;  // git ref for --changed-only
  bool changed_only = false;
  bool include_testdata = false;
  bool list_rules = false;
  bool github = false;
};

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

bool InTestdata(const fs::path& path) {
  for (const fs::path& part : path) {
    if (part == "testdata") return true;
  }
  return false;
}

// Repo-relative path with '/' separators, as the rule table expects.
std::string NormalizePath(const fs::path& path) {
  return path.lexically_normal().generic_string();
}

bool ReadFile(const fs::path& path, std::string& content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  content = buffer.str();
  return true;
}

bool RuleEnabled(const Options& options, const std::string& rule) {
  return options.only_rules.empty() || options.only_rules.count(rule) > 0;
}

// `git diff --name-only <ref>` → set of repo-relative changed paths.
int ChangedFiles(const std::string& base, std::set<std::string>& changed) {
  const std::string command = "git diff --name-only " + base + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "hido_lint: cannot run `%s`\n", command.c_str());
    return 2;
  }
  std::string output;
  char buffer[4096];
  size_t got = 0;
  while ((got = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, got);
  }
  const int status = pclose(pipe);
  if (status != 0) {
    std::fprintf(stderr, "hido_lint: `%s` failed (is '%s' a valid ref?)\n",
                 command.c_str(), base.c_str());
    return 2;
  }
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) changed.insert(line);
  }
  return 0;
}

// --check-docs: the markdown rule table and --list-rules must agree both
// ways. A doc rule bullet is `* `rule-name` — ...`; every such bullet must
// name a live rule, and every live rule must appear backticked somewhere
// in the doc.
int CheckDocs(const std::string& doc_path) {
  std::string content;
  if (!ReadFile(doc_path, content)) {
    std::fprintf(stderr, "hido_lint: cannot read %s\n", doc_path.c_str());
    return 2;
  }
  int failures = 0;
  std::set<std::string> live;
  for (const RuleInfo& rule : Rules()) {
    live.insert(rule.name);
    const std::string needle = "`" + std::string(rule.name) + "`";
    if (content.find(needle) == std::string::npos) {
      std::printf("%s: rule '%s' is missing from the doc (hido_lint "
                  "--list-rules has it)\n",
                  doc_path.c_str(), rule.name);
      ++failures;
    }
  }
  static const std::regex bullet_re(R"(^\s*\*\s+`([a-z][a-z0-9-]*)`\s)");
  std::istringstream lines(content);
  std::string line;
  size_t line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::smatch m;
    if (!std::regex_search(line, m, bullet_re)) continue;
    if (live.count(m[1].str()) == 0) {
      std::printf("%s:%zu: doc lists rule '%s' which hido_lint does not "
                  "have (stale table?)\n",
                  doc_path.c_str(), line_number, m[1].str().c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::fprintf(stderr, "hido_lint: rule table in %s is in sync (%zu "
                 "rules)\n",
                 doc_path.c_str(), live.size());
  }
  return failures == 0 ? 0 : 1;
}

int Run(const Options& options) {
  if (options.list_rules) {
    for (const RuleInfo& rule : Rules()) {
      std::printf("%-18s %s\n", rule.name, rule.what);
    }
    return 0;
  }
  if (!options.check_docs_path.empty()) {
    return CheckDocs(options.check_docs_path);
  }

  // Pass 1: index.
  std::vector<FileIndex> files;
  for (const std::string& root : options.roots) {
    const fs::path path(root);
    std::error_code ec;
    if (fs::is_regular_file(path, ec)) {
      std::string content;
      if (!ReadFile(path, content)) {
        std::fprintf(stderr, "hido_lint: cannot read %s\n", root.c_str());
        return 2;
      }
      files.push_back(BuildFileIndex(NormalizePath(path), content));
      continue;
    }
    if (!fs::is_directory(path, ec)) {
      std::fprintf(stderr, "hido_lint: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
    for (fs::recursive_directory_iterator it(path), end; it != end; ++it) {
      if (!it->is_regular_file() || !IsSourceFile(it->path())) continue;
      if (!options.include_testdata && InTestdata(it->path())) continue;
      std::string content;
      if (!ReadFile(it->path(), content)) {
        std::fprintf(stderr, "hido_lint: cannot read %s\n",
                     it->path().string().c_str());
        return 2;
      }
      files.push_back(BuildFileIndex(NormalizePath(it->path()), content));
    }
  }
  const ProjectIndex index = BuildProjectIndex(std::move(files));

  // Pass 2: per-file rules, then cross-file rules.
  std::vector<Finding> findings;
  for (const FileIndex& file : index.files) {
    for (Finding& finding :
         LintLines(file.path, file.code_lines, file.raw_lines)) {
      if (RuleEnabled(options, finding.rule)) {
        findings.push_back(std::move(finding));
      }
    }
  }
  if (RuleEnabled(options, "layering")) {
    std::string spec_text;
    if (!ReadFile(options.layers_path, spec_text)) {
      std::fprintf(stderr,
                   "hido_lint: cannot read layering spec %s "
                   "(--layers=<path> to point elsewhere)\n",
                   options.layers_path.c_str());
      return 2;
    }
    LayerSpec spec;
    std::string error;
    if (!ParseLayerSpec(spec_text, spec, error)) {
      std::fprintf(stderr, "hido_lint: %s: %s\n", options.layers_path.c_str(),
                   error.c_str());
      return 2;
    }
    for (Finding& finding : CheckLayering(index, spec)) {
      findings.push_back(std::move(finding));
    }
  }
  if (RuleEnabled(options, "metric-contract")) {
    for (Finding& finding : CheckMetricContract(index)) {
      findings.push_back(std::move(finding));
    }
  }

  // --changed-only: the whole project was indexed (cross-file rules need
  // it), only the *report* narrows to the diffed files.
  if (options.changed_only) {
    std::set<std::string> changed;
    if (int rc = ChangedFiles(options.changed_base, changed); rc != 0) {
      return rc;
    }
    std::vector<Finding> kept;
    for (Finding& finding : findings) {
      if (changed.count(finding.path) > 0) kept.push_back(std::move(finding));
    }
    findings = std::move(kept);
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });

  for (const Finding& finding : findings) {
    if (finding.line > 0) {
      std::printf("%s:%zu: [%s] %s\n", finding.path.c_str(), finding.line,
                  finding.rule.c_str(), finding.message.c_str());
    } else {
      std::printf("%s: [%s] %s\n", finding.path.c_str(),
                  finding.rule.c_str(), finding.message.c_str());
    }
  }
  if (options.github) {
    for (const Finding& finding : findings) {
      std::printf("::error file=%s,line=%zu,title=hido_lint %s::%s\n",
                  finding.path.c_str(), finding.line > 0 ? finding.line : 1,
                  finding.rule.c_str(), finding.message.c_str());
    }
  }
  if (!options.sarif_path.empty()) {
    std::ofstream out(options.sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "hido_lint: cannot write %s\n",
                   options.sarif_path.c_str());
      return 2;
    }
    out << SarifReport(findings);
  }
  std::fprintf(stderr, "hido_lint: %zu file(s), %zu finding(s)\n",
               index.files.size(), findings.size());
  return findings.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--include-testdata") {
      options.include_testdata = true;
    } else if (arg == "--list-rules") {
      options.list_rules = true;
    } else if (arg == "--github") {
      options.github = true;
    } else if (arg.rfind("--rule=", 0) == 0) {
      options.only_rules.insert(arg.substr(7));
    } else if (arg.rfind("--layers=", 0) == 0) {
      options.layers_path = arg.substr(9);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      options.sarif_path = arg.substr(8);
    } else if (arg.rfind("--check-docs=", 0) == 0) {
      options.check_docs_path = arg.substr(13);
    } else if (arg == "--changed-only") {
      options.changed_only = true;
      options.changed_base = "HEAD";
    } else if (arg.rfind("--changed-only=", 0) == 0) {
      options.changed_only = true;
      options.changed_base = arg.substr(15);
    } else if (arg == "--help") {
      std::printf(
          "usage: hido_lint [--list-rules] [--rule=<name>]... "
          "[--layers=<path>]\n"
          "                 [--sarif=<path>] [--github] "
          "[--changed-only[=REF]]\n"
          "                 [--check-docs=<path>] [--include-testdata] "
          "[path...]\n"
          "Indexes .h/.cc files under the given paths (default: src tools "
          "tests)\nand checks the repo invariants, including the "
          "cross-file layering and\nmetric-contract rules; see "
          "tools/lint/lint_rules.h.\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "hido_lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      options.roots.push_back(arg);
    }
  }
  if (options.roots.empty()) {
    options.roots = {"src", "tools", "tests"};
  }
  return Run(options);
}

}  // namespace
}  // namespace lint
}  // namespace hido

int main(int argc, char** argv) { return hido::lint::Main(argc, argv); }
