#include "tools/lint/cross_file_rules.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace hido {
namespace lint {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::vector<std::string> SplitSegments(const std::string& name) {
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
  return segments;
}

bool IsPlaceholderSegment(const std::string& s) {
  if (s.size() < 3 || s.front() != '<' || s.back() != '>') return false;
  for (size_t i = 1; i + 1 < s.size(); ++i) {
    const char c = s[i];
    if (!((c >= 'a' && c <= 'z') || c == '_')) return false;
  }
  return true;
}

bool IsPlainSegment(const std::string& s) {
  if (s.empty() || !(s[0] >= 'a' && s[0] <= 'z')) return false;
  for (char c : s) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

/// Segment-wise pattern match: equal plain segments, or a placeholder on
/// either side, position by position; lengths must agree.
bool PatternsMatch(const std::string& a, const std::string& b) {
  const std::vector<std::string> as = SplitSegments(a);
  const std::vector<std::string> bs = SplitSegments(b);
  if (as.size() != bs.size()) return false;
  for (size_t i = 0; i < as.size(); ++i) {
    if (IsPlaceholderSegment(as[i]) || IsPlaceholderSegment(bs[i])) continue;
    if (as[i] != bs[i]) return false;
  }
  return true;
}

/// Joins layer names for "allowed from X: ..." diagnostics.
std::string JoinSorted(const std::set<std::string>& names,
                       const std::string& skip) {
  std::string out;
  for (const std::string& name : names) {
    if (name == skip) continue;
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace

bool IsValidMetricPattern(const std::string& name, bool allow_placeholders) {
  const std::vector<std::string> segments = SplitSegments(name);
  if (segments.size() < 2) return false;
  for (const std::string& segment : segments) {
    if (allow_placeholders && IsPlaceholderSegment(segment)) continue;
    if (!IsPlainSegment(segment)) return false;
  }
  return true;
}

bool ParseLayerSpec(const std::string& content, LayerSpec& spec,
                    std::string& error) {
  spec = LayerSpec();
  std::map<std::string, std::set<std::string>> direct;
  const std::vector<std::string> lines = SplitLines(content);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string where = "layers spec line " + std::to_string(i + 1);
    if (tokens[0] == "layer") {
      if (tokens.size() < 3) {
        error = where + ": expected `layer <name> <path-prefix>...`";
        return false;
      }
      for (const LayerSpec::Layer& layer : spec.layers) {
        if (layer.name == tokens[1]) {
          error = where + ": duplicate layer '" + tokens[1] + "'";
          return false;
        }
      }
      LayerSpec::Layer layer;
      layer.name = tokens[1];
      layer.prefixes.assign(tokens.begin() + 2, tokens.end());
      spec.layers.push_back(layer);
      direct[layer.name].insert(layer.name);
    } else if (tokens[0] == "allow") {
      if (tokens.size() < 4 || tokens[2] != "->") {
        error = where + ": expected `allow <from> -> <to>...`";
        return false;
      }
      if (direct.find(tokens[1]) == direct.end()) {
        error = where + ": unknown layer '" + tokens[1] + "'";
        return false;
      }
      for (size_t t = 3; t < tokens.size(); ++t) {
        if (direct.find(tokens[t]) == direct.end()) {
          error = where + ": unknown layer '" + tokens[t] + "'";
          return false;
        }
        direct[tokens[1]].insert(tokens[t]);
      }
    } else {
      error = where + ": unknown directive '" + tokens[0] + "'";
      return false;
    }
  }
  if (spec.layers.empty()) {
    error = "layers spec declares no layers";
    return false;
  }
  // Transitive closure by iteration (the spec is tiny; O(L^3) is fine and
  // deterministic).
  spec.reachable = direct;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [from, reach] : spec.reachable) {
      std::set<std::string> next = reach;
      for (const std::string& mid : reach) {
        const std::set<std::string>& beyond = spec.reachable[mid];
        next.insert(beyond.begin(), beyond.end());
      }
      if (next.size() != reach.size()) {
        reach = std::move(next);
        changed = true;
      }
    }
  }
  return true;
}

std::string LayerOf(const LayerSpec& spec, const std::string& path) {
  // Prefixes match at a directory boundary anywhere in the path; the
  // *rightmost* (then longest) match wins, so a fixture file under
  // tests/lint/testdata/<case>/src/common/ maps to `common`, not to the
  // `tests` layer its enclosing tree lives in.
  std::string best_layer;
  size_t best_pos = 0;
  size_t best_len = 0;
  bool found = false;
  for (const LayerSpec::Layer& layer : spec.layers) {
    for (const std::string& prefix : layer.prefixes) {
      size_t search = 0;
      while (true) {
        const size_t hit = path.find(prefix, search);
        if (hit == std::string::npos) break;
        if (hit == 0 || path[hit - 1] == '/') {
          if (!found || hit > best_pos ||
              (hit == best_pos && prefix.size() > best_len)) {
            found = true;
            best_pos = hit;
            best_len = prefix.size();
            best_layer = layer.name;
          }
        }
        search = hit + 1;
      }
    }
  }
  return best_layer;
}

std::vector<Finding> CheckLayering(const ProjectIndex& index,
                                   const LayerSpec& spec) {
  std::vector<Finding> findings;
  const size_t n = index.files.size();
  // Resolved project-include adjacency (parallel to index.files), plus the
  // line each edge was spelled on for path-precise reporting.
  std::vector<std::vector<std::pair<size_t, size_t>>> adj(n);  // (to, line)
  for (size_t from = 0; from < n; ++from) {
    const FileIndex& file = index.files[from];
    const std::string from_layer = LayerOf(spec, file.path);
    for (const IncludeEdge& edge : file.includes) {
      if (edge.style != '"') continue;  // system includes are out of scope
      const size_t to = index.Resolve(edge.target);
      if (to == ProjectIndex::npos || to == from) {
        if (to == from) adj[from].push_back({to, edge.line});
        continue;
      }
      adj[from].push_back({to, edge.line});
      if (from_layer.empty()) continue;
      const std::string to_layer = LayerOf(spec, index.files[to].path);
      if (to_layer.empty() || to_layer == from_layer) continue;
      const auto reach = spec.reachable.find(from_layer);
      const bool allowed = reach != spec.reachable.end() &&
                           reach->second.count(to_layer) > 0;
      if (allowed) continue;
      const std::string& raw = edge.line - 1 < file.raw_lines.size()
                                   ? file.raw_lines[edge.line - 1]
                                   : std::string();
      if (IsSuppressed(raw, "layering")) continue;
      findings.push_back(
          {"layering", file.path, edge.line,
           "include \"" + edge.target + "\" reaches layer '" + to_layer +
               "' from layer '" + from_layer + "'; layers reachable from " +
               from_layer + ": " +
               JoinSorted(reach != spec.reachable.end() ? reach->second
                                                        : std::set<std::string>{},
                          from_layer) +
               " (spec: tools/lint/layers.txt)"});
    }
  }

  // Tarjan SCC over the resolved include graph: any component with more
  // than one file (or a self-include) is a cycle — report it once, with
  // the full path, anchored at its lexicographically first member.
  std::vector<size_t> disc(n, 0), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  std::vector<std::vector<size_t>> components;
  size_t timer = 1;
  std::function<void(size_t)> strongconnect = [&](size_t v) {
    disc[v] = low[v] = timer++;
    stack.push_back(v);
    on_stack[v] = true;
    for (const auto& [w, line] : adj[v]) {
      (void)line;
      if (disc[w] == 0) {
        strongconnect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], disc[w]);
      }
    }
    if (low[v] == disc[v]) {
      std::vector<size_t> component;
      while (true) {
        const size_t w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        component.push_back(w);
        if (w == v) break;
      }
      components.push_back(std::move(component));
    }
  };
  for (size_t v = 0; v < n; ++v) {
    if (disc[v] == 0) strongconnect(v);
  }
  for (std::vector<size_t>& component : components) {
    bool self_loop = false;
    if (component.size() == 1) {
      for (const auto& [w, line] : adj[component[0]]) {
        (void)line;
        if (w == component[0]) self_loop = true;
      }
      if (!self_loop) continue;
    }
    // Anchor at the lexicographically first path, then walk edges inside
    // the component back to the anchor to print one concrete cycle.
    std::sort(component.begin(), component.end(),
              [&](size_t a, size_t b) {
                return index.files[a].path < index.files[b].path;
              });
    const size_t start = component[0];
    const std::set<size_t> members(component.begin(), component.end());
    std::vector<size_t> path = {start};
    std::set<size_t> visited = {start};
    std::function<bool(size_t)> walk = [&](size_t v) -> bool {
      for (const auto& [w, line] : adj[v]) {
        (void)line;
        if (members.count(w) == 0) continue;
        if (w == start) return true;
        if (visited.count(w)) continue;
        visited.insert(w);
        path.push_back(w);
        if (walk(w)) return true;
        path.pop_back();
      }
      return false;
    };
    walk(start);
    std::string chain;
    for (const size_t v : path) chain += index.files[v].path + " -> ";
    chain += index.files[start].path;
    // The finding anchors at the start file's include of the next member.
    size_t line = 0;
    const size_t next = path.size() > 1 ? path[1] : start;
    for (const auto& [w, l] : adj[start]) {
      if (w == next) {
        line = l;
        break;
      }
    }
    findings.push_back({"layering", index.files[start].path, line,
                        "include cycle: " + chain});
  }
  return findings;
}

std::vector<MetricContractEntry> ParseMetricContract(
    const std::string& contract_path, const std::vector<std::string>& lines,
    std::vector<Finding>& findings) {
  std::vector<MetricContractEntry> entries;
  bool in_block = false;
  bool saw_block = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.find("METRIC-CONTRACT-BEGIN") != std::string::npos) {
      in_block = true;
      saw_block = true;
      continue;
    }
    if (line.find("METRIC-CONTRACT-END") != std::string::npos) {
      in_block = false;
      continue;
    }
    if (!in_block) continue;
    // Inside the block every line is `//` + entry, or a bare `//`
    // separator; anything else is malformed (the block is machine-read,
    // prose belongs outside it).
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty() || tokens[0] != "//") {
      findings.push_back({"metric-contract", contract_path, i + 1,
                          "contract block line is not a `// <kind> <name> "
                          "<invariant|variant>` entry"});
      continue;
    }
    tokens.erase(tokens.begin());
    if (tokens.empty()) continue;  // bare // separator
    if (tokens.size() < 3 ||
        (tokens[0] != "counter" && tokens[0] != "gauge" &&
         tokens[0] != "histogram") ||
        (tokens[2] != "invariant" && tokens[2] != "variant")) {
      findings.push_back({"metric-contract", contract_path, i + 1,
                          "malformed contract entry; expected `// "
                          "<counter|gauge|histogram> <name> "
                          "<invariant|variant> [note...]`"});
      continue;
    }
    if (!IsValidMetricPattern(tokens[1], /*allow_placeholders=*/true)) {
      findings.push_back({"metric-contract", contract_path, i + 1,
                          "contract entry name '" + tokens[1] +
                              "' violates the metric-name grammar "
                              "(dot-separated [a-z][a-z0-9_]* segments, "
                              "<placeholder> for a dynamic segment)"});
      continue;
    }
    for (const MetricContractEntry& prior : entries) {
      if (prior.kind == tokens[0] && prior.pattern == tokens[1]) {
        findings.push_back({"metric-contract", contract_path, i + 1,
                            "duplicate contract entry for " + tokens[0] +
                                " '" + tokens[1] + "' (first at line " +
                                std::to_string(prior.line) + ")"});
      }
    }
    entries.push_back({i + 1, tokens[0], tokens[1], tokens[2] == "invariant"});
  }
  if (!saw_block) {
    findings.push_back({"metric-contract", contract_path, 0,
                        "contract header has no METRIC-CONTRACT-BEGIN/END "
                        "block; the metric contract must be machine-"
                        "readable"});
  }
  return entries;
}

std::vector<Finding> CheckMetricContract(const ProjectIndex& index) {
  std::vector<Finding> findings;
  // Locate the contract header.
  const FileIndex* contract_file = nullptr;
  for (const FileIndex& file : index.files) {
    if (file.path == "src/obs/telemetry.h" ||
        (file.path.size() > 20 &&
         file.path.compare(file.path.size() - 20, 20,
                           "/src/obs/telemetry.h") == 0)) {
      contract_file = &file;
      break;
    }
  }
  std::vector<MetricContractEntry> entries;
  if (contract_file != nullptr) {
    entries = ParseMetricContract(contract_file->path,
                                  contract_file->raw_lines, findings);
  }
  std::vector<bool> entry_used(entries.size(), false);
  for (const FileIndex& file : index.files) {
    if (file.metrics.empty()) continue;
    const std::vector<std::string>& raw_lines = file.raw_lines;
    for (const MetricLiteral& literal : file.metrics) {
      const std::string& raw = literal.line - 1 < raw_lines.size()
                                   ? raw_lines[literal.line - 1]
                                   : std::string();
      if (IsSuppressed(raw, "metric-contract")) continue;
      if (!IsValidMetricPattern(literal.pattern,
                                /*allow_placeholders=*/true)) {
        findings.push_back(
            {"metric-contract", file.path, literal.line,
             "metric name '" + literal.pattern +
                 "' violates the naming grammar: two or more dot-separated "
                 "segments of [a-z][a-z0-9_]*, each starting with a letter "
                 "(see CONTRIBUTING.md)"});
        continue;
      }
      if (contract_file == nullptr) continue;
      bool declared = false;
      std::string kind_clash;
      for (size_t e = 0; e < entries.size(); ++e) {
        if (!PatternsMatch(entries[e].pattern, literal.pattern)) continue;
        if (entries[e].kind == literal.kind) {
          declared = true;
          entry_used[e] = true;
        } else {
          kind_clash = entries[e].kind;
        }
      }
      if (!declared) {
        std::string message =
            "metric " + literal.kind + " '" + literal.pattern +
            "' is not declared invariant-or-variant in the contract block "
            "of " +
            contract_file->path;
        if (!kind_clash.empty()) {
          message += " (an entry exists but declares it a " + kind_clash + ")";
        }
        findings.push_back({"metric-contract", file.path, literal.line,
                            std::move(message)});
      }
    }
  }
  if (contract_file != nullptr) {
    const std::vector<std::string>& raw_lines = contract_file->raw_lines;
    for (size_t e = 0; e < entries.size(); ++e) {
      if (entry_used[e]) continue;
      const std::string& raw = entries[e].line - 1 < raw_lines.size()
                                   ? raw_lines[entries[e].line - 1]
                                   : std::string();
      if (IsSuppressed(raw, "metric-contract")) continue;
      findings.push_back(
          {"metric-contract", contract_file->path, entries[e].line,
           "dead contract entry: " + entries[e].kind + " '" +
               entries[e].pattern +
               "' is declared but never registered in the indexed sources"});
    }
  }
  return findings;
}

}  // namespace lint
}  // namespace hido
