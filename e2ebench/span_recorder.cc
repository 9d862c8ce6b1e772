#include "span_recorder.h"

#include <utility>

#include "stats.h"

namespace e2e {

namespace {

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::string LibrarySpanName(const std::string& name,
                            const std::string& parent_name) {
  static const std::map<std::string, std::string> kKnown{
      {"grid_build", "grid.build"},
      {"evolutionary_search", "core.search"},
      {"brute_force", "core.search"},
      {"postprocess", "core.postprocess"},
      {"ensemble_member", "ensemble.member"},
      {"ensemble_combine", "ensemble.combine"},
  };
  const auto it = kKnown.find(name);
  if (it != kKnown.end()) return it->second;
  return LayerOf(parent_name) + ".lib." + name;
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::Open(const std::string& name, int parent, int run) {
  const double now = Now();
  spans_.push_back({name, now, now, parent, run});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::Close(int id) { spans_[static_cast<size_t>(id)].end = Now(); }

int SpanRecorder::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::ImportTree(const hido::obs::TraceNode& tree, int parent) {
  const Span parent_span = spans_[static_cast<size_t>(parent)];
  double cursor = parent_span.start;
  for (const auto& [name, node] : tree.children) {
    const int id = Add({LibrarySpanName(name, parent_span.name), cursor,
                        cursor + node.seconds, parent, parent_span.run});
    cursor += node.seconds;
    ImportTree(node, id);
  }
}

double SpanRecorder::SelfTimeOf(size_t id) const {
  double self = spans_[id].end - spans_[id].start;
  for (const Span& s : spans_) {
    if (s.parent == static_cast<int>(id)) self -= s.end - s.start;
  }
  return self;
}

std::map<std::string, double> SpanRecorder::SelfTimeByLayer(int run) const {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run != run) continue;
    const std::string layer =
        spans_[i].parent < 0 ? "unattributed" : LayerOf(spans_[i].name);
    out[layer] += SelfTimeOf(i);
  }
  return out;
}

double SpanRecorder::Duration(int run, const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.run == run && s.name == name) total += s.end - s.start;
  }
  return total;
}

std::string SpanRecorder::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n ";
    out += "{\"id\": " + std::to_string(i) + ", \"name\": " +
           JsonString(s.name) + ", \"start\": " + JsonNumber(s.start) +
           ", \"end\": " + JsonNumber(s.end) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"run\": " + std::to_string(s.run) + "}";
  }
  return out + "]\n";
}

}  // namespace e2e
