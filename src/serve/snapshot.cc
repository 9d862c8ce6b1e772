#include "serve/snapshot.h"

#include <string_view>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "core/projection.h"
#include "ensemble/ensemble_detector.h"
#include "obs/metrics.h"

namespace hido {
namespace serve {

namespace {

using ensemble::Model;
using ensemble::ModelMember;

constexpr char kMagic[] = "hido-snapshot";
constexpr char kVersionSingle[] = "v1";
constexpr char kVersionEnsemble[] = "v2";
constexpr char kModelMagic[] = "hido-model";
constexpr char kModelVersion[] = "v1";

Status SnapshotError(const std::string& what) {
  return Status::ParseError("snapshot: " + what);
}

Status ModelError(const std::string& what) {
  return Status::ParseError("model: " + what);
}

// Column names are stored space-separated, with spaces encoded as \x01.
std::string Replaced(std::string text, char from, char to) {
  for (char& c : text) {
    if (c == from) c = to;
  }
  return text;
}

// Walks '\n'-terminated lines; the last line may lack its terminator.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  bool Next(std::string_view* line) {
    if (pos_ >= text_.size()) return false;
    const size_t eol = text_.find('\n', pos_);
    const size_t end = eol == std::string_view::npos ? text_.size() : eol;
    *line = text_.substr(pos_, end - pos_);
    pos_ = eol == std::string_view::npos ? text_.size() : eol + 1;
    return true;
  }

  // The next line's space-separated fields; none at the end of the text.
  std::vector<std::string> NextFields() {
    std::string_view line;
    return Next(&line) ? Split(Trim(line), ' ') : std::vector<std::string>();
  }

  size_t pos() const { return pos_; }
  void Skip(size_t bytes) { pos_ += bytes; }
  bool AtEnd() const { return pos_ >= text_.size(); }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// Reads a `<key> <unsigned>` line of a model text.
Status ReadCount(LineReader& in, const char* key, uint64_t* value) {
  const std::vector<std::string> fields = in.NextFields();
  if (fields.size() != 2 || fields[0] != key) {
    return ModelError(StrFormat("expected '%s'", key));
  }
  const Result<uint64_t> parsed = ParseUInt(fields[1]);
  if (!parsed.ok()) return ModelError(StrFormat("bad %s", key));
  *value = parsed.value();
  return Status::Ok();
}

// Parses a model text up to its num_projections line: the quantizer,
// column names and num_points.
Status ParseQuantizerSection(LineReader& in, Model* model) {
  const std::vector<std::string> magic = in.NextFields();
  if (magic.empty() || magic[0] != kModelMagic) {
    return ModelError("bad magic");
  }
  if (magic.size() != 2 || magic[1] != kModelVersion) {
    return ModelError("bad version");
  }
  uint64_t num_points = 0;
  uint64_t phi = 0;
  uint64_t num_dims = 0;
  HIDO_RETURN_IF_ERROR(ReadCount(in, "num_points", &num_points));
  HIDO_RETURN_IF_ERROR(ReadCount(in, "phi", &phi));
  // The range `--phi` accepts; a cell must fit a Projection condition.
  if (phi < 2 || phi >= Projection::kDontCare) return ModelError("bad phi");
  HIDO_RETURN_IF_ERROR(ReadCount(in, "num_dims", &num_dims));
  if (num_dims == 0) return ModelError("bad num_dims");

  Quantizer::Options options;
  options.num_ranges = static_cast<size_t>(phi);
  const std::vector<std::string> mode = in.NextFields();
  if (mode.size() != 2 || mode[0] != "mode") {
    return ModelError("expected 'mode'");
  }
  if (mode[1] == "equi-depth") {
    options.mode = BinningMode::kEquiDepth;
  } else if (mode[1] == "equi-width") {
    options.mode = BinningMode::kEquiWidth;
  } else {
    return ModelError("unknown mode '" + mode[1] + "'");
  }

  // `column <i> <name> <min> <max> <cut>...`; one line per column, so the
  // containers grow only as far as the text actually goes.
  std::vector<std::vector<double>> cuts;
  std::vector<double> mins;
  std::vector<double> maxs;
  std::vector<std::string> names;
  for (uint64_t c = 0; c < num_dims; ++c) {
    const std::vector<std::string> fields = in.NextFields();
    if (fields.empty() || fields[0] != "column") {
      return ModelError("expected 'column'");
    }
    if (fields.size() != 5 + (phi - 1)) return ModelError("bad cut count");
    const Result<uint64_t> index = ParseUInt(fields[1]);
    if (!index.ok() || index.value() != c) {
      return ModelError("bad column index");
    }
    names.push_back(Replaced(fields[2], '\x01', ' '));
    const Result<double> lo = ParseDouble(fields[3]);
    const Result<double> hi = ParseDouble(fields[4]);
    if (!lo.ok() || !hi.ok()) return ModelError("bad column bounds");
    mins.push_back(lo.value());
    maxs.push_back(hi.value());
    std::vector<double>& column_cuts = cuts.emplace_back();
    for (size_t f = 5; f < fields.size(); ++f) {
      const Result<double> cut = ParseDouble(fields[f]);
      if (!cut.ok()) return ModelError("bad cut value");
      if (!column_cuts.empty() && column_cuts.back() > cut.value()) {
        return ModelError("cuts not sorted");
      }
      column_cuts.push_back(cut.value());
    }
  }
  model->quantizer = Quantizer::FromCuts(options, std::move(cuts),
                                         std::move(mins), std::move(maxs));
  model->column_names = std::move(names);
  model->num_points = static_cast<size_t>(num_points);
  return Status::Ok();
}

// Parses the rest of a model text: num_projections and one line per cube,
// which must end the text.
Status ParseCubeSection(LineReader& in, const Model& model,
                        ModelMember* member) {
  const size_t d = model.num_dims();
  const uint64_t phi = model.quantizer.num_ranges();
  uint64_t num_projections = 0;
  HIDO_RETURN_IF_ERROR(ReadCount(in, "num_projections", &num_projections));
  for (uint64_t p = 0; p < num_projections; ++p) {
    if (in.AtEnd()) return ModelError("missing projection line");
    const std::vector<std::string> fields = in.NextFields();
    if (fields.size() < 4 || fields[0] != "projection") {
      return ModelError("bad projection line");
    }
    ScoredProjection scored;
    const Result<uint64_t> count = ParseUInt(fields[1]);
    const Result<double> sparsity = ParseDouble(fields[2]);
    if (!count.ok() || !sparsity.ok()) {
      return ModelError("bad projection stats");
    }
    scored.count = static_cast<size_t>(count.value());
    scored.sparsity = sparsity.value();
    scored.projection = Projection(d);
    for (size_t f = 3; f < fields.size(); ++f) {
      const std::vector<std::string> pair = Split(fields[f], ':');
      if (pair.size() != 2) {
        return ModelError("bad condition '" + fields[f] + "'");
      }
      const Result<uint64_t> dim = ParseUInt(pair[0]);
      const Result<uint64_t> cell = ParseUInt(pair[1]);
      if (!dim.ok() || !cell.ok() || dim.value() >= d ||
          cell.value() >= phi) {
        return ModelError("condition out of range '" + fields[f] + "'");
      }
      if (scored.projection.IsSpecified(static_cast<size_t>(dim.value()))) {
        return ModelError("duplicate dimension in projection");
      }
      scored.projection.Specify(static_cast<size_t>(dim.value()),
                                static_cast<uint32_t>(cell.value()));
    }
    member->projections.push_back(std::move(scored));
  }
  if (!in.AtEnd()) {
    return ModelError("trailing bytes after the last projection");
  }
  return Status::Ok();
}

// Everything of a model text before its num_projections line: shared by
// every member of a model, so v2 writes the same bytes in each block.
std::string QuantizerText(const Model& model) {
  const Quantizer& quantizer = model.quantizer;
  const size_t d = quantizer.num_cols();
  const size_t phi = quantizer.num_ranges();
  std::string out = StrFormat(
      "%s %s\nnum_points %zu\nphi %zu\nnum_dims %zu\nmode %s\n",
      kModelMagic, kModelVersion, model.num_points, phi, d,
      quantizer.mode() == BinningMode::kEquiDepth ? "equi-depth"
                                                  : "equi-width");
  for (size_t c = 0; c < d; ++c) {
    const std::string name = c < model.column_names.size()
                                 ? Replaced(model.column_names[c], ' ', '\x01')
                                 : StrFormat("c%zu", c);
    out += StrFormat(
        "column %zu %s %.17g %.17g", c, name.c_str(),
        quantizer.CellBounds(c, 0).first,
        quantizer.CellBounds(c, static_cast<uint32_t>(phi - 1)).second);
    for (double cut : quantizer.Cuts(c)) {
      out += StrFormat(" %.17g", cut);
    }
    out += "\n";
  }
  return out;
}

std::string CubeText(const ModelMember& member) {
  std::string out =
      StrFormat("num_projections %zu\n", member.projections.size());
  for (const ScoredProjection& s : member.projections) {
    out += StrFormat("projection %zu %.17g", s.count, s.sparsity);
    for (const DimRange& cond : s.projection.Conditions()) {
      out += StrFormat(" %u:%u", cond.dim, cond.cell);
    }
    out += "\n";
  }
  return out;
}

std::string SerializeHeader(const SnapshotInfo& info, const char* version) {
  return StrFormat("%s %s\nalgorithm %s\nseed %llu\nphi %llu\n"
                   "target_dim %llu\n",
                   kMagic, version, info.algorithm.c_str(),
                   static_cast<unsigned long long>(info.seed),
                   static_cast<unsigned long long>(info.phi),
                   static_cast<unsigned long long>(info.target_dim));
}

// A whole model text (v1 payload or a bare file) as the one member of
// `model`.
Status ParseSingleModel(std::string_view text, Model* model) {
  LineReader in(text);
  HIDO_RETURN_IF_ERROR(ParseQuantizerSection(in, model));
  return ParseCubeSection(in, *model, &model->members.emplace_back());
}

// The v2 member blocks after the `members` line. Member 0's block supplies
// the quantizer, names and num_points; every later block must repeat those
// bytes exactly, so only its cubes are parsed.
Status ParseMembers(std::string_view text, LineReader& in,
                    uint64_t num_members, Model* model) {
  std::string_view shared;  // member 0's text before num_projections
  std::string_view line;
  for (uint64_t i = 0; i < num_members; ++i) {
    if (!in.Next(&line)) {
      return SnapshotError(StrFormat("missing member %llu",
                                     static_cast<unsigned long long>(i)));
    }
    const std::vector<std::string> fields = Split(Trim(line), ' ');
    if (fields.size() != 8 || fields[0] != "member" ||
        fields[4] != "scale" || fields[6] != "model_bytes") {
      return SnapshotError("malformed member line '" + std::string(line) +
                           "'");
    }
    const Result<uint64_t> index = ParseUInt(fields[1]);
    if (!index.ok() || index.value() != i) {
      return SnapshotError(StrFormat("member %llu out of order",
                                     static_cast<unsigned long long>(i)));
    }
    ModelMember member;
    if (!ensemble::ParseMemberKind(fields[2], &member.kind)) {
      return SnapshotError("unknown member kind '" + fields[2] + "'");
    }
    const Result<uint64_t> seed = ParseUInt(fields[3]);
    if (!seed.ok()) {
      return SnapshotError("bad member seed '" + fields[3] + "'");
    }
    member.seed = seed.value();
    const Result<double> scale = ParseDouble(fields[5]);
    if (!scale.ok() || !(scale.value() > 0.0)) {
      return SnapshotError("bad member scale '" + fields[5] + "'");
    }
    member.score_scale = scale.value();
    const Result<uint64_t> bytes = ParseUInt(fields[7]);
    if (!bytes.ok() || bytes.value() > text.size() - in.pos()) {
      return SnapshotError("bad member model_bytes '" + fields[7] + "'");
    }
    const std::string_view block =
        text.substr(in.pos(), static_cast<size_t>(bytes.value()));
    in.Skip(block.size());

    LineReader block_in(block);
    if (i == 0) {
      HIDO_RETURN_IF_ERROR(ParseQuantizerSection(block_in, model));
      shared = block.substr(0, block_in.pos());
    } else if (block.substr(0, shared.size()) != shared) {
      return SnapshotError(StrFormat(
          "member %llu disagrees with member 0 on the quantizer, column "
          "names or num_points",
          static_cast<unsigned long long>(i)));
    } else {
      block_in.Skip(shared.size());
    }
    HIDO_RETURN_IF_ERROR(ParseCubeSection(block_in, *model, &member));
    model->members.push_back(std::move(member));
  }
  if (!in.AtEnd()) return SnapshotError("trailing bytes after last member");
  return Status::Ok();
}

}  // namespace

ModelSnapshot MakeSnapshot(const DetectionResult& result,
                           const Dataset& data, uint64_t seed) {
  ModelSnapshot snapshot;
  snapshot.model = Model::FromDetection(result, data);
  snapshot.info.algorithm =
      result.algorithm == SearchAlgorithm::kBruteForce ? "brute-force"
                                                       : "evolutionary";
  snapshot.info.seed = seed;
  snapshot.info.phi = result.phi;
  snapshot.info.target_dim = result.target_dim;
  return snapshot;
}

ModelSnapshot MakeEnsembleSnapshot(
    const ensemble::EnsembleDetectionResult& result, const Dataset& data,
    uint64_t seed) {
  ModelSnapshot snapshot;
  snapshot.model = Model::FromEnsemble(result, data);
  snapshot.info.algorithm = "ensemble";
  snapshot.info.seed = seed;
  snapshot.info.phi = result.phi;
  snapshot.info.target_dim = result.target_dim;
  return snapshot;
}

std::string SerializeSnapshot(const ModelSnapshot& snapshot) {
  const Model& model = snapshot.model;
  const std::string quantizer_text = QuantizerText(model);
  if (!model.is_ensemble()) {
    HIDO_CHECK_MSG(model.members.size() == 1,
                   "a single-fit model has one member, not %zu",
                   model.members.size());
    return SerializeHeader(snapshot.info, kVersionSingle) + "model\n" +
           quantizer_text + CubeText(model.members.front());
  }
  obs::MetricsRegistry::Global().GetCounter("snapshot.v2.saves").Add(1);
  std::string out = SerializeHeader(snapshot.info, kVersionEnsemble);
  out += StrFormat("combiner %s\n",
                   ensemble::CombinerKindToString(*model.combiner));
  out += StrFormat("members %zu\n", model.members.size());
  for (size_t i = 0; i < model.members.size(); ++i) {
    const ModelMember& member = model.members[i];
    const std::string cube_text = CubeText(member);
    out += StrFormat("member %zu %s %llu scale %.17g model_bytes %zu\n", i,
                     ensemble::MemberKindToString(member.kind),
                     static_cast<unsigned long long>(member.seed),
                     member.score_scale,
                     quantizer_text.size() + cube_text.size());
    out += quantizer_text;
    out += cube_text;
  }
  return out;
}

Result<ModelSnapshot> ParseSnapshot(std::string_view text) {
  ModelSnapshot snapshot;
  LineReader in(text);
  if (in.AtEnd()) return SnapshotError("empty input");
  const std::vector<std::string> magic = in.NextFields();
  if (!magic.empty() && magic[0] == kModelMagic) {
    // A bare model file: a v1 whose provenance was never recorded.
    HIDO_RETURN_IF_ERROR(ParseSingleModel(text, &snapshot.model));
    return snapshot;
  }
  if (magic.size() != 2 || magic[0] != kMagic) {
    return SnapshotError("bad magic");
  }
  const bool is_ensemble = magic[1] == kVersionEnsemble;
  if (magic[1] != kVersionSingle && !is_ensemble) {
    return SnapshotError(
        StrFormat("unsupported version '%s' (this build reads %s/%s)",
                  magic[1].c_str(), kVersionSingle, kVersionEnsemble));
  }

  // Header lines up to the version's payload marker: "model" for v1, the
  // "members" count for v2.
  if (is_ensemble) snapshot.info.algorithm = "ensemble";
  ensemble::CombinerKind combiner = ensemble::CombinerKind::kMeanNormalized;
  bool saw_payload = false;
  uint64_t num_members = 0;
  std::string_view line;
  while (in.Next(&line)) {
    const std::string trimmed(Trim(line));
    if (!is_ensemble && trimmed == "model") {
      saw_payload = true;
      break;
    }
    const size_t space = trimmed.find(' ');
    if (space == std::string::npos) {
      return SnapshotError("malformed header line '" + trimmed + "'");
    }
    const std::string key = trimmed.substr(0, space);
    const std::string value = trimmed.substr(space + 1);
    if (is_ensemble && key == "members") {
      const Result<uint64_t> parsed = ParseUInt(value);
      if (!parsed.ok() || parsed.value() < 1) {
        return SnapshotError("bad members '" + value + "'");
      }
      num_members = parsed.value();
      saw_payload = true;
      break;
    }
    if (key == "algorithm") {
      const bool known = is_ensemble
                             ? value == "ensemble"
                             : value == "evolutionary" ||
                                   value == "brute-force";
      if (!known) return SnapshotError("unknown algorithm '" + value + "'");
      snapshot.info.algorithm = value;
    } else if (key == "combiner") {
      if (!ensemble::ParseCombinerKind(value, &combiner)) {
        return SnapshotError("unknown combiner '" + value + "'");
      }
    } else if (key == "seed" || key == "phi" || key == "target_dim") {
      // Full-range unsigned parse: RNG-derived seeds use all 64 bits.
      const Result<uint64_t> parsed = ParseUInt(value);
      if (!parsed.ok()) {
        return SnapshotError("bad " + key + " '" + value + "'");
      }
      const uint64_t v = parsed.value();
      if (key == "seed") snapshot.info.seed = v;
      if (key == "phi") snapshot.info.phi = v;
      if (key == "target_dim") snapshot.info.target_dim = v;
    }
    // Unknown keys are ignored: additive header extensions stay readable.
  }
  if (!saw_payload) {
    return SnapshotError(is_ensemble ? "missing members section"
                                     : "missing model section");
  }

  if (!is_ensemble) {
    HIDO_RETURN_IF_ERROR(ParseSingleModel(
        std::string_view(text).substr(in.pos()), &snapshot.model));
    return snapshot;
  }
  snapshot.model.combiner = combiner;
  HIDO_RETURN_IF_ERROR(
      ParseMembers(text, in, num_members, &snapshot.model));
  obs::MetricsRegistry::Global().GetCounter("snapshot.v2.loads").Add(1);
  return snapshot;
}

Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path) {
  if (snapshot.model.num_dims() == 0) {
    return Status::FailedPrecondition(
        "snapshot: the fit stopped before its grid was built; nothing "
        "written to " + path);
  }
  if (snapshot.model.members.empty()) {
    return Status::FailedPrecondition(
        "snapshot: the fit stopped before its first ensemble member "
        "finished; nothing written to " + path);
  }
  return WriteFileAtomic(path, SerializeSnapshot(snapshot));
}

Result<std::shared_ptr<ModelSnapshot>> LoadSnapshot(
    const std::string& path) {
  const Result<FileBytes> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  Result<ModelSnapshot> parsed = ParseSnapshot(bytes.value().view());
  if (!parsed.ok()) return parsed.status();
  return std::make_shared<ModelSnapshot>(std::move(parsed.value()));
}

}  // namespace serve
}  // namespace hido
