#include "serve/score_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace hido {
namespace serve {

namespace {

// Latency buckets: 1us .. 10s, roughly 1-2-5 per decade. Shared by every
// endpoint so cross-endpoint comparisons line up bucket for bucket.
const std::vector<double>& LatencyBounds() {
  static const std::vector<double> bounds{
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0};
  return bounds;
}

const std::vector<double>& BatchBounds() {
  static const std::vector<double> bounds{1,  2,   4,   8,   16,  32,
                                          64, 128, 256, 512, 1024};
  return bounds;
}

}  // namespace

ScoreService::Endpoint ScoreService::MakeEndpoint(const char* name) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return {
      &registry.GetCounter(StrFormat("serve.%s.requests", name)),
      &registry.GetHistogram(StrFormat("serve.%s.latency_seconds", name),
                             LatencyBounds()),
  };
}

ScoreService::ScoreService(ScoreServiceOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : &Clock::Real()),
      score_(MakeEndpoint("score")),
      ping_(MakeEndpoint("ping")),
      info_(MakeEndpoint("info")),
      stats_(MakeEndpoint("stats")),
      swap_(MakeEndpoint("swap")),
      shutdown_endpoint_(MakeEndpoint("shutdown")) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  errors_ = &registry.GetCounter("serve.errors");
  timeouts_ = &registry.GetCounter("serve.timeouts");
  swaps_ = &registry.GetCounter("serve.model.swaps");
  generation_gauge_ = &registry.GetGauge("serve.model.generation");
  batch_size_ = &registry.GetHistogram("serve.batch.size", BatchBounds());
}

uint64_t ScoreService::Publish(std::shared_ptr<ModelSnapshot> snapshot) {
  HIDO_CHECK(snapshot != nullptr);
  uint64_t gen = 0;
  std::shared_ptr<const ModelSnapshot> replaced;
  {
    MutexLock lock(mu_);
    gen = generation_.load(std::memory_order_relaxed) + 1;
    snapshot->generation = gen;
    replaced = std::exchange(snapshot_, std::move(snapshot));
    generation_.store(gen, std::memory_order_release);
    generation_gauge_->Set(static_cast<int64_t>(gen));
  }
  // The old snapshot is released here, outside the lock, unless an
  // in-flight request still holds it.
  return gen;
}

Status ScoreService::PublishFromFile(const std::string& path) {
  Result<std::shared_ptr<ModelSnapshot>> loaded = LoadSnapshot(path);
  if (!loaded.ok()) return loaded.status();
  Publish(std::move(loaded.value()));
  return Status::Ok();
}

ServeRequest ScoreService::MakeRequest(std::string line) const {
  ServeRequest request;
  request.line = std::move(line);
  request.arrival_seconds = clock_->NowSeconds();
  return request;
}

std::vector<std::string> ScoreService::Process(
    std::vector<ServeRequest> batch) {
  std::vector<std::string> responses(batch.size());
  if (batch.empty()) return responses;
  batch_size_->Observe(static_cast<double>(batch.size()));
  const size_t threads =
      std::max<size_t>(1, std::min(options_.num_threads, batch.size()));
  ParallelFor(batch.size(), threads,
              [&](size_t task, size_t /*worker*/) {
                responses[task] = HandleOne(batch[task]);
              });
  return responses;
}

std::string ScoreService::Handle(std::string line) {
  std::vector<ServeRequest> batch;
  batch.push_back(MakeRequest(std::move(line)));
  return Process(std::move(batch)).front();
}

std::string ScoreService::HandleOne(const ServeRequest& request) {
  const double start = request.arrival_seconds;
  const std::string line(Trim(request.line));
  const size_t space = line.find(' ');
  const std::string command = line.substr(0, space);
  const std::string args =
      space == std::string::npos ? std::string() : line.substr(space + 1);

  const Endpoint* endpoint = nullptr;
  std::string response;
  if (command == "score") {
    endpoint = &score_;
    // The deadline is checked when a worker picks the request up: a batch
    // stuck behind a slow consumer sheds its expired tail instead of
    // scoring stale work.
    if (options_.request_deadline_seconds > 0.0 &&
        clock_->NowSeconds() >=
            start + options_.request_deadline_seconds) {
      timeouts_->Add();
      response = "err deadline";
    } else {
      response = HandleScore(args);
    }
  } else if (command == "ping") {
    endpoint = &ping_;
    response = "ok pong";
  } else if (command == "info") {
    endpoint = &info_;
    response = HandleInfo();
  } else if (command == "stats") {
    endpoint = &stats_;
    response = HandleStats();
  } else if (command == "swap") {
    endpoint = &swap_;
    response = HandleSwap(args);
  } else if (command == "shutdown") {
    endpoint = &shutdown_endpoint_;
    shutdown_.store(true, std::memory_order_release);
    response = "ok bye";
  } else {
    errors_->Add();
    response = "err unknown command '" + command + "'";
  }

  if (endpoint != nullptr) {
    endpoint->requests->Add();
    endpoint->latency->Observe(
        std::max(0.0, clock_->NowSeconds() - start));
    if (response.compare(0, 3, "err") == 0) errors_->Add();
  }
  return response;
}

std::string ScoreService::HandleScore(const std::string& args) {
  const std::shared_ptr<const ModelSnapshot> snapshot = Current();
  if (snapshot == nullptr) return "err no model published";
  const ensemble::Model& model = snapshot->model;
  const size_t dims = model.num_dims();

  const std::vector<std::string> fields = Split(args, ',');
  if (fields.size() != dims) {
    return StrFormat("err expected %zu values, got %zu", dims,
                     fields.size());
  }
  std::vector<double> values(dims);
  for (size_t i = 0; i < dims; ++i) {
    if (IsMissingToken(fields[i])) {
      values[i] = std::nan("");
      continue;
    }
    const Result<double> parsed = ParseDouble(fields[i]);
    if (!parsed.ok()) {
      return StrFormat("err value %zu: %s", i + 1,
                       parsed.status().message().c_str());
    }
    values[i] = parsed.value();
  }
  // For ensembles the `members` field (kept before `gen=` so clients that
  // parse the generation suffix keep working) tells clients which
  // orientation the score has — combined ensemble scores are
  // higher-is-stronger, single-model sparsity scores are
  // more-negative-is-stronger.
  const ensemble::ModelScore score = model.Score(values);
  const std::string members =
      model.is_ensemble() ? StrFormat(" members=%zu", model.members.size())
                          : std::string();
  return StrFormat("ok score=%.17g covering=%zu%s gen=%llu", score.score,
                   score.covering_projections, members.c_str(),
                   static_cast<unsigned long long>(snapshot->generation));
}

std::string ScoreService::HandleInfo() {
  const std::shared_ptr<const ModelSnapshot> snapshot = Current();
  if (snapshot == nullptr) return "err no model published";
  const ensemble::Model& model = snapshot->model;
  std::string response = StrFormat(
      "ok gen=%llu dims=%zu phi=%zu projections=%zu points=%zu "
      "algorithm=%s seed=%llu",
      static_cast<unsigned long long>(snapshot->generation),
      model.num_dims(), static_cast<size_t>(snapshot->info.phi),
      model.num_projections(), model.num_points,
      snapshot->info.algorithm.c_str(),
      static_cast<unsigned long long>(snapshot->info.seed));
  if (model.is_ensemble()) {
    response += StrFormat(" members=%zu combiner=%s", model.members.size(),
                          ensemble::CombinerKindToString(*model.combiner));
  }
  return response;
}

std::string ScoreService::HandleStats() {
  const obs::Histogram::Snapshot latency = score_.latency->TakeSnapshot();
  return StrFormat(
      "ok requests=%llu errors=%llu timeouts=%llu swaps=%llu "
      "score_p50_seconds=%.3g score_p99_seconds=%.3g",
      static_cast<unsigned long long>(score_.requests->Value()),
      static_cast<unsigned long long>(errors_->Value()),
      static_cast<unsigned long long>(timeouts_->Value()),
      static_cast<unsigned long long>(swaps_->Value()),
      obs::HistogramQuantile(latency, 0.5),
      obs::HistogramQuantile(latency, 0.99));
}

std::string ScoreService::HandleSwap(const std::string& args) {
  const std::string path(Trim(args));
  if (path.empty()) return "err swap needs a snapshot path";
  Result<std::shared_ptr<ModelSnapshot>> loaded = LoadSnapshot(path);
  if (!loaded.ok()) {
    return "err " + loaded.status().message();
  }
  const size_t dims = loaded.value()->model.num_dims();
  const size_t projections = loaded.value()->model.num_projections();
  const uint64_t gen = Publish(std::move(loaded.value()));
  swaps_->Add();
  return StrFormat("ok swapped gen=%llu dims=%zu projections=%zu",
                   static_cast<unsigned long long>(gen), dims, projections);
}

}  // namespace serve
}  // namespace hido
