// Network intrusion detection — the paper's other motivating application
// ("these characteristics may provide guidance in discovering the
// causalities of the abnormal behavior"). Connection records follow a few
// service profiles (correlated port/size/duration/rate combinations);
// attacks are connections whose every field is individually ordinary but
// whose combination matches no service. The example also demonstrates the
// train-once / score-live workflow: the detector is fitted on yesterday's
// log, frozen into a Model (quantizer + reported cubes, no training data),
// and new connections are scored one at a time with Model::Score — the
// scorer `hido score` and `hido serve` use.

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/postprocess.h"
#include "data/dataset.h"
#include "ensemble/model.h"

namespace {

using hido::Dataset;
using hido::Rng;

constexpr size_t kPort = 0;
constexpr size_t kBytesOut = 1;
constexpr size_t kDuration = 2;
constexpr size_t kPacketRate = 3;
constexpr size_t kNoiseDims = 20;  // flow metadata irrelevant to the attack
constexpr size_t kTotalDims = 4 + kNoiseDims;

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

// A service profile: a joint mode over (port, bytes, duration, rate).
struct Service {
  double port;        // stable per service
  double bytes_mu, bytes_sigma;
  double duration_mu, duration_sigma;
  double rate_mu, rate_sigma;
};

std::vector<double> SampleConnection(const Service& s, Rng& rng) {
  std::vector<double> c(kTotalDims);
  c[kPort] = s.port + rng.UniformDouble(-0.2, 0.2);  // jittered code
  c[kBytesOut] = Clamp(rng.Normal(s.bytes_mu, s.bytes_sigma), 1.0, 1e7);
  c[kDuration] =
      Clamp(rng.Normal(s.duration_mu, s.duration_sigma), 0.001, 3600.0);
  c[kPacketRate] = Clamp(rng.Normal(s.rate_mu, s.rate_sigma), 0.1, 1e4);
  for (size_t f = 4; f < kTotalDims; ++f) {
    c[f] = rng.UniformDouble();
  }
  return c;
}

}  // namespace

int main() {
  Rng rng(443);
  std::vector<std::string> columns = {"port", "bytes_out", "duration_s",
                                      "packet_rate"};
  for (size_t f = 4; f < kTotalDims; ++f) {
    columns.push_back("flow_meta" + std::to_string(f));
  }
  Dataset log(columns);

  // Four services: HTTPS (short bursts), SSH (long, low-rate), DNS (tiny),
  // and backup (huge, long).
  const Service https = {443.0, 5.0e4, 1.5e4, 0.8, 0.3, 900.0, 250.0};
  const Service ssh = {22.0, 8.0e3, 3.0e3, 600.0, 180.0, 6.0, 2.0};
  const Service dns = {53.0, 300.0, 90.0, 0.05, 0.02, 2.0, 0.6};
  const Service backup = {873.0, 5.0e6, 1.2e6, 1500.0, 400.0, 2000.0, 500.0};
  const std::vector<const Service*> services = {&https, &ssh, &dns, &backup};
  for (int i = 0; i < 1200; ++i) {
    log.AppendRow(SampleConnection(*services[rng.UniformIndex(4)], rng));
  }

  // Attacks: marginally-ordinary fields, impossible combinations.
  std::vector<size_t> attack_rows;
  auto plant = [&](std::vector<double> c) {
    attack_rows.push_back(log.num_rows());
    log.AppendRow(c);
  };
  {
    // Exfiltration over DNS: DNS port with backup-sized transfer volume.
    std::vector<double> c = SampleConnection(dns, rng);
    c[kBytesOut] = 4.2e6;
    c[kDuration] = 1400.0;
    plant(c);
  }
  {
    // Tunnel over HTTPS: HTTPS port with SSH-like hour-long duration.
    std::vector<double> c = SampleConnection(https, rng);
    c[kDuration] = 650.0;
    c[kPacketRate] = 5.5;
    plant(c);
  }
  {
    // SSH brute force: SSH port at HTTPS-like packet rates.
    std::vector<double> c = SampleConnection(ssh, rng);
    c[kPacketRate] = 880.0;
    plant(c);
  }

  hido::DetectorConfig config;
  config.phi = 8;
  config.target_dim = 2;
  config.num_projections = 12;
  config.evolution.restarts = 8;
  config.evolution.mutation.p1 = 0.5;
  config.evolution.mutation.p2 = 0.5;
  config.seed = 22;
  const hido::DetectionResult result =
      hido::OutlierDetector(config).Detect(log);

  const std::set<size_t> planted(attack_rows.begin(), attack_rows.end());
  size_t found = 0;
  for (const hido::OutlierRecord& o : result.report.outliers) {
    found += planted.contains(o.row) ? 1 : 0;
  }
  std::printf("=== offline sweep over %zu connections ===\n",
              log.num_rows());
  std::printf("flagged %zu connections; %zu of %zu planted attacks among "
              "them\n\n",
              result.report.outliers.size(), found, attack_rows.size());
  const size_t show = std::min<size_t>(3, result.report.outliers.size());
  for (size_t i = 0; i < show; ++i) {
    std::printf("%s%s\n",
                ExplainOutlier(result.report, i, result.grid, log).c_str(),
                planted.contains(result.report.outliers[i].row)
                    ? "  <== planted attack\n"
                    : "");
  }

  // --- live scoring of new connections against the fitted model --------
  std::printf("=== live scoring of fresh connections ===\n");
  const hido::ensemble::Model model =
      hido::ensemble::Model::FromDetection(result, log);
  auto score_live = [&](const char* what, const std::vector<double>& c) {
    const hido::ensemble::ModelScore s = model.Score(c);
    std::printf("%-34s score %-8.3f covering projections %zu %s\n", what,
                s.score, s.covering_projections,
                s.covering_projections > 0 ? "<== ALERT" : "");
  };
  score_live("normal HTTPS connection", SampleConnection(https, rng));
  score_live("normal DNS lookup", SampleConnection(dns, rng));
  {
    std::vector<double> c = SampleConnection(dns, rng);
    c[kBytesOut] = 3.9e6;  // fresh DNS exfiltration attempt
    c[kDuration] = 1300.0;
    score_live("new DNS connection, 3.9MB out", c);
  }
  return 0;
}
