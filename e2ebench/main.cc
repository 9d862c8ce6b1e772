// e2e_bench: the compiled half of the end-to-end benchmark (run.py is the
// entry point). Two subcommands, each for one workload and seed:
//
//   e2e_bench setup --workload W --seed N --dir D
//   e2e_bench run   --workload W --seed N --dir D --seconds S --trace 0|1
//                   [--spans PATH]   (required with --trace 1)
//
// Each prints one JSON line on stdout; see workloads.h.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command != "setup" && command != "run") {
    std::fprintf(stderr, "usage: e2e_bench setup|run --workload W ...\n");
    return 2;
  }
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 == argc) {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  std::vector<std::string> required{"workload", "seed", "dir"};
  if (command == "run") {
    required.insert(required.end(), {"seconds", "trace"});
    if (flags["trace"] == "1") required.push_back("spans");
  }
  for (const std::string& name : required) {
    if (flags[name].empty()) {
      std::fprintf(stderr, "%s needs --%s\n", command.c_str(), name.c_str());
      return 2;
    }
  }
  const e2e::Workload* workload = e2e::FindWorkload(flags["workload"]);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags["workload"].c_str());
    return 2;
  }
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  if (command == "setup") return e2e::RunSetup(*workload, seed, flags["dir"]);
  return e2e::RunTimed(*workload, seed, flags["dir"],
                       std::strtod(flags["seconds"].c_str(), nullptr),
                       flags["trace"] == "1", flags["spans"]);
}
