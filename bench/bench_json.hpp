// Unified bench JSON emission for the bench/ binaries.
//
// The benches that CI keeps as artifacts (bench_graph_aa, bench_obs_overhead)
// accept `--json PATH` (or `--json=PATH`) and write their measurements in the
// shared hydra-bench-v1 schema (src/harness/perf.hpp), which `hydra perf
// --input J --baseline B` reads. consume_json_path() strips the flag from
// argv, so a bench can reject any argument left over.
#pragma once

#include <cstring>
#include <string>

#include "harness/perf.hpp"

namespace hydra::bench {

/// Removes `--json PATH` / `--json=PATH` from argv and returns the path
/// ("" when absent). argc is updated in place.
inline std::string consume_json_path(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
      continue;
    }
    argv[w++] = argv[i];
  }
  argc = w;
  return path;
}

}  // namespace hydra::bench
