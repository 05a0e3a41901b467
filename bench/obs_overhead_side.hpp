// The reply a bench_obs_overhead side process writes for each request
// (obs_overhead_side.cpp), shared with bench_obs_overhead.cpp, which reads it.
#pragma once

#include <cstdint>

namespace hydra::benchobs {

struct SideReply {
  double seconds = 0.0;      ///< wall time of the timed simulation
  std::uint64_t events = 0;  ///< events it ran; 0 marks a failed request
};

}  // namespace hydra::benchobs
