// The two payment workloads: the full serving stack (loopback TCP ->
// TcpServer -> Gateway::serve_batch -> verify -> evaluate -> reserve ->
// WAL commit + fsync -> quorum-1 replication gate -> response), driven
// by a single-threaded load generator in this process, followed by
// crash drills (restart and failover) on the bytes the run wrote.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"
#include "world.h"

namespace perfbench {

/// Restarts, and failovers, each run on byte-identical copies of the
/// crashed stores.
inline constexpr int kDrillRepeats = 25;

struct PayConfig {
  double rate_per_s = 400;  ///< fixed offered rate (open loop)
  std::size_t burst = 1;    ///< payments falling due together; 1 = evenly spaced
  PayShape world;           ///< population and skew; `payments` is derived
  /// Measured load, in seconds of the schedule; half a second of warm-up
  /// goes before it. A traced run splits it 1/4, 1/2, 1/4.
  double seconds = 10;
  bool trace = false;
  Mutation mutation = Mutation::kNone;
  std::string run_dir;     ///< stores and scratch files live here
  std::string trace_path;  ///< spans are written here when tracing
};

[[nodiscard]] Result run_pay(const PayConfig& config, std::uint64_t seed);

}  // namespace perfbench
