// The dispute-storm workload: batches of evidence and judge transactions
// through StormEngine + PayJudger on the PSC chain, with the header index
// persisting across the batches of one storm. It runs `dispute`, `psc`
// and SHA-256 and bypasses net, gateway, ECDSA and store — the control
// for serving-path changes, and the reverse.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"
#include "world.h"

namespace perfbench {

struct StormConfig {
  double seconds = 10;  ///< storms are replayed until this much time is measured
  bool trace = false;
  Mutation mutation = Mutation::kNone;
  std::string trace_path;
};

[[nodiscard]] Result run_storm(const StormConfig& config, std::uint64_t seed);

}  // namespace perfbench
