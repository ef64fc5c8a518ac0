// perfbench: the repository's full-stack benchmark.
//
//   perfbench --workload <pay_open|pay_burst|dispute_storm> --seed <n>
//             --seconds <s> --trace <0|1> [--mutate <fault>]
//
// Prints notes (inputs digest, client tail, kernel-to-layer ledger, span
// self times), then one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set. README.md in this directory explains every
// workload and metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include <unistd.h>

#include "common/thread_pool.h"
#include "pay.h"
#include "storm.h"
#include "util.h"

namespace {

using perfbench::Metric;
using perfbench::Result;

/// The per-layer set, in print order. A layer a workload does not run
/// reports 0 (the dispute layer on the pay workloads, and net, gateway,
/// crypto, store and replication on dispute_storm).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.residual_us", "us"},
    {"net.frames_per_handle", "count"},
    {"net.bytes_per_pay", "B"},
    {"net.read_pauses", "count"},
    {"net.sheds_seen", "count"},
    {"gateway.handle_us_per_frame", "us"},
    {"gateway.handle_cpu_us_per_frame", "us"},
    {"gateway.serve_p50_us", "us"},
    {"gateway.preverify_us", "us"},
    {"gateway.stage_decode_us", "us"},
    {"gateway.stage_verify_us", "us"},
    {"gateway.stage_evaluate_us", "us"},
    {"gateway.stage_reserve_us", "us"},
    {"gateway.stage_wal_us", "us"},
    {"gateway.stage_commit_us", "us"},
    {"gateway.stage_respond_us", "us"},
    {"gateway.unstaged_us", "us"},
    {"gateway.batch_jobs", "count"},
    {"gateway.flush_ms", "ms"},
    {"gateway.flush_us_per_pay", "us"},
    {"gateway.restore_ms", "ms"},
    {"crypto.precomp_hit_ratio", "ratio"},
    {"crypto.sigcache_hit_ratio", "ratio"},
    {"crypto.verify_cold_us", "us"},
    {"crypto.verify_warm_us", "us"},
    {"crypto.verify_pred_us", "us"},
    {"store.commit_us", "us"},
    {"store.commit_pred_us", "us"},
    {"store.wal_bytes_per_pay", "B"},
    {"store.fsyncs_per_pay", "count"},
    {"store.open_ms", "ms"},
    {"store.replayed_records", "count"},
    {"replication.quorum_wait_us", "us"},
    {"replication.ship_us", "us"},
    {"replication.records_per_ship", "count"},
    {"replication.ship_bytes_per_pay", "B"},
    {"replication.quorum_failures", "count"},
    {"replication.promote_ms", "ms"},
    {"dispute.batch_ms", "ms"},
    {"dispute.index_hit_ratio", "ratio"},
    {"dispute.headers_hashed_per_dispute", "count"},
    {"dispute.disputes_per_s", "1/s"},
    {"dispute.gas_per_dispute", "gas"},
    {"dispute.hash_pred_ms", "ms"},
    {"client.p99_ms", "ms"},
    {"client.samples", "count"},
    {"client.late_p99_ms", "ms"},
    {"client.cpu_us_per_pay", "us"},
    {"ledger.unattributed_us", "us"},
    {"trace.overhead_pct", "%"},
};

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},      {"p50_ms", "ms"},      {"cpu_us_per_op", "us"},
    {"restart_ms", "ms"},  {"failover_ms", "ms"},
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Emit the result line for `wanted` names, taking values from `have`.
/// Returns false if a wanted end-to-end metric is missing (a bug: a
/// result must never silently drop a bounded metric).
bool print_result(const Result& r, const std::vector<std::pair<const char*, const char*>>& wanted,
                  const std::vector<Metric>& have, bool zero_fill) {
  std::map<std::string, double> by_name;
  for (const auto& m : have) by_name[m.name] = m.value;
  std::string out = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    const auto it = by_name.find(name);
    if (it == by_name.end() && !zero_fill) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", name);
      return false;
    }
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           number(it == by_name.end() ? 0.0 : it->second) + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return true;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <pay_open|pay_burst|dispute_storm> --seed <n> "
               "--seconds <s> --trace <0|1> [--mutate <flip-accept|corrupt-recovery|"
               "alter-verdict>]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mutate;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::atoll(val);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--mutate") {
      mutate = val;
    } else {
      usage();
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) usage();

  perfbench::Mutation mutation = perfbench::Mutation::kNone;
  if (mutate == "flip-accept") {
    mutation = perfbench::Mutation::kFlipAccept;
  } else if (mutate == "corrupt-recovery") {
    mutation = perfbench::Mutation::kCorruptRecovery;
  } else if (mutate == "alter-verdict") {
    mutation = perfbench::Mutation::kAlterVerdict;
  } else if (!mutate.empty()) {
    usage();
  }

  // Thread budget: the load generator (this thread) and the server's loop
  // thread; the verification pool runs inline on its caller (0 workers,
  // the deployment default). Two threads fit any machine the benchmark
  // runs on, and no worker hand-off adds wake-up jitter to a latency.
  btcfast::common::ThreadPool::configure_global(0);
  const std::string out_dir = ".bench_build/out";
  std::filesystem::create_directories(out_dir);
  const std::string trace_path =
      out_dir + "/trace-" + workload + "-seed" + std::to_string(seed) + ".jsonl";
  const auto useed = static_cast<std::uint64_t>(seed);

  Result res;
  try {
    if (workload == "pay_open" || workload == "pay_burst") {
      perfbench::PayConfig cfg;
      if (workload == "pay_open") {
        // Walk-in retail: evenly spaced payments at a rate well below
        // capacity, from a population larger than the 512-key precomp
        // cache.
        cfg.rate_per_s = 400;
        cfg.burst = 1;
        cfg.world.customers = 768;
        cfg.world.zipf_s = 0.9;
      } else {
        // Busy terminals with regular customers: 8 payments (4 per
        // connection) fall due at once every 10 ms, so the server sees
        // many frames per poll, yet each burst drains well before the
        // next. An open loop, so the median is a latency and not, as in
        // a saturated closed loop, a throughput in disguise.
        cfg.rate_per_s = 800;
        cfg.burst = 8;
        cfg.world.customers = 8;
        cfg.world.zipf_s = 1.0;
      }
      cfg.seconds = seconds;
      cfg.trace = trace == 1;
      cfg.mutation = mutation;
      cfg.run_dir = ".bench_build/run-" + std::to_string(::getpid());
      cfg.trace_path = trace_path;
      res = perfbench::run_pay(cfg, useed);
    } else if (workload == "dispute_storm") {
      perfbench::StormConfig cfg;
      cfg.seconds = seconds;
      cfg.trace = trace == 1;
      cfg.mutation = mutation;
      cfg.trace_path = trace_path;
      res = perfbench::run_storm(cfg, useed);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("# workload %s seed %lld seconds %g trace %d\n", workload.c_str(), seed, seconds,
              trace);
  for (const auto& n : res.notes) std::printf("# %s\n", n.c_str());
  for (const auto& f : res.check_failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  const bool ok = trace == 0 ? print_result(res, kEndToEnd, res.end_to_end, false)
                             : print_result(res, kPerLayer, res.per_layer, true);
  return ok ? 0 : 1;
}
