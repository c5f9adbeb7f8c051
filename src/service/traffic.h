// Closed-loop client traffic engine: a fixed population of simulated
// clients, each with at most one outstanding op, submitting to the replica
// it is attached to (client c -> replica c mod n) and thinking an
// exponential time between ops.
//
// Arrival-rate control: with `load` > 0 the per-client mean think time is
// clients / load seconds, so the population's offered load is `load`
// ops/sec; load == 0 means no think time (every client resubmits as soon
// as its previous op completes — the saturation workload). Each client
// submits `ops_per_client` ops in total, which bounds the run: once the
// last op is decided and delivered the simulation goes quiescent.
//
// All randomness comes from one Rng forked off the run seed and is drawn
// in simulator event order (the simulator is single-threaded), so traffic
// is deterministic per seed like everything else.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "service/types.h"
#include "sim/crash.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hyco {

struct TrafficConfig {
  std::uint64_t clients = 1000;
  std::uint64_t ops_per_client = 1;
  double load = 0.0;  ///< target offered load, ops/sec; 0 = no think time
  /// First arrivals spread uniformly over this window when load == 0 (a
  /// burst at t=0 would be a determinism artifact, like start_jitter).
  SimTime arrival_spread = 1000;
};

class TrafficEngine {
 public:
  using SubmitFn = std::function<void(ProcId origin, std::uint64_t op_id)>;

  TrafficEngine(Simulator& sim, const CrashTracker& tracker,
                TrafficConfig cfg, std::uint64_t seed, ProcId n,
                SubmitFn submit);

  /// Upper bound on clients × ops_per_client: the engine reserves one
  /// ClientOp (48 bytes) per op up front, so 10^7 ops is ~480 MB before the
  /// run starts. Callers that take the product from untrusted input check
  /// it first, on a thread where a failed check ends in a clean error.
  static constexpr std::uint64_t kMaxOps = 10'000'000;

  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  /// Schedules every client's first arrival.
  void start();

  /// Marks an op completed at time `now` (idempotent), records its latency,
  /// and schedules the client's next op if it has any left. Returns true
  /// when this call is the one that completed the op (first delivery).
  bool on_op_completed(std::uint64_t op_id, SimTime now);

  [[nodiscard]] const std::vector<ClientOp>& ops() const { return ops_; }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] const ExactMoments& latency() const { return latency_; }
  [[nodiscard]] const obs::LogHistogram& latency_hist() const {
    return latency_hist_;
  }

 private:
  void schedule_submit(std::uint64_t client, SimTime at);
  [[nodiscard]] SimTime think_time();

  Simulator& sim_;
  const CrashTracker& tracker_;
  TrafficConfig cfg_;
  ProcId n_;
  SubmitFn submit_;
  Rng rng_;
  double think_mean_ns_ = 0.0;

  std::vector<std::uint32_t> remaining_;  ///< ops left, per client
  std::vector<ClientOp> ops_;             ///< index = op id - 1
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  ExactMoments latency_;
  obs::LogHistogram latency_hist_;
};

}  // namespace hyco
