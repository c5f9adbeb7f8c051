// One-call simulation driver: builds the world (core/sim_world.h), cluster
// memories, coins and processes for a configuration, runs to quiescence (or
// a limit), and returns decisions plus full instrumentation. Every test,
// example, and experiment harness goes through run_consensus().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster_layout.h"
#include "core/consensus_process.h"
#include "core/types.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "shm/consensus_object.h"
#include "shm/op_counts.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

class Trace;

/// Which consensus algorithm a run executes.
enum class Algorithm {
  HybridLocalCoin,   ///< the paper's Algorithm 2
  HybridCommonCoin,  ///< the paper's Algorithm 3
  BenOr,             ///< pure message-passing baseline (uses layout.n() only)
};

const char* to_cstring(Algorithm a);

/// Plain-data description of one simulation run.
struct RunConfig {
  explicit RunConfig(ClusterLayout l) : layout(std::move(l)) {}

  ClusterLayout layout;
  Algorithm alg = Algorithm::HybridLocalCoin;

  /// Proposals, one per process (binary). Empty = all processes propose 0/1
  /// alternating by index (a split input).
  std::vector<Estimate> inputs;

  std::uint64_t seed = 1;
  DelayConfig delays = DelayConfig::uniform(50, 150);

  /// Optional override: build a custom delay model (e.g. adversarial); when
  /// set, `delays` is ignored.
  std::function<std::unique_ptr<DelayModel>()> delay_factory;

  CrashPlan crashes;  ///< empty specs = nobody crashes

  /// Adversarial scenario (partitions, link faults, crash-recovery, coin
  /// attack). Empty = none; runs are then byte-identical to pre-scenario
  /// builds. When non-empty, scenario-assist gossip is enabled on every
  /// process (decided processes answer stale traffic with DECIDE, and
  /// undecided ones answer it by retransmitting their own message of that
  /// phase) so recovered or loss-starved processes can still terminate.
  ScenarioConfig scenario;

  Round max_rounds = 5000;          ///< parking brake for unlucky coin runs
  std::uint64_t max_events = 200'000'000;
  ConsensusImpl shm_impl = ConsensusImpl::Cas;

  /// Processes invoke propose() at an independent random time in
  /// [0, start_jitter] — asynchronous processes run at their own speed.
  /// Without jitter the lowest-index member of every cluster always wins
  /// the round-1 cluster consensus (a determinism artifact).
  SimTime start_jitter = 50;

  /// Common-coin imperfection (Algorithm 3 only): probability that a round's
  /// coin is adversary-chosen. 0 = perfect coin.
  double coin_epsilon = 0.0;
  /// The bit the adversary substitutes when the coin is corrupted.
  int adversary_bit = 0;

  bool enable_trace = false;

  /// When set (with enable_trace), events are recorded into this caller-
  /// owned ring instead of a run-local one — the caller keeps the structured
  /// records for export (src/obs/trace_export.h) rather than just the
  /// rendered trace_dump text.
  Trace* trace_sink = nullptr;

  /// Collect per-phase latency timings via an observer on each process.
  /// Observation is out of band: it never touches seeded RNG streams or
  /// algorithm state, so results are byte-identical either way. The
  /// message-class counters in RunResult::obs are filled regardless (they
  /// are free — copied from NetStats / ProcessStats after the run).
  bool collect_obs = false;
};

/// Everything observable about a finished run.
struct RunResult {
  std::vector<std::optional<Estimate>> decisions;  ///< per process
  std::vector<Round> decision_rounds;              ///< 0 if undecided
  std::vector<ProcessStats> proc_stats;

  std::optional<Estimate> decided_value;  ///< first decision, if any
  bool all_correct_decided = false;  ///< every never-crashed process decided
  bool agreement_ok = true;
  bool validity_ok = true;
  bool invariants_ok = true;  ///< WA1/WA2/cluster-consistency (hybrid runs)
  std::vector<std::string> violations;

  Round max_round = 0;                        ///< deepest round entered
  Round max_decision_round = 0;               ///< deepest deciding round
  SimTime last_decision_time = kSimTimeNever;
  SimTime end_time = 0;
  NetStats net;
  ShmOpCounts shm;                  ///< summed over all memories
  std::uint64_t consensus_objects = 0;  ///< objects materialized
  std::uint64_t events = 0;
  StopReason stop = StopReason::Quiescent;
  std::size_t crashed = 0;    ///< processes down at the end of the run
  std::size_t recovered = 0;  ///< crash-recovery rejoins executed
  std::string trace_dump;  ///< populated when cfg.enable_trace

  /// Observability sample: message-class counters always; phase timings
  /// only when cfg.collect_obs (zero otherwise).
  obs::ObsSample obs;

  /// all_correct_decided && agreement && validity && invariants.
  [[nodiscard]] bool success() const {
    return all_correct_decided && agreement_ok && validity_ok &&
           invariants_ok;
  }
  /// agreement && validity && invariants (termination not required —
  /// indulgence means safety must hold even when runs cannot finish).
  [[nodiscard]] bool safe() const {
    return agreement_ok && validity_ok && invariants_ok;
  }
};

class SimWorld;

/// The part of a consensus run that run_consensus and run_mm share: one
/// world's IConsensusProcesses, their start events and deliveries, and the
/// harvest of their decisions into a RunResult.
class ConsensusProcs {
 public:
  /// Routes the world's deliveries to the processes (add them before the
  /// run starts); a delivery that makes its receiver decide stamps
  /// last_decision_time. `world` and `inputs` (one proposal per process)
  /// must outlive this object.
  ConsensusProcs(SimWorld& world, const std::vector<Estimate>& inputs);

  // Not copyable or movable: the deliver hook and scheduled closures
  // capture `this`.
  ConsensusProcs(const ConsensusProcs&) = delete;
  ConsensusProcs& operator=(const ConsensusProcs&) = delete;

  /// Appends the next process (process ids are consecutive from 0).
  void add(std::unique_ptr<IConsensusProcess> proc);
  [[nodiscard]] const std::vector<std::unique_ptr<IConsensusProcess>>& all()
      const {
    return procs_;
  }

  /// Scenario rejoin of p (a SimWorld::schedule_faults callback): every
  /// process hears of it first, since replies sent into p's down window
  /// were lost; then p proposes if it was down at its start time, or
  /// retransmits what peers need (on_recover) if it had started.
  void rejoin(ProcId p);

  /// Schedules each process's propose() at a time drawn from [0, jitter]
  /// off the seeded start stream, stretched by the scenario's clock skew.
  /// A process that is down at its start time, or already started by a
  /// rejoin, skips it.
  void schedule_starts(std::uint64_t seed, SimTime jitter);

  /// Runs the world until it stops and harvests the result: per-process
  /// decisions, rounds and stats, termination of every correct process,
  /// agreement, validity, and the world's end time, event, crash and
  /// network counts.
  RunResult run(std::uint64_t max_events);

 private:
  SimWorld& world_;
  const std::vector<Estimate>& inputs_;
  std::vector<std::unique_ptr<IConsensusProcess>> procs_;
  std::vector<char> started_;
  RunResult result_;
};

/// Builds and runs one simulation.
RunResult run_consensus(const RunConfig& cfg);

/// Helper: split input vector (process i proposes i % 2).
std::vector<Estimate> split_inputs(ProcId n);

/// Helper: every process proposes `v`.
std::vector<Estimate> uniform_inputs(ProcId n, Estimate v);

}  // namespace hyco
