#include "exp/sweep_flags.h"

namespace hyco {

const std::vector<SweepFlag>& sweep_flag_registry() {
  static const std::vector<SweepFlag> kFlags = {
      // Grid axes and execution.
      {"alg", "consensus algorithms: local_coin | common_coin | ben_or"},
      {"n", "process counts (comma list)"},
      {"m", "cluster counts (comma list; cells with m > n skip)"},
      {"runs", "seeds per cell"},
      {"threads", "local worker threads; 0 = hardware concurrency"},
      {"seed", "base seed"},
      {"eps", "common-coin corruption probabilities (comma list)"},
      {"inputs", "proposal assignment: split | all0 | all1"},
      {"delay", "message delay: uniform:LO:HI | constant:T | exp:MEAN"},
      {"crash", "crash patterns: none | minority | covering-dead |"
                " mid-broadcast (comma list)"},
      {"max-rounds", "per-run round cap"},
      // Artifacts.
      {"json", "write the JSON report to PATH (- for stdout)"},
      {"csv", "write the CSV report to PATH (- for stdout)"},
      {"csv-shard", "shard the CSV into PATH.000, PATH.001, ... N cells each"},
      {"replay", "re-run up to N failing seeds with tracing on"},
      {"quiet", "suppress the ASCII table"},
      // Streaming pipeline.
      {"stream", "drop per-run records; memory stays O(cells)"},
      {"max-records", "retain at most N records per cell (batch mode)"},
      {"chunk", "max runs per local work unit"},
      {"checkpoint", "append completed chunk/cell accumulator state to PATH"},
      {"resume", "load the checkpoint first and skip its completed work"},
      {"progress", "1 Hz stderr line: runs & cells done, runs/s, ETA"},
      // Distributed sweeps.
      {"serve", "coordinate: listen on PORT and lease run ranges to workers"},
      {"connect", "work for a coordinator at HOST:PORT (same grid flags)"},
      {"workers", "with --connect: parallel worker sessions"},
      {"reconnect", "with --connect: mid-sweep reconnect budget"},
      {"lease", "with --serve: runs per lease chunk"},
      {"lease-floor", "with --serve: adaptive-tail minimum lease size"},
      {"lease-ttl", "with --serve: seconds before an unfolded lease re-queues"},
      {"health", "with --serve: read-only HTTP progress endpoint port"},
      // Adversarial scenarios.
      {"loss", "per-link message loss probability"},
      {"dup", "per-link duplication probability"},
      {"reorder", "bounded-reordering jitter (ns/us/ms)"},
      {"partition", "scheduled cuts: KIND:IDS[:flap=D:period=D][@START..HEAL]"},
      {"recover", "crash-recovery cycles: PID@DOWN..UP or cluster:X@DOWN..UP"},
      {"coin-attack", "BIT:BOOST - delay round>=2 phase-1 carriers of BIT"},
      {"skew", "step-speed multipliers: proc:ID:xF or cluster:ID:xF"},
      // Observability.
      {"log-level", "trace | debug | info | warn | error"},
      {"net-stats", "append per-cell message-class counter columns"},
      {"phase-metrics", "collect per-phase latency timings and their columns"},
      {"profile", "append executor wall/cpu/msgs-per-sec columns (local only)"},
      {"trace-out", "re-run one (cell, run) traced and export its timeline"},
      {"trace-cell", "cell index to trace"},
      {"trace-run", "run index within the cell to trace"},
      {"trace-format", "trace export format: jsonl | binary"},
      {"trace-cap", "trace ring capacity in records (default 65536)"},
      // Replicated service workload.
      {"service", "run the replicated-state-machine workload over the"
                  " sequenced consensus core"},
      {"clients", "with --service: simulated closed-loop clients"},
      {"ops-per-client", "with --service: ops each client submits"},
      {"batch", "with --service: max ops per proposed batch (axis)"},
      {"batch-delay", "with --service: ns a partial batch waits to flush"},
      {"svc-load", "with --service: offered load in ops/sec; 0 = no think"
                   " time (axis)"},
  };
  return kFlags;
}

bool is_sweep_flag(const std::string& name) {
  for (const SweepFlag& f : sweep_flag_registry()) {
    if (name == f.name) return true;
  }
  return false;
}

}  // namespace hyco
