// Multi-threaded grid execution over a streaming sink.
//
// Each run of each cell is an independent, single-threaded, seed-determined
// run_consensus() call. The executor divides every cell's 64-bit run index
// range into fixed chunks and lets worker threads pull chunks from an
// atomic cursor (work stealing without materializing per-run task lists —
// the work queue is index arithmetic over prefix sums, O(cells) state for
// grids of any run count). A worker folds its chunk into a fresh
// CellAccumulator and hands it to the RunSink; because every accumulator
// component is merge-order-invariant (see exp/sink.h), the per-cell
// statistics — and any report rendered from them — are bit-identical
// whether the grid ran on 1 thread or 64, streamed or batched.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exp/sink.h"
#include "exp/spec.h"

namespace hyco {

/// Fans a grid across worker threads; see file comment for the determinism
/// contract.
class ParallelExecutor {
 public:
  struct Options {
    /// Worker count; 0 = std::thread::hardware_concurrency() (min 1).
    /// Negative values are rejected (ContractViolation) when running.
    std::int64_t threads = 0;
    /// Maximum runs per work unit. Chunks never span cells; the last chunk
    /// of a cell may be short; and the executor shrinks the grain so small
    /// grids still produce at least ~4 chunks per worker (a 300-run cell
    /// must not serialize onto one thread). Chunking affects scheduling
    /// only — the merge-order-invariant accumulators emit identical bytes
    /// at any grain. Must be >= 1.
    std::uint64_t chunk_size = 1024;
    /// Quantile reservoir capacity per metric (exp/sink.h). Percentiles
    /// are exact while a cell's terminated-run count stays within it.
    std::size_t reservoir_capacity = MetricStats::kDefaultReservoir;
    /// Worst-failing-seed ring size per cell.
    std::size_t failure_capacity = CellAccumulator::kDefaultFailureCap;
    /// Optional progress callback, invoked from worker threads after each
    /// completed *chunk* with (runs done, total runs). Must be thread-safe.
    std::function<void(std::uint64_t done, std::uint64_t total)> progress;
    /// Optional throughput callback, invoked alongside `progress` with the
    /// chunk's decided service ops (zero for consensus cells). Lets the
    /// sweep CLI report ops/sec for service workloads whose per-run cost
    /// dwarfs the run count. Must be thread-safe.
    std::function<void(std::uint64_t ops)> ops_progress;
    /// Measure per-chunk wall/CPU time and feed RunSink::absorb_profile.
    /// Host-side timing only — simulation results are unaffected.
    bool profile = false;
  };

  ParallelExecutor() = default;
  explicit ParallelExecutor(Options opts) : opts_(std::move(opts)) {}

  /// Streaming core: runs every (cell × run) task, folding chunks into
  /// `sink`. Cells may have heterogeneous run counts. Memory stays
  /// O(cells + threads × chunk accumulators) regardless of total runs.
  void run(const std::vector<ExperimentCell>& cells, RunSink& sink) const;

  /// Partial-grid core: executes only the listed run spans (chunks never
  /// cross a span). Spans must be non-empty, within their cell's run range,
  /// and — per cell — disjoint; a cell "completes" when all of *its spans*
  /// have been absorbed. This is the mid-cell resume path: the complement
  /// of a chunk checkpoint's folded ranges runs here and, because the
  /// accumulators are merge-order-invariant, merging the result with the
  /// checkpointed chunks is byte-identical to an uninterrupted run.
  void run(const std::vector<ExperimentCell>& cells,
           const std::vector<RunSpan>& spans, RunSink& sink) const;

  /// Batch convenience: executes through a record-retaining CollectingSink
  /// and returns per-cell aggregates in cell order. Deterministic for a
  /// fixed spec regardless of thread count.
  [[nodiscard]] std::vector<CellResult> run(const ExperimentSpec& spec) const;
  [[nodiscard]] std::vector<CellResult> run(
      const std::vector<ExperimentCell>& cells) const;

  /// Effective worker count for a task list of the given size.
  [[nodiscard]] unsigned worker_count(std::uint64_t total_tasks) const;

 private:
  Options opts_;
};

}  // namespace hyco
