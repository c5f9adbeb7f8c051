#include "exp/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "core/runner.h"
#include "service/service_runner.h"
#include "util/assert.h"

namespace hyco {

namespace {

/// This worker thread's CPU time in ns (0 where unsupported).
std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

}  // namespace

unsigned ParallelExecutor::worker_count(std::uint64_t total_tasks) const {
  HYCO_CHECK_MSG(opts_.threads >= 0,
                 "thread count must be >= 0, got " << opts_.threads);
  auto t = static_cast<unsigned>(opts_.threads);
  if (t == 0) t = std::thread::hardware_concurrency();
  if (t == 0) t = 1;
  if (static_cast<std::uint64_t>(t) > total_tasks) {
    t = static_cast<unsigned>(total_tasks);
  }
  return t == 0 ? 1 : t;
}

void ParallelExecutor::run(const std::vector<ExperimentCell>& cells,
                           RunSink& sink) const {
  std::vector<RunSpan> spans;
  spans.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    HYCO_CHECK_MSG(cells[c].runs >= 1,
                   "cell " << cells[c].index << " has zero runs");
    spans.push_back({c, 0, cells[c].runs});
  }
  run(cells, spans, sink);
}

void ParallelExecutor::run(const std::vector<ExperimentCell>& cells,
                           const std::vector<RunSpan>& spans,
                           RunSink& sink) const {
  if (cells.empty() || spans.empty()) return;
  HYCO_CHECK_MSG(opts_.chunk_size >= 1, "chunk_size must be >= 1");

  const std::size_t n_cells = cells.size();
  const std::size_t n_spans = spans.size();
  std::uint64_t total_runs = 0;
  for (const RunSpan& s : spans) {
    HYCO_CHECK_MSG(s.cell_pos < n_cells,
                   "span cell position " << s.cell_pos << " out of range");
    HYCO_CHECK_MSG(s.begin < s.end && s.end <= cells[s.cell_pos].runs,
                   "span [" << s.begin << ", " << s.end
                            << ") invalid for cell "
                            << cells[s.cell_pos].index << " ("
                            << cells[s.cell_pos].runs << " runs)");
    HYCO_CHECK_MSG(total_runs <=
                       std::numeric_limits<std::uint64_t>::max() - s.length(),
                   "grid run count overflows 64 bits");
    total_runs += s.length();
  }

  // Effective grain: the configured chunk size, shrunk so the pool sized
  // below always has >= ~4 chunks per worker to steal (small grids would
  // otherwise serialize — worker_count(total_runs) workers always spawn).
  const unsigned pool = worker_count(total_runs);
  const std::uint64_t target_chunks = static_cast<std::uint64_t>(pool) * 4;
  const std::uint64_t chunk = std::min(
      opts_.chunk_size,
      std::max<std::uint64_t>(1, total_runs / target_chunks));

  // Prefix sums over per-span chunk counts: a global chunk index maps to
  // (span, run range) by binary search — no per-run or per-chunk task
  // list exists, so the index space may hold billions of runs.
  std::vector<std::uint64_t> chunks_before(n_spans + 1, 0);
  for (std::size_t s = 0; s < n_spans; ++s) {
    // (length - 1) / chunk + 1 is ceil-divide without the length + chunk
    // overflow (chunk may be huge relative to the span).
    chunks_before[s + 1] =
        chunks_before[s] + (spans[s].length() - 1) / chunk + 1;
  }
  const std::uint64_t total_chunks = chunks_before[n_spans];

  // Per-cell countdown of unabsorbed runs; the worker that drops a cell's
  // count to zero reports its completion. Cells with no spans never
  // complete here (their runs live in a checkpoint, not this execution).
  auto remaining = std::make_unique<std::atomic<std::uint64_t>[]>(n_cells);
  for (std::size_t c = 0; c < n_cells; ++c) {
    remaining[c].store(0, std::memory_order_relaxed);
  }
  for (const RunSpan& s : spans) {
    remaining[s.cell_pos].fetch_add(s.length(), std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> done_runs{0};
  const bool keep_records = sink.wants_records();

  const auto worker = [&] {
    for (;;) {
      const std::uint64_t g = next.fetch_add(1, std::memory_order_relaxed);
      if (g >= total_chunks) return;
      // Span owning global chunk g: the last s with chunks_before[s] <= g.
      const std::size_t span_pos = static_cast<std::size_t>(
          std::upper_bound(chunks_before.begin(), chunks_before.end(), g) -
          chunks_before.begin() - 1);
      const RunSpan& span = spans[span_pos];
      const std::size_t cell_pos = static_cast<std::size_t>(span.cell_pos);
      const ExperimentCell& cell = cells[cell_pos];
      const std::uint64_t begin =
          span.begin + (g - chunks_before[span_pos]) * chunk;
      const std::uint64_t end = std::min(begin + chunk, span.end);

      CellAccumulator acc(opts_.reservoir_capacity, opts_.failure_capacity);
      std::vector<RunRecord> records;
      if (keep_records) records.reserve(static_cast<std::size_t>(end - begin));
      ChunkProfile prof;
      std::uint64_t chunk_ops = 0;
      const auto wall_start = std::chrono::steady_clock::now();
      const std::uint64_t cpu_start = opts_.profile ? thread_cpu_ns() : 0;
      const auto fold = [&](const RunRecord& rec) {
        if (opts_.profile) {
          prof.msgs += rec.msgs;
          prof.events += rec.events;
        }
        chunk_ops += rec.service.ops;
        acc.add(rec);
        if (keep_records) records.push_back(rec);
      };
      if (cell.service.enabled) {
        for (std::uint64_t k = begin; k < end; ++k) {
          const ServiceRunConfig cfg = cell.service_run_config(k);
          fold(extract_service_record(k, cfg.seed, run_service(cfg)));
        }
      } else {
        for (std::uint64_t k = begin; k < end; ++k) {
          const RunConfig cfg = cell.run_config(k);
          fold(extract_record(k, cfg.seed, run_consensus(cfg)));
        }
      }
      if (opts_.profile) {
        prof.wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count());
        const std::uint64_t cpu_end = thread_cpu_ns();
        prof.cpu_ns = cpu_end > cpu_start ? cpu_end - cpu_start : 0;
        prof.runs = end - begin;
        prof.chunks = 1;
      }
      sink.absorb(cell_pos, begin, end, std::move(acc), std::move(records));
      if (opts_.profile) sink.absorb_profile(cell_pos, prof);
      const std::uint64_t left = remaining[cell_pos].fetch_sub(
          end - begin, std::memory_order_acq_rel);
      if (left == end - begin) sink.on_cell_complete(cell_pos);
      if (opts_.ops_progress && chunk_ops > 0) opts_.ops_progress(chunk_ops);
      if (opts_.progress) {
        const std::uint64_t d =
            done_runs.fetch_add(end - begin, std::memory_order_relaxed) +
            (end - begin);
        opts_.progress(d, total_runs);
      }
    }
  };

  // total_chunks >= min(total_runs, 4 * pool) >= pool, so the pool is
  // never starved of work units.
  const unsigned n_threads = pool;
  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
}

std::vector<CellResult> ParallelExecutor::run(
    const ExperimentSpec& spec) const {
  return run(spec.expand());
}

std::vector<CellResult> ParallelExecutor::run(
    const std::vector<ExperimentCell>& cells) const {
  CollectingSink::Options sink_opts;
  sink_opts.retain_records = true;
  CollectingSink sink(cells, std::move(sink_opts));
  run(cells, sink);
  return sink.take_results();
}

}  // namespace hyco
