// The three workloads. Each one generates its configurations from the
// seed, runs whole rounds for the requested host time, measures world
// set-up with zero-event twins between the rounds, checks the outputs
// itself, and reports host-time and simulated-time figures.
//
// consensus-faulty repeats the same seeded runs in every round, so each
// round's simulated results must be bit-identical to the first one's.
// consensus-large and service-closed run new seeded runs in every round,
// because their run length moves with the seed, and check that the first
// run reproduces itself when run again.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/runner.h"
#include "exp/checkpoint.h"
#include "exp/executor.h"
#include "exp/sink.h"
#include "exp/spec.h"
#include "net/network.h"
#include "scenario/engine.h"
#include "service/service_runner.h"
#include "util/rng.h"
#include "workload/failure_patterns.h"

namespace e2ebench {

namespace {

using hyco::Algorithm;
using hyco::CellAccumulator;
using hyco::CellResult;
using hyco::ClusterLayout;
using hyco::Estimate;
using hyco::ExperimentCell;
using hyco::ProcId;
using hyco::RunConfig;
using hyco::RunResult;
using hyco::RunSink;

std::int64_t elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double mean(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// exclusive method); `v` holds at least two values.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::array<double, 3> q{};
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * (n + 1) / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * (n + 1)) -
                       static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return q;
}

/// Host time of world set-up. A pass builds every world of the workload
/// `builds` times with max_events = 0 (world built, no event executed), so
/// that a pass takes tens of milliseconds rather than a fraction of one.
/// Passes are taken between the timed rounds, spread over the run, and
/// then until their interquartile range is within a tenth of their median.
class SetupClock {
 public:
  SetupClock(std::size_t builds, std::function<void()> build_all)
      : builds_(builds), build_all_(std::move(build_all)) {}

  void sample() {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < builds_; ++b) build_all_();
    passes_.push_back(static_cast<double>(elapsed_ns(t0)) / 1e9 /
                      static_cast<double>(builds_));
  }

  /// Samples until at least nine passes agree within a tenth (IQR over
  /// median) or `max_s` more seconds have passed. Returns the median pass:
  /// the host seconds to build every world of the workload once.
  double settle(double max_s) {
    const auto start = Clock::now();
    while (passes_.size() < 9 ||
           (spread() > 0.1 &&
            static_cast<double>(elapsed_ns(start)) < max_s * 1e9)) {
      sample();
    }
    if (spread() > 0.1) {
      std::cerr << "  setup_s: " << passes_.size()
                << " passes still spread by " << spread() * 100.0
                << "% (IQR / median)\n";
    }
    return median(passes_);
  }

 private:
  [[nodiscard]] double spread() const {
    const auto q = quartiles(passes_);
    return (q[2] - q[0]) / q[1];
  }

  std::size_t builds_;
  std::function<void()> build_all_;
  std::vector<double> passes_;
};

/// Runs round 0 — the warm-up, whose results are the ones checked — then
/// repeats rounds until `seconds` of host time have passed after it, and
/// at least three times, taking a set-up pass after each round. `round(i)`
/// returns the host seconds of its own timed region; the result holds
/// those of rounds 1, 2, ...
std::vector<double> timed_rounds(
    double seconds, const std::function<double(std::size_t)>& round,
    SetupClock& setup) {
  round(0);
  setup.sample();
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < 3 ||
         static_cast<double>(elapsed_ns(start)) < seconds * 1e9) {
    times.push_back(round(times.size() + 1));
    setup.sample();
  }
  return times;
}

/// Host ns per delivered message of the network alone: bursts in which
/// every process broadcasts once, delivered to a no-op handler — the event
/// queue plus SimNetwork with no protocol behind it. Repeats bursts until
/// about a million messages were delivered; median of five repeats.
double net_ns_per_delivery(ProcId n, const hyco::DelayConfig& delays,
                           std::uint64_t seed, SpanLog& spans) {
  const auto span = spans.open("net.replay");
  const std::uint64_t per_burst = static_cast<std::uint64_t>(n) * n;
  const std::uint64_t bursts = std::max<std::uint64_t>(1, 1'000'000 / per_burst);
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    hyco::Simulator sim(seed);
    sim.reserve_all_to_all(n);
    const auto model = hyco::make_delay_model(delays);
    hyco::CrashTracker tracker(static_cast<std::size_t>(n));
    hyco::SimNetwork net(sim, *model, tracker, n);
    std::uint64_t handled = 0;
    net.set_deliver([&handled](ProcId, ProcId, const hyco::Message&) {
      ++handled;
    });
    const hyco::Message m =
        hyco::Message::phase_msg(1, hyco::Phase::One, Estimate::One);
    const auto t0 = Clock::now();
    for (std::uint64_t b = 0; b < bursts; ++b) {
      for (ProcId p = 0; p < n; ++p) net.broadcast(p, m);
      sim.run();
    }
    ns.push_back(static_cast<double>(elapsed_ns(t0)) /
                 static_cast<double>(std::max<std::uint64_t>(1, handled)));
  }
  return median(ns);
}

ExperimentCell make_cell(std::size_t index, Algorithm alg, ClusterLayout layout,
                         std::uint64_t seed, std::uint64_t runs) {
  ExperimentCell c(std::move(layout));
  c.index = index;
  c.alg = alg;
  c.base_seed = seed;
  c.runs = runs;
  return c;
}

/// The proposals and the must-decide set of run k of a cell, from the cell
/// the benchmark built (not from the run's output).
ConsensusExpect expect_for(const ExperimentCell& cell, const RunConfig& cfg) {
  const ProcId n = cell.layout.n();
  ConsensusExpect e;
  e.inputs.resize(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    Estimate v = Estimate::Zero;
    switch (cell.inputs) {
      case hyco::InputKind::Split:
        v = p % 2 == 0 ? Estimate::Zero : Estimate::One;
        break;
      case hyco::InputKind::AllZero: v = Estimate::Zero; break;
      case hyco::InputKind::AllOne: v = Estimate::One; break;
    }
    e.inputs[static_cast<std::size_t>(p)] = v;
  }
  // A process must decide unless a crash is scripted for it or it goes
  // down for good; one that rejoins is correct at the end.
  e.must_decide.assign(static_cast<std::size_t>(n), 1);
  for (std::size_t p = 0; p < cfg.crashes.specs.size(); ++p) {
    if (cfg.crashes.specs[p].kind != hyco::CrashSpec::Kind::None) {
      e.must_decide[p] = 0;
    }
  }
  for (const hyco::RecoverySpec& rs : cell.scenario.config.recoveries) {
    if (rs.up_at != hyco::kSimTimeNever) continue;
    if (rs.whole_cluster) {
      for (const ProcId p : cell.layout.members(rs.id)) {
        e.must_decide[static_cast<std::size_t>(p)] = 0;
      }
    } else {
      e.must_decide[static_cast<std::size_t>(rs.id)] = 0;
    }
  }
  return e;
}

/// The simulated outcome of one consensus run, as a flat vector: equal
/// digests mean the run was reproduced exactly.
std::vector<std::uint64_t> digest(const RunResult& r) {
  std::vector<std::uint64_t> d = {
      r.decided_value ? static_cast<std::uint64_t>(*r.decided_value) : 9,
      static_cast<std::uint64_t>(r.max_decision_round),
      static_cast<std::uint64_t>(r.last_decision_time),
      static_cast<std::uint64_t>(r.end_time),
      r.events,
      r.net.unicasts_sent,
      r.net.delivered,
      r.net.dropped_lost,
      r.net.duplicated,
      r.net.held_partitioned,
      r.shm.consensus_proposals,
      r.consensus_objects,
      r.crashed,
      r.recovered};
  for (const hyco::ProcessStats& s : r.proc_stats) {
    d.push_back(s.phase_msgs_handled);
    d.push_back(static_cast<std::uint64_t>(s.rounds_entered));
  }
  return d;
}

/// Sums over the checked runs of a consensus workload.
struct ConsensusTotals {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t held = 0;
  std::uint64_t proposals = 0;
  std::uint64_t objects = 0;
  std::uint64_t rounds_entered = 0;
  std::uint64_t coin_flips = 0;
  std::uint64_t credited = 0;
  std::uint64_t decide_rounds = 0;
  std::vector<double> decide_times;

  void add(const RunResult& r) {
    ++runs;
    events += r.events;
    sent += r.net.unicasts_sent;
    delivered += r.net.delivered;
    lost += r.net.dropped_lost;
    duplicated += r.net.duplicated;
    held += r.net.held_partitioned;
    proposals += r.shm.consensus_proposals;
    objects += r.consensus_objects;
    decide_rounds += static_cast<std::uint64_t>(r.max_decision_round);
    decide_times.push_back(static_cast<double>(r.last_decision_time));
    for (const hyco::ProcessStats& s : r.proc_stats) {
      rounds_entered += static_cast<std::uint64_t>(s.rounds_entered);
      coin_flips += s.coin_flips;
      credited += s.phase_msgs_handled;
    }
  }
};

/// Host-side cost of the experiment layer (sink hand-off, checkpoint).
struct ExpStats {
  std::atomic<std::uint64_t> absorbs{0};
  std::atomic<std::uint64_t> absorb_ns{0};
  std::atomic<std::uint64_t> appends{0};
  std::atomic<std::uint64_t> append_ns{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::uint64_t checkpoint_bytes = 0;
};

/// RunSink decorator that times each absorb — the executor's hand-off of a
/// finished chunk — and sums the executor's per-chunk wall time.
class TimedSink final : public RunSink {
 public:
  TimedSink(RunSink& inner, ExpStats& stats, SpanLog& spans,
            std::uint64_t parent)
      : inner_(inner), stats_(stats), spans_(spans), parent_(parent) {}

  void absorb(std::uint64_t cell_pos, std::uint64_t begin, std::uint64_t end,
              CellAccumulator&& chunk,
              std::vector<hyco::RunRecord>&& records) override {
    const auto span = spans_.open("sink.absorb", parent_);
    const auto t0 = Clock::now();
    inner_.absorb(cell_pos, begin, end, std::move(chunk), std::move(records));
    stats_.absorb_ns += static_cast<std::uint64_t>(elapsed_ns(t0));
    ++stats_.absorbs;
  }
  void absorb_profile(std::uint64_t cell_pos,
                      const hyco::ChunkProfile& prof) override {
    stats_.busy_ns += prof.wall_ns;
    inner_.absorb_profile(cell_pos, prof);
  }
  void on_cell_complete(std::uint64_t cell_pos) override {
    inner_.on_cell_complete(cell_pos);
  }

 private:
  RunSink& inner_;
  ExpStats& stats_;
  SpanLog& spans_;
  std::uint64_t parent_;
};

/// One round's experiment layer: a streaming CollectingSink whose chunks
/// are appended to a checkpoint file, behind a TimedSink.
class ExpPipeline {
 public:
  ExpPipeline(const std::vector<ExperimentCell>& cells,
              const std::string& checkpoint_path, ExpStats& stats,
              SpanLog& spans)
      : path_(checkpoint_path),
        stats_(stats),
        spans_(&spans),
        file_(checkpoint_path, std::ios::trunc),
        collecting_(cells, make_options()),
        timed_(collecting_, stats, spans, SpanLog::current()) {
    hyco::write_checkpoint_header(
        file_, hyco::grid_fingerprint(cells, hyco::MetricStats::kDefaultReservoir,
                                      CellAccumulator::kDefaultFailureCap));
  }

  RunSink& sink() { return timed_; }

  /// Closes the checkpoint and returns the per-cell results.
  std::vector<CellResult> finish() {
    file_.close();
    stats_.checkpoint_bytes = std::filesystem::file_size(path_);
    return collecting_.take_results();
  }

 private:
  hyco::CollectingSink::Options make_options() {
    hyco::CollectingSink::Options o;
    o.on_chunk = [this](const ExperimentCell& cell, std::uint64_t begin,
                        std::uint64_t end, const CellAccumulator& acc) {
      const auto span = spans_->open("checkpoint.append");
      const auto t0 = Clock::now();
      hyco::append_checkpoint_chunk(file_, cell.index, begin, end, acc);
      stats_.append_ns += static_cast<std::uint64_t>(elapsed_ns(t0));
      ++stats_.appends;
    };
    return o;
  }

  std::string path_;
  ExpStats& stats_;
  SpanLog* spans_;
  std::ofstream file_;
  hyco::CollectingSink collecting_;
  TimedSink timed_;
};

/// Exact state of every cell's accumulator, in a canonical form: equal
/// strings mean identical simulated statistics. The serialized reservoir
/// lists its samples in merge order, so each "r" line's samples are sorted.
std::string results_state(const std::vector<CellResult>& results) {
  std::ostringstream os;
  for (const CellResult& r : results) {
    os << r.acc.runs << ' ' << r.acc.terminated << ' ' << r.acc.violations
       << '\n';
    std::ostringstream acc;
    hyco::write_accumulator_state(acc, r.acc);
    std::istringstream lines(acc.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("r ", 0) == 0) {
        std::istringstream words(line);
        std::vector<std::string> w{std::istream_iterator<std::string>(words),
                                   std::istream_iterator<std::string>()};
        if (w.size() > 4) std::sort(w.begin() + 4, w.end());
        line.clear();
        for (const std::string& x : w) line += x + ' ';
      }
      os << line << '\n';
    }
  }
  return os.str();
}

/// `threads` workers were busy for `busy_ns` of `wall_s` timed seconds.
void report_exp_layer(Outcome& out, const ExpStats& s, unsigned threads,
                      double wall_s) {
  out.layer("exp.absorb_us_per_chunk",
            mean(static_cast<double>(s.absorb_ns.load()) / 1e3, s.absorbs), "us");
  out.layer("exp.checkpoint_us_per_append",
            mean(static_cast<double>(s.append_ns.load()) / 1e3, s.appends),
            "us");
  out.layer("exp.checkpoint_bytes", static_cast<double>(s.checkpoint_bytes),
            "bytes");
  out.layer("exp.worker_busy_share",
            static_cast<double>(s.busy_ns.load()) / 1e9 / (threads * wall_s),
            "ratio");
}

/// Experiment-layer rows on a workload that calls the runners directly:
/// no executor, sink or checkpoint is involved, so every row is zero.
void report_no_exp(Outcome& out) {
  out.layer("exp.absorb_us_per_chunk", 0.0, "us");
  out.layer("exp.checkpoint_us_per_append", 0.0, "us");
  out.layer("exp.checkpoint_bytes", 0.0, "bytes");
  out.layer("exp.worker_busy_share", 0.0, "ratio");
}

/// The sim/net/core/shm rows every workload reports, plus the decide rows
/// of single-instance consensus (zero on the service, which runs many
/// embedded instances); `t` holds the runs the counts are taken over.
void report_consensus_layers(Outcome& out, const ConsensusTotals& t,
                             double setup_s_per_run, double loop_ns,
                             double net_ns, bool single_instance) {
  const auto per_run = [&](std::uint64_t v) {
    return mean(static_cast<double>(v), t.runs);
  };
  out.layer("mem.peak_rss_mb", peak_rss_mb(), "MB");
  out.layer("sim.events_per_run", per_run(t.events), "count");
  out.layer("net.ns_per_delivery", net_ns, "ns");
  out.layer("net.delivered_per_run", per_run(t.delivered), "count");
  out.layer("net.lost_per_run", per_run(t.lost), "count");
  out.layer("net.duplicated_per_run", per_run(t.duplicated), "count");
  out.layer("net.held_per_run", per_run(t.held), "count");
  out.layer("core.setup_us_per_run", setup_s_per_run * 1e6, "us");
  out.layer("core.loop_ns_per_msg", loop_ns, "ns");
  out.layer("core.handler_ns_per_msg", loop_ns - net_ns, "ns");
  out.layer("core.credited_per_delivery",
            mean(static_cast<double>(t.credited), t.delivered), "ratio");
  out.layer("core.rounds_entered_per_run", per_run(t.rounds_entered), "count");
  out.layer("core.coin_flips_per_run", per_run(t.coin_flips), "count");
  out.layer("shm.proposals_per_run", per_run(t.proposals), "count");
  out.layer("shm.objects_per_run", per_run(t.objects), "count");
  const double on = single_instance ? 1.0 : 0.0;
  out.layer("model.decide_rounds_mean", on * per_run(t.decide_rounds),
            "rounds");
  out.layer("model.decide_sim_us_p50", on * median(t.decide_times) / 1e3,
            "us");
  out.layer("model.msgs_per_decision", on * per_run(t.sent), "msgs");
}

/// Service rows on a consensus-only workload: the service layer does no
/// work there, so every count and mean is zero.
void report_no_service(Outcome& out) {
  for (const char* name :
       {"service.slots", "service.ops_per_batch", "service.msgs_per_op"}) {
    out.layer(name, 0.0, "count");
  }
  for (const char* name :
       {"service.batch_wait_sim_us", "service.seq_wait_sim_us",
        "service.consensus_sim_us", "service.host_us_per_slot",
        "model.svc_lat_p50_sim_us", "model.svc_lat_p99_sim_us"}) {
    out.layer(name, 0.0, "us");
  }
  out.layer("model.svc_sim_ops_per_s", 0.0, "1/s");
}

/// Runs `cfgs` on `threads` threads of the benchmark's own (not the
/// executor's), calling `done(i, result, wall_ns)` for each under a lock.
void direct_runs(const std::vector<RunConfig>& cfgs, unsigned threads,
                 SpanLog& spans,
                 const std::function<void(std::size_t, RunResult&&,
                                          std::int64_t)>& done) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const std::uint64_t parent = SpanLog::current();
  const auto worker = [&] {
    for (std::size_t i = next++; i < cfgs.size(); i = next++) {
      const auto span = spans.open("run_consensus", parent);
      const auto t0 = Clock::now();
      RunResult r = hyco::run_consensus(cfgs[i]);
      const std::int64_t ns = elapsed_ns(t0);
      const std::lock_guard<std::mutex> lock(mu);
      done(i, std::move(r), ns);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

/// Builds every world of `cfgs` once, each run with max_events = 0.
std::function<void()> consensus_builds(std::vector<RunConfig> cfgs,
                                       SpanLog& spans) {
  for (RunConfig& c : cfgs) c.max_events = 0;
  return [cfgs = std::move(cfgs), &spans] {
    for (const RunConfig& c : cfgs) {
      const auto span = spans.open("run_consensus.zero_event");
      const RunResult r = hyco::run_consensus(c);
      (void)r;
    }
  };
}

/// Checks every run of a consensus round and its negative tests. A run
/// that breaks agreement, validity or termination is a failed operation
/// (reported on stderr); a negative test the checks do not catch is an
/// error. Returns the number of failed runs.
std::uint64_t check_runs(Outcome& out, const std::vector<ExperimentCell>& cells,
                         const std::vector<RunConfig>& cfgs,
                         const std::vector<std::size_t>& cell_of,
                         const std::vector<RunResult>& results) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConsensusExpect e = expect_for(cells[cell_of[i]], cfgs[i]);
    const auto errors = check_consensus(e, results[i].decisions);
    if (!errors.empty()) {
      ++bad;
      std::cerr << "FAILED: " << cells[cell_of[i]].label() << " seed "
                << cfgs[i].seed << ": " << errors.front() << '\n';
    }
    // The negative tests run on the first run of every cell.
    if (i == 0 || cell_of[i] != cell_of[i - 1]) {
      for (const std::string& m : negative_consensus(e, results[i].decisions)) {
        out.error("negative test on " + cells[cell_of[i]].label() + ": " + m);
      }
    }
  }
  return bad;
}

std::string path_in(const Options& o, const std::string& name) {
  return (std::filesystem::path(o.work_dir) / name).string();
}

/// Odd rounds run with spans recorded, even rounds without; `times` holds
/// rounds 1, 2, ...
void trace_overhead(Outcome& out, const std::vector<double>& times) {
  std::vector<double> on;
  std::vector<double> off;
  for (std::size_t i = 0; i < times.size(); ++i) {
    (i % 2 == 0 ? on : off).push_back(times[i]);
  }
  out.layer("trace.overhead_pct", (median(on) / median(off) - 1.0) * 100.0,
            "%");
}

}  // namespace

// ---------------------------------------------------------------------------

Outcome run_consensus_large(const Options& o, SpanLog& spans) {
  // Round r runs the cell's runs 4r .. 4r+3: every round is new work, so
  // the figures average over many seeded runs rather than repeating four.
  constexpr std::uint64_t kRunsPerRound = 4;
  // The per-layer counts and simulated figures cover the first four
  // rounds, which every invocation runs, so they are exact for a seed.
  constexpr std::uint64_t kCountedRuns = 4 * kRunsPerRound;
  Outcome out;
  const auto wspan = spans.open("workload.consensus-large");
  const std::vector<ExperimentCell> cells = {
      make_cell(0, Algorithm::HybridCommonCoin, ClusterLayout::even(1024, 32),
                o.seed, std::numeric_limits<std::uint64_t>::max())};
  const ExperimentCell& cell = cells[0];
  const auto round_configs = [&](std::size_t round) {
    std::vector<RunConfig> cfgs;
    for (std::uint64_t k = 0; k < kRunsPerRound; ++k) {
      cfgs.push_back(cell.run_config(round * kRunsPerRound + k));
    }
    return cfgs;
  };

  // Four n=1024 worlds take about 1.5 ms to build; 16 builds make a pass.
  SetupClock setup(16, consensus_builds(round_configs(0), spans));
  ConsensusTotals counted;
  std::uint64_t delivered = 0;
  double run_s = 0;
  std::uint64_t bad = 0;
  std::vector<double> ns_per_msg;  // of rounds 1, 2, ...
  std::vector<std::uint64_t> first_digest;
  const bool tracing = spans.recording();
  const auto times = timed_rounds(
      o.seconds,
      [&](std::size_t round) {
        spans.set_recording(tracing && round % 2 == 1);
        const auto rspan = spans.open("round");
        const std::vector<RunConfig> cfgs = round_configs(round);
        const std::vector<std::size_t> cell_of(cfgs.size(), 0);
        std::vector<RunResult> results;
        double round_s = 0;
        std::uint64_t round_delivered = 0;
        for (const RunConfig& cfg : cfgs) {
          const auto span = spans.open("run_consensus");
          const auto t0 = Clock::now();
          results.push_back(hyco::run_consensus(cfg));
          round_s += static_cast<double>(elapsed_ns(t0)) / 1e9;
          round_delivered += results.back().net.delivered;
        }
        // Checks, outside the timed region.
        bad += check_runs(out, cells, cfgs, cell_of, results);
        if (round == 0) {
          first_digest = digest(results[0]);
        } else {
          ns_per_msg.push_back(round_s * 1e9 /
                               static_cast<double>(round_delivered));
        }
        for (const RunResult& r : results) {
          if (counted.runs < kCountedRuns) counted.add(r);
        }
        delivered += round_delivered;
        run_s += round_s;
        out.attempted += cfgs.size();
        return round_s;
      },
      setup);
  spans.set_recording(tracing);
  out.failed = bad;
  const double setup_s = setup.settle(0.1 * o.seconds);

  // Determinism: the first run, run again, must reproduce itself exactly.
  {
    const auto span = spans.open("check.rerun");
    if (digest(hyco::run_consensus(cell.run_config(0))) != first_digest) {
      out.error("run 0 differs when run again");
    }
  }

  out.e2e("setup_s", setup_s, "s");
  out.e2e("msgs_per_s", static_cast<double>(delivered) / run_s, "1/s");
  if (tracing) {
    const double loop_ns =
        (run_s * 1e9 - setup_s / kRunsPerRound * 1e9 *
                           static_cast<double>(out.attempted)) /
        static_cast<double>(delivered);
    const double net_ns =
        net_ns_per_delivery(1024, cell.delay.config, o.seed, spans);
    report_consensus_layers(out, counted, setup_s / kRunsPerRound, loop_ns,
                            net_ns, true);
    report_no_exp(out);
    report_no_service(out);
    out.layer("host.runs_per_s", static_cast<double>(out.attempted) / run_s,
              "1/s");
    out.layer("host.svc_ops_per_s", 0.0, "1/s");
    trace_overhead(out, ns_per_msg);
  }
  return out;
}

Outcome run_consensus_faulty(const Options& o, SpanLog& spans) {
  constexpr std::uint64_t kRunsPerCell = 40;
  constexpr unsigned kThreads = 2;
  Outcome out;
  const auto wspan = spans.open("workload.consensus-faulty");

  hyco::ScenarioConfig scn;
  scn.link.loss = 0.05;
  scn.link.dup = 0.05;
  scn.link.reorder_max = 100;
  scn.partitions.push_back(hyco::parse_partition_spec("cluster:0@200..2000"));
  scn.recoveries.push_back(hyco::parse_recovery_spec("1@100..3000"));
  const std::uint64_t seed = o.seed;
  // The crash plans of `sweep --crash=minority,mid-broadcast`.
  const hyco::CrashAxis crashes[] = {
      hyco::CrashAxis::of("minority",
                          [seed](const ClusterLayout& l) {
                            hyco::Rng rng(hyco::mix64(seed, 0xC8A5));
                            return hyco::failure_patterns::random_minority(
                                       l, rng, 300)
                                .plan;
                          }),
      hyco::CrashAxis::of("mid-broadcast", [seed](const ClusterLayout& l) {
        hyco::Rng rng(hyco::mix64(seed, 0xC8A7));
        const ProcId count = std::max<ProcId>(1, l.n() / 4);
        return hyco::failure_patterns::mid_broadcast(l, count, 1, rng).plan;
      })};
  const hyco::InputKind unanimous =
      seed % 2 == 0 ? hyco::InputKind::AllZero : hyco::InputKind::AllOne;

  std::vector<ExperimentCell> cells;
  for (const Algorithm alg :
       {Algorithm::HybridLocalCoin, Algorithm::HybridCommonCoin}) {
    for (const hyco::ClusterId m : {4, 8}) {
      for (const hyco::CrashAxis& crash : crashes) {
        for (const hyco::InputKind inputs :
             {hyco::InputKind::Split, unanimous}) {
          ExperimentCell c = make_cell(cells.size(), alg,
                                       ClusterLayout::even(32, m), seed,
                                       kRunsPerCell);
          c.crash = crash;
          c.scenario = hyco::ScenarioAxis::of(scn);
          c.inputs = inputs;
          hyco::validate_scenario(scn, c.layout);
          cells.push_back(std::move(c));
        }
      }
    }
  }
  std::vector<RunConfig> cfgs;
  std::vector<std::size_t> cell_of;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::uint64_t k = 0; k < cells[c].runs; ++k) {
      cfgs.push_back(cells[c].run_config(k));
      cell_of.push_back(c);
    }
  }

  // 640 n=32 worlds take about 30 ms to build: one build is a pass.
  SetupClock setup(1, consensus_builds(cfgs, spans));

  // One executor pass over the grid. Stores the host seconds of the
  // executor run and the checkpoint's close in `host_s`, and returns the
  // exact accumulator state, serialized outside that timed region.
  const auto pass = [&](unsigned threads, ExpStats& stats, double& host_s) {
    const auto span = spans.open("executor.run");
    ExpPipeline pipe(cells, path_in(o, "consensus-faulty.ckpt"), stats, spans);
    hyco::ParallelExecutor::Options eo;
    eo.threads = threads;
    eo.chunk_size = 8;
    eo.profile = true;
    const auto t0 = Clock::now();
    hyco::ParallelExecutor(eo).run(cells, pipe.sink());
    std::vector<CellResult> results = pipe.finish();
    host_s = static_cast<double>(elapsed_ns(t0)) / 1e9;
    return results_state(results);
  };

  ExpStats exp;
  std::string state;
  const bool tracing = spans.recording();
  const auto times = timed_rounds(
      o.seconds,
      [&](std::size_t round) {
        spans.set_recording(tracing && round % 2 == 1);
        const auto rspan = spans.open("round");
        ExpStats warm;
        double host_s = 0;
        const std::string s = pass(kThreads, round == 0 ? warm : exp, host_s);
        if (round == 0) {
          state = s;
        } else if (s != state) {
          out.error("executor pass " + std::to_string(round) +
                    " differs from pass 0");
        }
        return host_s;
      },
      setup);
  spans.set_recording(tracing);
  const double setup_s = setup.settle(0.1 * o.seconds);

  // Determinism across thread counts: one pass on a single worker.
  {
    ExpStats one;
    double host_s = 0;
    if (pass(1, one, host_s) != state) {
      out.error("executor results differ between 1 and 2 threads");
    }
  }

  // Correctness: the same runs again, called directly so every decision is
  // visible, checked, and folded into accumulators that must equal the
  // executor's.
  std::vector<RunResult> results(cfgs.size());
  double run_ns = 0;
  {
    const auto span = spans.open("check.direct_runs");
    direct_runs(cfgs, kThreads, spans,
                [&](std::size_t i, RunResult&& r, std::int64_t ns) {
                  results[i] = std::move(r);
                  run_ns += static_cast<double>(ns);
                });
  }
  const std::uint64_t bad = check_runs(out, cells, cfgs, cell_of, results);
  std::vector<CellResult> direct;
  for (const ExperimentCell& c : cells) direct.emplace_back(c);
  ConsensusTotals t;
  for (std::size_t i = 0, k = 0; i < results.size(); ++i, ++k) {
    if (i > 0 && cell_of[i] != cell_of[i - 1]) k = 0;
    direct[cell_of[i]].acc.add(
        hyco::extract_record(k, cfgs[i].seed, results[i]));
    t.add(results[i]);
  }
  for (CellResult& r : direct) r.acc.finalize();
  if (results_state(direct) != state) {
    out.error("executor results differ from the directly checked runs");
  }
  // The grid ran in every timed pass, the warm-up, the 1-thread pass and
  // the direct pass; each executor pass reproduces the checked direct
  // runs, so a run fails in every pass exactly when it fails in that one.
  const std::uint64_t passes = times.size() + 3;
  out.attempted = passes * cfgs.size();
  out.failed = passes * bad;

  const double host_s = median(times);
  out.e2e("setup_s", setup_s, "s");
  out.e2e("msgs_per_s", static_cast<double>(t.delivered) / host_s, "1/s");
  if (tracing) {
    const double loop_ns =
        (run_ns - setup_s * 1e9) / static_cast<double>(t.delivered);
    const double net_ns =
        net_ns_per_delivery(32, cells[0].delay.config, o.seed, spans);
    report_consensus_layers(out, t,
                            setup_s / static_cast<double>(cfgs.size()),
                            loop_ns, net_ns, true);
    report_exp_layer(out, exp, kThreads, sum(times));
    report_no_service(out);
    out.layer("host.runs_per_s", static_cast<double>(t.runs) / host_s, "1/s");
    out.layer("host.svc_ops_per_s", 0.0, "1/s");
    trace_overhead(out, times);
  }
  return out;
}

Outcome run_service_closed(const Options& o, SpanLog& spans) {
  Outcome out;
  const auto wspan = spans.open("workload.service-closed");
  // Round r is service run r of the cell. The run seed moves a run's
  // length by nearly twofold and its per-message cost with it, so every
  // round is new work and the host figures average over the runs.
  ExperimentCell cell(ClusterLayout::even(8, 2));
  cell.runs = std::numeric_limits<std::uint64_t>::max();
  cell.base_seed = o.seed;
  cell.service = hyco::ServiceAxis::of(2000, 50, 64, 50'000, 0.0);
  const hyco::ServiceRunConfig cfg = cell.service_run_config(0);
  const ServiceExpect expect{cfg.clients * cfg.ops_per_client};

  hyco::ServiceRunConfig zero = cfg;
  zero.max_events = 0;
  // One world takes about 0.2 ms to build; 128 builds make a pass.
  SetupClock setup(128, [&] {
    const auto span = spans.open("run_service.zero_event");
    const hyco::ServiceRunResult r = hyco::run_service(zero);
    (void)r;
  });

  const auto run = [&](const hyco::ServiceRunConfig& c, double& host_s) {
    const auto span = spans.open("run_service");
    const auto t0 = Clock::now();
    hyco::ServiceRunResult r = hyco::run_service(c);
    host_s = static_cast<double>(elapsed_ns(t0)) / 1e9;
    return r;
  };
  hyco::ServiceRunResult first;
  std::uint64_t delivered = 0;
  std::uint64_t slots = 0;
  double run_s = 0;
  std::vector<double> ns_per_msg;  // of rounds 1, 2, ...
  const bool tracing = spans.recording();
  const auto times = timed_rounds(
      o.seconds,
      [&](std::size_t round) {
        spans.set_recording(tracing && round % 2 == 1);
        const auto rspan = spans.open("round");
        double host_s = 0;
        hyco::ServiceRunResult r = run(cell.service_run_config(round), host_s);
        // A run that breaks any check cannot vouch for its log: all its
        // ops count as failed.
        const std::vector<std::string> faults = check_service(expect, r);
        for (const std::string& f : faults) {
          std::cerr << "FAILED: run " << round << ": " << f << '\n';
        }
        out.attempted += expect.ops;
        if (!faults.empty()) out.failed += expect.ops;
        delivered += r.net.delivered;
        slots += r.slots;
        run_s += host_s;
        if (round == 0) {
          first = std::move(r);
        } else {
          ns_per_msg.push_back(host_s * 1e9 /
                               static_cast<double>(r.net.delivered));
        }
        return host_s;
      },
      setup);
  spans.set_recording(tracing);
  const double setup_s = setup.settle(0.1 * o.seconds);

  for (const std::string& m : negative_service(expect, first)) {
    out.error("negative test: " + m);
  }
  // Determinism: the first run, run again, must reproduce itself exactly.
  {
    const auto span = spans.open("check.rerun");
    double host_s = 0;
    const hyco::ServiceRunResult again = run(cfg, host_s);
    if (again.slot_logs != first.slot_logs ||
        again.latency.raw_sum() != first.latency.raw_sum() ||
        again.seq_wait.raw_sum() != first.seq_wait.raw_sum() ||
        again.end_time != first.end_time || again.events != first.events ||
        again.net.unicasts_sent != first.net.unicasts_sent) {
      out.error("service run 0 differs when run again");
    }
  }

  out.e2e("setup_s", setup_s, "s");
  out.e2e("msgs_per_s", static_cast<double>(delivered) / run_s, "1/s");
  if (tracing) {
    // Counts and simulated figures are those of run 0, exact for a seed.
    // The service runner exposes no per-process stats: the rounds, coin
    // and credit rows stay zero.
    const hyco::ServiceRunResult& r = first;
    ConsensusTotals t;
    t.runs = 1;
    t.events = r.events;
    t.sent = r.net.unicasts_sent;
    t.delivered = r.net.delivered;
    t.lost = r.net.dropped_lost;
    t.duplicated = r.net.duplicated;
    t.held = r.net.held_partitioned;
    t.proposals = r.shm.consensus_proposals;
    t.objects = r.consensus_objects;
    const double runs = static_cast<double>(times.size() + 1);
    const double loop_ns =
        (run_s - runs * setup_s) * 1e9 / static_cast<double>(delivered);
    const double net_ns = net_ns_per_delivery(8, cfg.delays, o.seed, spans);
    report_consensus_layers(out, t, setup_s, loop_ns, net_ns, false);
    report_no_exp(out);
    const double ops = static_cast<double>(r.ops_completed);
    out.layer("service.slots", static_cast<double>(r.slots), "count");
    out.layer("service.ops_per_batch", mean(ops, r.batches), "count");
    out.layer("service.msgs_per_op",
              mean(static_cast<double>(r.net.unicasts_sent), r.ops_completed),
              "count");
    out.layer("service.batch_wait_sim_us", r.batch_wait.mean() / 1e3, "us");
    out.layer("service.seq_wait_sim_us", r.seq_wait.mean() / 1e3, "us");
    out.layer("service.consensus_sim_us", r.consensus.mean() / 1e3, "us");
    out.layer("service.host_us_per_slot", mean(run_s * 1e6, slots), "us");
    out.layer("model.svc_lat_p50_sim_us", r.latency_hist.percentile(50) / 1e3,
              "us");
    out.layer("model.svc_lat_p99_sim_us", r.latency_hist.percentile(99) / 1e3,
              "us");
    out.layer("model.svc_sim_ops_per_s", static_cast<double>(r.ops_per_sec()),
              "1/s");
    out.layer("host.runs_per_s", runs / run_s, "1/s");
    out.layer("host.svc_ops_per_s",
              static_cast<double>(out.attempted - out.failed) / run_s, "1/s");
    trace_overhead(out, ns_per_msg);
  }
  return out;
}

}  // namespace e2ebench
