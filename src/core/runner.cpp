#include "core/runner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "baseline/ben_or.h"
#include "coin/coin.h"
#include "core/common_coin_process.h"
#include "core/invariant_checker.h"
#include "core/local_coin_process.h"
#include "core/sim_world.h"
#include "obs/observer.h"
#include "obs/phase_timings.h"
#include "obs/trace_observer.h"
#include "scenario/engine.h"
#include "shm/cluster_memory.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {

const char* to_cstring(Algorithm a) {
  switch (a) {
    case Algorithm::HybridLocalCoin: return "hybrid-LC";
    case Algorithm::HybridCommonCoin: return "hybrid-CC";
    case Algorithm::BenOr: return "ben-or";
  }
  return "?";
}

std::vector<Estimate> split_inputs(ProcId n) {
  std::vector<Estimate> in(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    in[static_cast<std::size_t>(p)] = estimate_from_bit(p % 2);
  }
  return in;
}

std::vector<Estimate> uniform_inputs(ProcId n, Estimate v) {
  HYCO_CHECK(is_binary(v));
  return std::vector<Estimate>(static_cast<std::size_t>(n), v);
}

ConsensusProcs::ConsensusProcs(SimWorld& world,
                               const std::vector<Estimate>& inputs)
    : world_(world), inputs_(inputs) {
  const auto n = static_cast<std::size_t>(world_.n());
  procs_.reserve(n);
  started_.assign(n, 0);
  result_.decisions.assign(n, std::nullopt);
  result_.decision_rounds.assign(n, 0);
  world_.net().set_deliver([this](ProcId to, ProcId from, const Message& m) {
    auto& proc = *procs_[static_cast<std::size_t>(to)];
    const bool was_decided = proc.decided();
    proc.on_message(from, m);
    if (!was_decided && proc.decided()) {
      result_.last_decision_time = world_.sim().now();
    }
  });
}

void ConsensusProcs::add(std::unique_ptr<IConsensusProcess> proc) {
  procs_.push_back(std::move(proc));
}

void ConsensusProcs::rejoin(ProcId p) {
  const auto idx = static_cast<std::size_t>(p);
  for (auto& proc : procs_) proc->on_peer_recover(p);
  if (started_[idx] == 0) {
    started_[idx] = 1;
    procs_[idx]->start(inputs_[idx]);
  } else {
    procs_[idx]->on_recover();
  }
}

void ConsensusProcs::schedule_starts(std::uint64_t seed, SimTime jitter) {
  const ScenarioEngine* scenario = world_.scenario();
  Rng start_rng(mix64(seed, 0x57A7));
  for (ProcId p = 0; p < world_.n(); ++p) {
    SimTime at = jitter > 0 ? start_rng.uniform(0, jitter) : 0;
    if (scenario != nullptr) {
      const double f = scenario->speed_factor(p);
      if (f != 1.0) {
        at = static_cast<SimTime>(std::llround(static_cast<double>(at) * f));
      }
    }
    world_.sim().schedule_at(at, [this, p] {
      const auto idx = static_cast<std::size_t>(p);
      if (world_.tracker().is_crashed(p) || started_[idx] != 0) return;
      started_[idx] = 1;
      procs_[idx]->start(inputs_[idx]);
    });
  }
}

RunResult ConsensusProcs::run(std::uint64_t max_events) {
  result_.stop = world_.sim().run(max_events);
  const CrashTracker& tracker = world_.tracker();
  result_.end_time = world_.sim().now();
  result_.events = world_.sim().events_executed();
  result_.crashed = tracker.crashed_count();
  result_.recovered = tracker.recovered_count();
  result_.net = world_.net().stats();

  bool all_correct_decided = true;
  for (ProcId p = 0; p < world_.n(); ++p) {
    const auto idx = static_cast<std::size_t>(p);
    const auto& proc = *procs_[idx];
    result_.proc_stats.push_back(proc.stats());
    result_.max_round = std::max(result_.max_round, proc.current_round());
    if (proc.decided()) {
      result_.decisions[idx] = proc.decision();
      result_.decision_rounds[idx] = proc.decision_round();
      result_.max_decision_round =
          std::max(result_.max_decision_round, proc.decision_round());
      if (!result_.decided_value.has_value()) {
        result_.decided_value = proc.decision();
      } else if (*result_.decided_value != *proc.decision()) {
        result_.agreement_ok = false;
        std::ostringstream os;
        os << "AGREEMENT violated: p" << p << " decided " << *proc.decision()
           << " vs earlier " << *result_.decided_value;
        result_.violations.push_back(os.str());
      }
    } else if (!tracker.is_crashed(p)) {
      all_correct_decided = false;
    }
  }
  result_.all_correct_decided = all_correct_decided;

  if (result_.decided_value.has_value()) {
    const bool proposed = std::find(inputs_.begin(), inputs_.end(),
                                    *result_.decided_value) != inputs_.end();
    if (!proposed) {
      result_.validity_ok = false;
      result_.violations.push_back("VALIDITY violated: decided value "
                                   "was never proposed");
    }
  }
  return std::move(result_);
}

RunResult run_consensus(const RunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  std::vector<Estimate> split;
  const std::vector<Estimate>& inputs =
      cfg.inputs.empty() ? (split = split_inputs(n)) : cfg.inputs;
  HYCO_CHECK_MSG(inputs.size() == static_cast<std::size_t>(n),
                 "inputs size " << inputs.size() << " != n " << n);

  // Record into the caller's ring when one is supplied (structured export
  // keeps the records); otherwise a run-local ring backs trace_dump. With
  // tracing off the world gets no trace at all, so call sites skip even
  // the detail-string formatting.
  std::unique_ptr<Trace> local_trace;
  Trace* trace = nullptr;
  if (cfg.enable_trace) {
    if (cfg.trace_sink == nullptr) local_trace = std::make_unique<Trace>();
    trace = cfg.trace_sink != nullptr ? cfg.trace_sink : local_trace.get();
  }
  SimWorld world(cfg.layout, cfg.seed, cfg.delays, cfg.delay_factory,
                 cfg.crashes, cfg.scenario, trace);

  InvariantChecker checker(cfg.layout);
  checker.set_inputs(inputs);

  // Cluster memories (hybrid algorithms only touch their own cluster's).
  std::vector<std::unique_ptr<ClusterMemory>> memories;
  if (cfg.alg != Algorithm::BenOr) {
    memories.reserve(static_cast<std::size_t>(cfg.layout.m()));
    for (ClusterId x = 0; x < cfg.layout.m(); ++x) {
      memories.push_back(std::make_unique<ClusterMemory>(x, n, cfg.shm_impl));
    }
  }

  // The common coin (Algorithm 3). BiasedCommonCoin models an imperfect
  // coin for the T-ADV ablation.
  std::unique_ptr<ICommonCoin> common_coin;
  if (cfg.alg == Algorithm::HybridCommonCoin) {
    const std::uint64_t coin_seed = mix64(cfg.seed, 0xC01C01);
    if (cfg.coin_epsilon > 0.0) {
      common_coin = std::make_unique<BiasedCommonCoin>(
          coin_seed, cfg.coin_epsilon,
          [bit = cfg.adversary_bit](Round) { return bit; });
    } else {
      common_coin = std::make_unique<CommonCoin>(coin_seed);
    }
  }

  ConsensusProcs procs(world, inputs);
  for (ProcId p = 0; p < n; ++p) {
    const std::uint64_t coin_seed =
        mix64(cfg.seed, 0x10CA1 + static_cast<std::uint64_t>(p));
    switch (cfg.alg) {
      case Algorithm::HybridLocalCoin:
        procs.add(std::make_unique<LocalCoinProcess>(
            p, cfg.layout, world.net(),
            *memories[static_cast<std::size_t>(cfg.layout.cluster_of(p))],
            coin_seed, &checker, cfg.max_rounds));
        break;
      case Algorithm::HybridCommonCoin:
        procs.add(std::make_unique<CommonCoinProcess>(
            p, cfg.layout, world.net(),
            *memories[static_cast<std::size_t>(cfg.layout.cluster_of(p))],
            *common_coin, &checker, cfg.max_rounds));
        break;
      case Algorithm::BenOr:
        procs.add(std::make_unique<BenOrProcess>(p, n, world.net(), coin_seed,
                                                 cfg.max_rounds));
        break;
    }
  }

  // Per-phase latency observer (opt-in) and/or trace mirror. Both read
  // sim.now() but never mutate simulation state, so instrumented runs are
  // byte-identical. When both are requested they share the processes'
  // single observer slot through a fanout.
  Simulator& sim = world.sim();
  std::unique_ptr<obs::PhaseTimings> timings;
  std::unique_ptr<obs::TraceObserver> trace_obs;
  std::unique_ptr<obs::ObserverFanout> fanout;
  if (cfg.collect_obs) {
    timings = std::make_unique<obs::PhaseTimings>(
        n, [&sim] { return sim.now(); });
  }
  if (trace != nullptr) {
    trace_obs = std::make_unique<obs::TraceObserver>(
        *trace, [&sim] { return sim.now(); });
  }
  obs::IRunObserver* observer = nullptr;
  if (timings != nullptr && trace_obs != nullptr) {
    fanout = std::make_unique<obs::ObserverFanout>(timings.get(),
                                                   trace_obs.get());
    observer = fanout.get();
  } else if (timings != nullptr) {
    observer = timings.get();
  } else if (trace_obs != nullptr) {
    observer = trace_obs.get();
  }
  if (observer != nullptr) {
    for (const auto& proc : procs.all()) proc->set_observer(observer);
  }

  world.schedule_faults([&procs](ProcId p) { procs.rejoin(p); });

  // Decide-reply and catch-up gossip keep scenario runs live (see
  // RunConfig::scenario).
  if (world.scenario() != nullptr) {
    for (const auto& proc : procs.all()) proc->set_scenario_assist(true);
  }

  // Every live process invokes propose(v_p) at its own start time.
  procs.schedule_starts(cfg.seed, cfg.start_jitter);

  RunResult result = procs.run(cfg.max_events);

  if (!checker.ok()) {
    result.invariants_ok = false;
    for (const auto& v : checker.violations()) result.violations.push_back(v);
  }
  for (const auto& mem : memories) {
    result.shm += mem->counts();
    result.consensus_objects += mem->objects_created();
  }

  // Message-class counters are free (already tallied by the network and the
  // processes); phase timings only exist under collect_obs.
  result.obs[obs::ObsId::kDelivered] = result.net.delivered;
  result.obs[obs::ObsId::kDroppedPartitioned] = result.net.dropped_partitioned;
  result.obs[obs::ObsId::kDroppedLost] = result.net.dropped_lost;
  result.obs[obs::ObsId::kDuplicated] = result.net.duplicated;
  result.obs[obs::ObsId::kHeldPartitioned] = result.net.held_partitioned;
  std::uint64_t coin_flips = 0;
  for (const ProcessStats& ps : result.proc_stats) coin_flips += ps.coin_flips;
  result.obs[obs::ObsId::kCoinFlips] = coin_flips;
  result.obs[obs::ObsId::kRounds] =
      static_cast<std::uint64_t>(result.max_decision_round);
  if (timings != nullptr) timings->fill(result.obs);

  if (trace != nullptr) {
    std::ostringstream os;
    trace->dump(os);
    result.trace_dump = os.str();
  }
  return result;
}

}  // namespace hyco
