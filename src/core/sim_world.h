// SimWorld — the paper's system model, built once for every runner.
//
// n asynchronous processes exchange messages over reliable channels, and
// any of them may crash. A world holds exactly that: the simulator (virtual
// clock, event queue, seeded RNG), the crash plan and the tracker of who is
// down, the delay model (wrapped in the scenario's faulty channel when a
// scenario is given) and the network over it, plus an optional trace. The
// runners (run_consensus, run_service, run_tob, run_multivalued, run_mm,
// run_register_workload) build one world, wire their processes into net(),
// call schedule_faults(), schedule their own starts or traffic, and run
// sim(). Shared memory stays with the runners: each algorithm family shapes
// its own (cluster memories, memory pools, m&m domains, register state).
//
// The world also owns the one up-front resource check (process count and
// crash-plan size), done before anything is allocated, and the one
// schedule of timed crashes and scenario crash/rejoin cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/cluster_layout.h"
#include "core/types.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

class Trace;

class SimWorld {
 public:
  /// Optional delay-model override (RunConfig / ServiceRunConfig).
  using DelayFactory = std::function<std::unique_ptr<DelayModel>()>;

  /// Largest process count a world accepts. Simulator::reserve_all_to_all
  /// pre-sizes one 4-byte free-list slot per in-flight delivery, n² + 2n of
  /// them, so 16384 processes reserve 1 GiB before the first event (n =
  /// 4096 reserves 64 MiB). Past this bound the reservation alone would
  /// exhaust memory, so it is refused before anything is allocated.
  static constexpr ProcId kMaxProcs = 16384;

  /// Throws ContractViolation unless 1 <= n <= kMaxProcs and `crashes` is
  /// empty (nobody crashes) or holds one spec per process. Allocates
  /// nothing; the constructors run it first.
  static void check(ProcId n, const CrashPlan& crashes);

  /// A plain world: configured delays, no scenario, no trace.
  SimWorld(ProcId n, std::uint64_t seed, const DelayConfig& delays,
           const CrashPlan& crashes);

  /// The full world of consensus and service runs. A non-empty
  /// `delay_factory` replaces `delays`; a non-empty `scenario` wraps the
  /// delay model in its faulty channel and installs its partition and
  /// loss hooks (ids resolved against `layout`); a non-null `trace` is
  /// enabled and records network events. The trace must outlive the world.
  SimWorld(const ClusterLayout& layout, std::uint64_t seed,
           const DelayConfig& delays, const DelayFactory& delay_factory,
           const CrashPlan& crashes, const ScenarioConfig& scenario,
           Trace* trace);

  // Not copyable or movable: the network and scheduled closures hold
  // pointers into the world.
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;
  SimWorld(SimWorld&&) = delete;
  SimWorld& operator=(SimWorld&&) = delete;

  [[nodiscard]] ProcId n() const { return n_; }
  Simulator& sim() { return sim_; }
  [[nodiscard]] const CrashTracker& tracker() const { return tracker_; }
  SimNetwork& net() { return net_; }
  /// The crash plan: empty (nobody crashes) or one spec per process.
  [[nodiscard]] const CrashPlan& plan() const { return plan_; }
  /// The scenario engine, or nullptr when the world has no scenario.
  [[nodiscard]] const ScenarioEngine* scenario() const {
    return scenario_.get();
  }

  /// Schedules every fault of the world, in this order: the plan's timed
  /// (AtTime) crashes, then each scenario crash/rejoin cycle (its crash,
  /// then its rejoin). A crash at time <= 0 takes effect at once. A rejoin
  /// event recovers the process and then calls `on_rejoin(p)` inside the
  /// same event. Call once, after the processes are wired in and before
  /// anything else is scheduled.
  template <class OnRejoin>
  void schedule_faults(OnRejoin on_rejoin);
  void schedule_faults() {
    schedule_faults([](ProcId) {});
  }

 private:
  SimWorld(ProcId n, const ClusterLayout* layout, std::uint64_t seed,
           const DelayConfig& delays, const DelayFactory* delay_factory,
           const CrashPlan& crashes, const ScenarioConfig* scenario,
           Trace* trace);

  /// The plan's timed crashes.
  void schedule_crashes();
  /// Crashes p at `at`: at once when at <= 0, else by a scheduled event.
  void crash_at(ProcId p, SimTime at);

  ProcId n_;  // first member: checked before any other is built
  Simulator sim_;
  CrashPlan plan_;
  CrashTracker tracker_;
  std::unique_ptr<DelayModel> delays_;
  std::unique_ptr<ScenarioEngine> scenario_;
  SimNetwork net_;
};

template <class OnRejoin>
void SimWorld::schedule_faults(OnRejoin on_rejoin) {
  schedule_crashes();
  if (scenario_ == nullptr) return;
  for (const ScenarioEngine::Rejoin& rj : scenario_->rejoins()) {
    crash_at(rj.proc, rj.down_at);
    if (rj.up_at == kSimTimeNever) continue;
    sim_.schedule_at(rj.up_at, [this, p = rj.proc, t = rj.up_at, on_rejoin] {
      tracker_.recover(p, t);
      on_rejoin(p);
    });
  }
}

}  // namespace hyco
