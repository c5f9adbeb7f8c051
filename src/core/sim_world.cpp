#include "core/sim_world.h"

#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {

void SimWorld::check(ProcId n, const CrashPlan& crashes) {
  HYCO_CHECK_MSG(n >= 1 && n <= kMaxProcs,
                 "process count " << n << " is outside [1, " << kMaxProcs
                                  << "] (SimWorld::kMaxProcs: the n^2 event"
                                     " reservation past it exceeds 1 GiB)");
  HYCO_CHECK_MSG(
      crashes.specs.empty() ||
          crashes.specs.size() == static_cast<std::size_t>(n),
      "crash plan has " << crashes.specs.size() << " specs for " << n
                        << " processes");
}

SimWorld::SimWorld(ProcId n, std::uint64_t seed, const DelayConfig& delays,
                   const CrashPlan& crashes)
    : SimWorld(n, nullptr, seed, delays, nullptr, crashes, nullptr, nullptr) {
}

SimWorld::SimWorld(const ClusterLayout& layout, std::uint64_t seed,
                   const DelayConfig& delays,
                   const DelayFactory& delay_factory, const CrashPlan& crashes,
                   const ScenarioConfig& scenario, Trace* trace)
    : SimWorld(layout.n(), &layout, seed, delays, &delay_factory, crashes,
               &scenario, trace) {}

SimWorld::SimWorld(ProcId n, const ClusterLayout* layout, std::uint64_t seed,
                   const DelayConfig& delays,
                   const DelayFactory* delay_factory, const CrashPlan& crashes,
                   const ScenarioConfig* scenario, Trace* trace)
    : n_((check(n, crashes), n)),
      sim_(seed),
      plan_(crashes),
      tracker_(static_cast<std::size_t>(n)),
      delays_(delay_factory != nullptr && *delay_factory
                  ? (*delay_factory)()
                  : make_delay_model(delays)),
      // Scenario faults wrap the delay model in a FaultyChannel and give
      // the network its partition/loss/duplication hooks. No scenario =
      // the plain channel, bit for bit.
      scenario_(scenario != nullptr && !scenario->empty()
                    ? std::make_unique<ScenarioEngine>(*scenario, *layout,
                                                       std::move(delays_))
                    : nullptr),
      net_(sim_, scenario_ != nullptr ? scenario_->channel() : *delays_,
           tracker_, n, plan_.specs.empty() ? nullptr : &plan_, trace) {
  sim_.reserve_all_to_all(n);
  if (scenario_ != nullptr) net_.set_scenario(scenario_.get());
  if (trace != nullptr) trace->enable(true);
}

void SimWorld::crash_at(ProcId p, SimTime at) {
  if (at <= 0) {
    tracker_.crash(p, 0);
  } else {
    sim_.schedule_at(at, [this, p, at] { tracker_.crash(p, at); });
  }
}

void SimWorld::schedule_crashes() {
  for (ProcId p = 0; p < static_cast<ProcId>(plan_.specs.size()); ++p) {
    const CrashSpec& spec = plan_.specs[static_cast<std::size_t>(p)];
    if (spec.kind == CrashSpec::Kind::AtTime) crash_at(p, spec.time);
  }
}

}  // namespace hyco
