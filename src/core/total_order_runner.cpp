#include "core/total_order_runner.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/sim_world.h"
#include "util/assert.h"

namespace hyco {

TobRunResult run_tob(const TobRunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  SimWorld world(n, cfg.seed, cfg.delays, cfg.crashes);
  Simulator& sim = world.sim();
  const CrashTracker& tracker = world.tracker();

  MemoryPool pool(n, ConsensusImpl::Cas);
  CommonCoin coin(mix64(cfg.seed, 0xC01C03));

  std::vector<std::unique_ptr<TobProcess>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<TobProcess>(
        p, cfg.layout, world.net(), pool, coin, cfg.max_rounds_per_bit));
  }
  world.net().set_deliver([&](ProcId to, ProcId from, const Message& m) {
    procs[static_cast<std::size_t>(to)]->on_message(from, m);
  });

  world.schedule_faults();
  for (const TobSubmission& s : cfg.submissions) {
    HYCO_CHECK_MSG(s.payload != TobProcess::kNoop, "payload 0 reserved");
    sim.schedule_at(s.at, [&, s] {
      if (tracker.is_crashed(s.proc)) return;
      procs[static_cast<std::size_t>(s.proc)]->submit(s.payload);
    });
  }

  TobRunResult result;
  sim.run(cfg.max_events);
  result.events = sim.events_executed();
  result.end_time = sim.now();
  result.crashed = tracker.crashed_count();
  result.net = world.net().stats();

  for (ProcId p = 0; p < n; ++p) {
    result.logs.push_back(procs[static_cast<std::size_t>(p)]->delivered());
  }

  // Prefix agreement across every pair of logs.
  for (ProcId a = 0; a < n; ++a) {
    for (ProcId b = a + 1; b < n; ++b) {
      const auto& la = result.logs[static_cast<std::size_t>(a)];
      const auto& lb = result.logs[static_cast<std::size_t>(b)];
      const std::size_t k = std::min(la.size(), lb.size());
      for (std::size_t i = 0; i < k; ++i) {
        if (la[i] != lb[i]) {
          result.prefix_agreement = false;
          std::ostringstream os;
          os << "log divergence at slot " << i << ": p" << a << " has "
             << la[i] << ", p" << b << " has " << lb[i];
          result.violations.push_back(os.str());
          break;
        }
      }
    }
  }

  // Every payload submitted by a correct process must be delivered by
  // every correct process.
  for (const TobSubmission& s : cfg.submissions) {
    if (tracker.is_crashed(s.proc)) continue;
    for (ProcId p = 0; p < n; ++p) {
      if (tracker.is_crashed(p)) continue;
      const auto& log = result.logs[static_cast<std::size_t>(p)];
      if (std::find(log.begin(), log.end(), s.payload) == log.end()) {
        result.all_delivered = false;
        std::ostringstream os;
        os << "payload " << s.payload << " (from p" << s.proc
           << ") missing in p" << p << "'s log";
        result.violations.push_back(os.str());
      }
    }
  }
  return result;
}

}  // namespace hyco
