#include "workload/register_harness.h"

#include <map>
#include <memory>
#include <sstream>

#include "core/sim_world.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

bool check_register_atomicity(const std::vector<RegOpRecord>& history,
                              std::vector<std::string>& violations) {
  const std::size_t before = violations.size();
  const auto note = [&](const std::string& s) { violations.push_back(s); };

  // 1. Write timestamps are unique, and each read's timestamp maps to an
  //    actual write with the same value (or the initial record (0,-1)/0).
  std::map<std::pair<std::int64_t, ProcId>, const RegOpRecord*> writes;
  for (const auto& op : history) {
    if (!op.is_write) continue;
    const auto key = std::make_pair(op.ts.seq, op.ts.writer);
    if (writes.count(key) > 0) {
      std::ostringstream os;
      os << "duplicate write timestamp (" << op.ts.seq << ',' << op.ts.writer
         << ')';
      note(os.str());
    }
    writes[key] = &op;
    if (op.ts.writer != op.proc) {
      std::ostringstream os;
      os << "write by p" << op.proc << " carries foreign writer id "
         << op.ts.writer;
      note(os.str());
    }
  }
  for (const auto& op : history) {
    if (op.is_write) continue;
    if (op.ts == RegTimestamp{0, -1}) {
      if (op.value != 0) note("read of initial record returned nonzero");
      continue;
    }
    const auto it = writes.find({op.ts.seq, op.ts.writer});
    if (it == writes.end()) {
      std::ostringstream os;
      os << "read by p" << op.proc << " returned timestamp (" << op.ts.seq
         << ',' << op.ts.writer << ") that no completed write produced";
      // The write may have crashed mid-store: that is legal (the value was
      // proposed); only flag when the VALUE was never written by anyone.
      // Without the write record we cannot cross-check the value, so only
      // check values for completed writes below.
      (void)os;
      continue;
    }
    if (it->second->value != op.value) {
      std::ostringstream os;
      os << "read returned value " << op.value << " but write ("
         << op.ts.seq << ',' << op.ts.writer << ") wrote "
         << it->second->value;
      note(os.str());
    }
  }

  // 2. Real-time order: if op1 responded before op2 was invoked, op2's
  //    linearization timestamp must not precede op1's. For two writes the
  //    order must be strict (timestamps are unique).
  for (const auto& a : history) {
    for (const auto& b : history) {
      if (&a == &b || a.responded >= b.invoked) continue;
      if (b.ts < a.ts) {
        std::ostringstream os;
        os << (a.is_write ? "write" : "read") << " by p" << a.proc
           << " (ts " << a.ts.seq << ',' << a.ts.writer << ") finished "
              "before "
           << (b.is_write ? "write" : "read") << " by p" << b.proc
           << " (ts " << b.ts.seq << ',' << b.ts.writer
           << ") started, but linearizes after it";
        note(os.str());
      }
      if (a.is_write && b.is_write && a.ts == b.ts) {
        note("two sequential writes share a timestamp");
      }
    }
  }
  return violations.size() == before;
}

RegisterRunResult run_register_workload(const RegisterRunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  SimWorld world(n, cfg.seed, cfg.delays, cfg.crashes);
  Simulator& sim = world.sim();
  const CrashTracker& tracker = world.tracker();
  SimNetwork& net = world.net();

  std::vector<std::unique_ptr<ClusterRegState>> cluster_state;
  for (ClusterId x = 0; x < cfg.layout.m(); ++x) {
    (void)x;
    cluster_state.push_back(std::make_unique<ClusterRegState>());
  }
  std::vector<std::unique_ptr<RegisterProcess>> procs;
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<RegisterProcess>(
        p, cfg.layout, net,
        *cluster_state[static_cast<std::size_t>(cfg.layout.cluster_of(p))]));
  }

  RegisterRunResult result;
  std::vector<int> ops_done(static_cast<std::size_t>(n), 0);
  std::vector<SimTime> op_invoked(static_cast<std::size_t>(n), 0);
  Rng wl_rng(mix64(cfg.seed, 0x4E6));

  net.set_deliver([&](ProcId to, ProcId from, const Message& m) {
    procs[static_cast<std::size_t>(to)]->on_message(from, m);
  });

  // Each process issues its next operation as soon as the previous one
  // completes (plus a small think time drawn from the workload stream).
  std::function<void(ProcId)> issue_next = [&](ProcId p) {
    const auto idx = static_cast<std::size_t>(p);
    if (tracker.is_crashed(p) || ops_done[idx] >= cfg.ops_per_process) return;
    const bool is_write = wl_rng.bernoulli(cfg.write_fraction);
    op_invoked[idx] = sim.now();
    const auto completion = [&, p, is_write](ProcId self, std::uint64_t value,
                                             RegTimestamp ts) {
      const auto i = static_cast<std::size_t>(self);
      result.history.push_back(RegOpRecord{self, is_write, value, ts,
                                           op_invoked[i], sim.now()});
      ++ops_done[i];
      sim.schedule_in(wl_rng.uniform(1, 40), [&, p] { issue_next(p); });
    };
    if (is_write) {
      // Globally unique value: (proc, per-proc op counter).
      const std::uint64_t v =
          (static_cast<std::uint64_t>(p) << 32) |
          static_cast<std::uint64_t>(ops_done[idx] + 1);
      procs[idx]->write(v, completion);
    } else {
      procs[idx]->read(completion);
    }
  };

  world.schedule_faults();
  for (ProcId p = 0; p < n; ++p) {
    sim.schedule_at(0, [&, p] { issue_next(p); });
  }

  sim.run(cfg.max_events);
  result.end_time = sim.now();
  result.crashed = tracker.crashed_count();
  result.net = net.stats();

  result.all_correct_completed = true;
  for (ProcId p = 0; p < n; ++p) {
    if (!tracker.is_crashed(p) &&
        ops_done[static_cast<std::size_t>(p)] < cfg.ops_per_process) {
      result.all_correct_completed = false;
    }
  }
  result.atomicity_ok =
      check_register_atomicity(result.history, result.violations);
  return result;
}

}  // namespace hyco
