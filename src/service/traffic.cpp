#include "service/traffic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.h"

namespace hyco {

TrafficEngine::TrafficEngine(Simulator& sim, const CrashTracker& tracker,
                             TrafficConfig cfg, std::uint64_t seed, ProcId n,
                             SubmitFn submit)
    : sim_(sim),
      tracker_(tracker),
      cfg_(cfg),
      n_(n),
      submit_(std::move(submit)),
      rng_(mix64(seed, 0x5EC1)) {
  HYCO_CHECK_MSG(n_ > 0, "traffic needs at least one replica");
  HYCO_CHECK_MSG(cfg_.ops_per_client >= 1, "ops_per_client must be >= 1");
  // Divide instead of multiplying, so huge factors cannot wrap the product
  // back under the bound.
  HYCO_CHECK_MSG(cfg_.ops_per_client <=
                     kMaxOps / std::max<std::uint64_t>(cfg_.clients, 1),
                 "clients x ops_per_client must be <= "
                     << kMaxOps << " (TrafficEngine::kMaxOps), got "
                     << cfg_.clients << " x " << cfg_.ops_per_client);
  if (cfg_.load > 0.0) {
    think_mean_ns_ =
        static_cast<double>(cfg_.clients) * 1e9 / cfg_.load;
  }
  remaining_.assign(cfg_.clients,
                    static_cast<std::uint32_t>(cfg_.ops_per_client));
  ops_.reserve(cfg_.clients * cfg_.ops_per_client);
}

SimTime TrafficEngine::think_time() {
  if (think_mean_ns_ <= 0.0) return 0;
  const double t = rng_.exponential(think_mean_ns_);
  return static_cast<SimTime>(std::llround(t));
}

void TrafficEngine::start() {
  for (std::uint64_t c = 0; c < cfg_.clients; ++c) {
    SimTime at = 0;
    if (think_mean_ns_ > 0.0) {
      at = think_time();
    } else if (cfg_.arrival_spread > 0) {
      at = rng_.uniform(0, cfg_.arrival_spread);
    }
    schedule_submit(c, at);
  }
}

void TrafficEngine::schedule_submit(std::uint64_t client, SimTime at) {
  sim_.schedule_at(at, [this, client] {
    const ProcId origin = static_cast<ProcId>(client % static_cast<std::uint64_t>(n_));
    // A client of a dead replica halts: nothing to fail over to in this
    // model, and its in-flight op never completes.
    if (tracker_.is_crashed(origin)) return;
    ClientOp op;
    op.id = ops_.size() + 1;
    op.client = client;
    op.origin = origin;
    op.submit_time = sim_.now();
    ops_.push_back(op);
    ++submitted_;
    submit_(origin, op.id);
  });
}

bool TrafficEngine::on_op_completed(std::uint64_t op_id, SimTime now) {
  ClientOp& op = ops_.at(op_id - 1);
  if (op.completed) return false;
  op.completed = true;
  op.complete_time = now;
  ++completed_;
  const auto lat = static_cast<std::uint64_t>(now - op.submit_time);
  latency_.add(lat);
  latency_hist_.add(lat);
  std::uint32_t& left = remaining_.at(op.client);
  HYCO_CHECK(left > 0);
  --left;
  if (left > 0) schedule_submit(op.client, now + think_time());
  return true;
}

}  // namespace hyco
