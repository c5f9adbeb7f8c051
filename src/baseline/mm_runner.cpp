#include "baseline/mm_runner.h"

#include "baseline/mm_process.h"
#include "core/sim_world.h"
#include "util/assert.h"

namespace hyco {

RunResult run_mm(const MmRunConfig& cfg) {
  const ProcId n = cfg.domain.n();
  std::vector<Estimate> split;
  const std::vector<Estimate>& inputs =
      cfg.inputs.empty() ? (split = split_inputs(n)) : cfg.inputs;
  HYCO_CHECK_MSG(inputs.size() == static_cast<std::size_t>(n),
                 "inputs size mismatch");

  SimWorld world(n, cfg.seed, cfg.delays, cfg.crashes);
  MmMemories memories(cfg.domain, cfg.shm_impl);
  ConsensusProcs procs(world, inputs);
  for (ProcId p = 0; p < n; ++p) {
    procs.add(std::make_unique<MmProcess>(
        p, cfg.domain, memories, world.net(),
        mix64(cfg.seed, 0x33A7 + static_cast<std::uint64_t>(p)),
        cfg.max_rounds));
  }
  world.schedule_faults();
  procs.schedule_starts(cfg.seed, 50);

  RunResult result = procs.run(cfg.max_events);
  result.shm = memories.total();
  return result;
}

}  // namespace hyco
