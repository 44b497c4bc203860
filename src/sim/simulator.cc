#include "sim/simulator.hh"

#include "sim/execution.hh"
#include "sim/parallel.hh"
#include "sim/program.hh"

namespace pipestitch::sim {

SimResult
simulate(const dfg::Graph &graph, MemImage &mem,
         const SimConfig &config, EngineCounters *counters)
{
    // One-shot path: build the immutable Program and run a single
    // ExecutionState over it. The graph outlives this call, so a
    // non-owning aliasing pointer is enough. Long-lived callers
    // (figures sweeps, pstool serve) build the Program once and
    // share it across executions instead.
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &graph);
    auto program =
        std::make_shared<const Program>(std::move(hold), config);
    ExecutionState exec(std::move(program));
    SimResult r = exec.run(mem, RunOptions{config.observer,
                                           config.trace,
                                           config.maxCycles});
    if (counters && exec.engineCounters())
        *counters = *exec.engineCounters();
    return r;
}

} // namespace pipestitch::sim
