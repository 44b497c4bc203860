#include "pipeline.hh"

#include <algorithm>
#include <memory>

#include "analysis/placement.hh"
#include "analysis/throughput.hh"
#include "base/logging.hh"
#include "scalar/interpreter.hh"
#include "sim/execution.hh"

namespace perfbench {

using namespace pipestitch;

PreparedPtr
tracedPrepare(const workloads::KernelInstance &kernel,
              const RunConfig &config, Tracer &tracer, int64_t request,
              std::string &error)
{
    ScopedQuiet quiet(config.quiet);
    Span whole(tracer, "core.prepare", request);
    PipelineCache *cache = config.cache;
    if (cache) {
        Span s(tracer, "runner.memo", request);
        if (auto hit = cache->lookupPrepared(kernel, config))
            return hit;
    }

    auto prep = std::make_shared<PreparedKernel>();
    compiler::CompileOptions copts;
    copts.variant = config.variant;
    copts.threading = config.threading;
    copts.useStreams = config.useStreams;
    copts.bufferDepth = config.sim.bufferDepth;
    copts.unrollFactor = config.unrollFactor;
    compiler::CompileResult compiled;
    bool compileHit = false;
    if (cache) {
        Span s(tracer, "runner.memo", request);
        compileHit = cache->lookupCompile(kernel, copts, compiled);
    }
    if (!compileHit) {
        {
            Span s(tracer, "compiler.compile", request);
            compiled = compiler::compileProgram(kernel.prog,
                                                kernel.liveIns, copts);
        }
        if (cache) {
            Span s(tracer, "runner.memo", request);
            cache->storeCompile(kernel, copts, compiled);
        }
    }
    prep->compiled = std::make_shared<const compiler::CompileResult>(
        std::move(compiled));
    const dfg::Graph &graph = prep->compiled->graph;

    {
        Span s(tracer, "analysis.analyze", request);
        analysis::AnalysisOptions aopts;
        aopts.bufferDepth = config.sim.bufferDepth;
        prep->analysis = analysis::analyzeGraph(graph, aopts);
    }
    if (!prep->analysis.ok()) {
        error = "kernel " + kernel.name + " fails static analysis";
        return nullptr;
    }

    prep->topo = config.topology();
    fabric::Fabric fab(config.fabric);
    mapper::MapperOptions mopts;
    mopts.rngSeed = config.mapperSeed;
    mopts.portfolioSeeds = config.mapperSeeds;
    mopts.jobs = config.mapperJobs;
    mopts.boundPruneCycles = config.boundPruneCycles;
    bool mapHit = false;
    if (cache) {
        Span s(tracer, "runner.memo", request);
        mapHit = cache->lookupMapping(graph, config.fabric, mopts,
                                      prep->mapping);
    }
    if (!mapHit) {
        {
            Span s(tracer, "mapper.map", request);
            prep->mapping = mapper::mapGraph(graph, fab, mopts);
        }
        if (cache) {
            Span s(tracer, "runner.memo", request);
            cache->storeMapping(graph, config.fabric, mopts,
                                prep->mapping);
        }
    }
    if (!prep->mapping.success) {
        error = "kernel " + kernel.name + " does not map: " +
                prep->mapping.error;
        return nullptr;
    }
    prep->mapped = true;
    prep->avgHops = prep->mapping.avgHops;
    {
        Span s(tracer, "analysis.placement_lint", request);
        analysis::lintPlacement(graph, fab, prep->mapping,
                                prep->analysis);
    }
    if (!prep->analysis.ok()) {
        error = "kernel " + kernel.name + " fails placement lint";
        return nullptr;
    }

    auto simCfg = config.sim;
    simCfg.buffering = prep->compiled->simConfig.buffering;
    simCfg.memBypass = prep->compiled->simConfig.memBypass;
    simCfg.memBanks = config.fabric.memBanks;
    simCfg.edgeLatencies.clear();
    simCfg.shareGroups.clear();
    simCfg.observer = nullptr;
    simCfg.trace = false;
    prep->simCfg = simCfg;
    std::shared_ptr<const dfg::Graph> graphPtr(prep->compiled,
                                               &prep->compiled->graph);
    {
        Span s(tracer, "sim.program_build", request);
        prep->program = std::make_shared<const sim::Program>(
            std::move(graphPtr), simCfg);
    }
    {
        Span s(tracer, "analysis.bound", request);
        prep->bound = analysis::computeBound(*prep->program);
        analysis::addRouteBound(prep->bound, graph, fab,
                                prep->mapping);
    }
    prep->area = fabric::computeArea(
        fab,
        config.variant == compiler::ArchVariant::RipTide
            ? fabric::AreaVariant::RipTide
            : fabric::AreaVariant::Pipestitch,
        config.sim.bufferDepth);

    PreparedPtr out = std::move(prep);
    if (cache) {
        Span s(tracer, "runner.memo", request);
        cache->storePrepared(kernel, config, out);
    }
    return out;
}

FabricRun
tracedExecute(const PreparedKernel &prepared,
              const workloads::KernelInstance &kernel,
              const RunConfig &config, Tracer &tracer, int64_t request,
              std::string &error)
{
    ScopedQuiet quiet(config.quiet);
    Span whole(tracer, "core.execute", request);
    FabricRun run;
    run.compiled = *prepared.compiled;
    run.mapping = prepared.mapping;
    run.analysis = prepared.analysis;
    run.memory = kernel.memory;
    run.memory.resize(std::max(
        run.memory.size(), static_cast<size_t>(kernel.prog.memWords)));

    sim::RunOptions ropts;
    ropts.maxCycles = config.sim.maxCycles;
    std::unique_ptr<sim::ExecutionState> exec;
    {
        Span s(tracer, "sim.state_build", request);
        exec = std::make_unique<sim::ExecutionState>(prepared.program);
    }
    {
        Span s(tracer, "sim.run", request);
        run.sim = exec->run(run.memory, ropts);
    }
    if (run.sim.deadlocked) {
        error = "kernel " + kernel.name +
                (run.sim.watchdogExpired ? " hit its watchdog"
                                         : " deadlocked");
        return run;
    }

    run.boundEval = prepared.bound.evaluate(run.sim.stats);
    run.boundCycles = run.boundEval.certifiedCycles;
    run.bound = prepared.bound;
    if (!run.boundEval.holds(run.sim.stats.cycles)) {
        error = "kernel " + kernel.name + " beats its certified bound";
        return run;
    }

    if (config.verifyAgainstGolden) {
        scalar::MemImage golden = kernel.memory;
        golden.resize(run.memory.size());
        {
            Span s(tracer, "scalar.verify", request);
            scalar::interpret(kernel.prog, golden, kernel.liveIns);
        }
        if (golden != run.memory) {
            error = "kernel " + kernel.name +
                    " diverged from the golden model";
            return run;
        }
    }

    run.area = prepared.area;
    run.energy = energy::fabricEnergyMapped(run.sim.stats, run.area,
                                            run.mapping,
                                            run.compiled.graph.size());
    run.seconds =
        energy::secondsFor(run.sim.stats.cycles, config.fabric.clockMHz);
    run.edp = energy::edp(run.energy, run.seconds);
    return run;
}

bool
runOk(const FabricRun &run, const std::string &error)
{
    return error.empty() && !run.sim.deadlocked &&
           run.boundCycles > 0 && run.boundCycles <= run.cycles();
}

int64_t
totalFires(const sim::SimStats &stats)
{
    int64_t sum = 0;
    for (int64_t f : stats.nodeFires)
        sum += f;
    return sum;
}

} // namespace perfbench
