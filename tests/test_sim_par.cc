/**
 * @file
 * Bit-identity gate for the ParallelRegions scheduler
 * (sim/parallel.hh): for every kernel, every job count and both
 * partition modes, the engine's SimStats, termination status,
 * diagnostic text, and memory image must equal the ReadyList
 * oracle's field by field. The partition and the thread count are
 * performance knobs, never semantic ones.
 *
 * Coverage matrix:
 *  - jobs ∈ {1, 2, 4, 8} × single-grid (BFS min-cut) partitions;
 *  - jobs ∈ {1, 2, 4, 8} × tile-boundary (channel-cut) partitions
 *    via a real 2×2-tiled run;
 *  - SyncPlane and greedy dispatch;
 *  - the default one inline region (parallelThreads = 0), inline
 *    multi-region runs (parallelThreads = 1) and persistent workers
 *    (parallelThreads = jobs) on every small kernel;
 *  - forced persistent workers (parallelThreads = 2/4/8), across
 *    repeated runs of one engine — CI runs this binary under TSan
 *    to certify the scan/census data-sharing and the epoch barrier;
 *  - the default RunConfig on the paper kernels against an
 *    explicit ReadyList run (the default-engine flip);
 *  - runner::defaultJobs() and the default engine under a one-CPU
 *    affinity mask;
 *  - watchdog diagnostics (diagnose() must match byte-for-byte);
 *  - fallback configurations (source buffering, share groups) that
 *    must pin the oracle.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <set>

#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "core/system.hh"
#include "fabric/fabric.hh"
#include "runner/pool.hh"
#include "scalar/interpreter.hh"
#include "sim/execution.hh"
#include "sim/parallel.hh"
#include "sim/program.hh"
#include "sim/regions.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using sim::SimConfig;

namespace {

constexpr int kJobSweep[] = {1, 2, 4, 8};

/** Field-by-field stats equality with readable failure output. */
void
expectSameRun(const sim::SimResult &oracle, const sim::SimResult &par,
              const scalar::MemImage &oracleMem,
              const scalar::MemImage &parMem, const std::string &tag)
{
    const auto &a = oracle.stats;
    const auto &b = par.stats;
#define PS_EQ(field) EXPECT_EQ(a.field, b.field) << tag << " " #field
    PS_EQ(cycles);
    PS_EQ(nodeFires);
    PS_EQ(portReads);
    PS_EQ(classFires);
    PS_EQ(nocCfFires);
    PS_EQ(bufferWrites);
    PS_EQ(bufferReads);
    PS_EQ(nocTraversals);
    PS_EQ(memLoads);
    PS_EQ(memStores);
    PS_EQ(steerDrops);
    PS_EQ(syncPlaneCycles);
    PS_EQ(dispatchSpawns);
    PS_EQ(dispatchConts);
    PS_EQ(shareConflicts);
    PS_EQ(muxSwitches);
    PS_EQ(interTileTokens);
    PS_EQ(stallNoInput);
    PS_EQ(stallNoSpace);
    PS_EQ(bankConflictStalls);
#undef PS_EQ
    EXPECT_EQ(oracle.deadlocked, par.deadlocked) << tag;
    EXPECT_EQ(oracle.watchdogExpired, par.watchdogExpired) << tag;
    EXPECT_EQ(oracle.diagnostic, par.diagnostic) << tag;
    EXPECT_EQ(oracleMem, parMem) << tag << " memory image";
}

sim::SimResult
runCase(const workloads::KernelInstance &kernel, bool greedy,
        SimConfig::Scheduler sched, int jobs, int threads,
        scalar::MemImage &memOut, int64_t maxCycles = 500000)
{
    compiler::CompileOptions opts;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);
    auto cfg = res.simConfig;
    cfg.greedyDispatch = greedy;
    cfg.scheduler = sched;
    cfg.parallelJobs = jobs;
    cfg.parallelThreads = threads;
    cfg.maxCycles = maxCycles;
    memOut = kernel.memory;
    memOut.resize(static_cast<size_t>(kernel.prog.memWords));
    return sim::simulate(res.graph, memOut, cfg);
}

} // namespace

TEST(ParallelRegions, SingleGridBitIdentityAcrossJobCounts)
{
    setQuiet(true);
    for (const auto &kernel : workloads::smallKernels(1)) {
        for (bool greedy : {false, true}) {
            scalar::MemImage oracleMem;
            auto oracle =
                runCase(kernel, greedy,
                        SimConfig::Scheduler::ReadyList,
                        /*jobs=*/1, /*threads=*/0, oracleMem);
            // threads = 0: the default (one inline region);
            // threads = 1: inline over `jobs` regions; threads =
            // jobs: `jobs` persistent workers (TSan covers these).
            for (int jobs : kJobSweep) {
                for (int threads : {0, 1, jobs}) {
                    scalar::MemImage parMem;
                    auto par = runCase(
                        kernel, greedy,
                        SimConfig::Scheduler::ParallelRegions, jobs,
                        threads, parMem);
                    expectSameRun(
                        oracle, par, oracleMem, parMem,
                        kernel.name + (greedy ? "/greedy" : "") +
                            "/jobs=" + std::to_string(jobs) +
                            "/threads=" + std::to_string(threads));
                }
            }
        }
    }
}

TEST(ParallelRegions, ForcedWorkerThreadsStayBitIdentical)
{
    // parallelThreads > 1 forces persistent region workers even on
    // one hardware thread — the configuration CI runs under TSan to
    // certify the parallel scan/census phases share state safely.
    // One engine runs three times, so its workers park between runs
    // and must wake for the next one.
    setQuiet(true);
    auto kernel = workloads::makeSpMSpMd(8, 0.8, 6);
    scalar::MemImage oracleMem;
    auto oracle = runCase(kernel, /*greedy=*/false,
                          SimConfig::Scheduler::ReadyList,
                          /*jobs=*/1, /*threads=*/0, oracleMem);
    compiler::CompileOptions opts;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);
    for (int threads : {2, 4, 8}) {
        auto cfg = res.simConfig;
        cfg.scheduler = SimConfig::Scheduler::ParallelRegions;
        cfg.parallelJobs = 8;
        cfg.parallelThreads = threads;
        cfg.maxCycles = 500000;
        sim::ExecutionState exec(std::make_shared<const sim::Program>(
            std::shared_ptr<const dfg::Graph>(std::shared_ptr<void>{},
                                              &res.graph),
            cfg));
        for (int rep = 0; rep < 3; rep++) {
            scalar::MemImage parMem = kernel.memory;
            parMem.resize(static_cast<size_t>(kernel.prog.memWords));
            auto par = exec.run(parMem);
            expectSameRun(oracle, par, oracleMem, parMem,
                          "spmspmd/threads=" + std::to_string(threads) +
                              "/rep=" + std::to_string(rep));
        }
        const sim::EngineCounters *ec = exec.engineCounters();
        ASSERT_NE(ec, nullptr);
        EXPECT_EQ(ec->threads, threads);
        EXPECT_EQ(ec->regions, 8);
        EXPECT_FALSE(ec->inlineRun);
        EXPECT_GT(ec->fixpointRounds, 0);
        // Every round's scan and every cycle's census is one
        // published phase.
        EXPECT_EQ(ec->barriers,
                  ec->fixpointRounds + oracle.stats.cycles);
    }
}

TEST(ParallelRegions, DefaultConfigMatchesReadyListOnPaperKernels)
{
    // The default RunConfig runs ParallelRegions; every paper kernel
    // must reproduce an explicit ReadyList run field by field.
    setQuiet(true);
    ASSERT_EQ(RunConfig{}.sim.scheduler,
              SimConfig::Scheduler::ParallelRegions);
    for (const auto &kernel : workloads::paperKernels(1)) {
        RunConfig cfg;
        cfg.quiet = true;
        std::string err;
        FabricRun def = runOnFabric(kernel, cfg, &err);
        ASSERT_TRUE(err.empty()) << kernel.name << ": " << err;
        cfg.sim.scheduler = SimConfig::Scheduler::ReadyList;
        FabricRun oracle = runOnFabric(kernel, cfg, &err);
        ASSERT_TRUE(err.empty()) << kernel.name << ": " << err;
        EXPECT_TRUE(sim::statsEqual(def.sim.stats, oracle.sim.stats))
            << kernel.name;
        expectSameRun(oracle.sim, def.sim, oracle.memory, def.memory,
                      kernel.name + "/default");
    }
}

TEST(ParallelRegions, OneCpuAffinityRunsTheDefaultEngineInline)
{
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        first++;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

    const int jobs = runner::defaultJobs();
    setQuiet(true);
    auto kernel = workloads::makeSpMSpMd(8, 0.8, 6);
    compiler::CompileOptions opts;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);
    auto prog = std::make_shared<const sim::Program>(
        std::shared_ptr<const dfg::Graph>(std::shared_ptr<void>{},
                                          &res.graph),
        res.simConfig);
    const SimConfig defaults;
    sim::ParallelEngine engine(prog, defaults.parallelJobs,
                               defaults.parallelThreads);

    // Restore before asserting, so a failure cannot leave the rest
    // of the binary pinned.
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(jobs, 1);
    EXPECT_EQ(engine.workerThreads(), 1);
    EXPECT_TRUE(engine.counters().inlineRun);
    EXPECT_EQ(engine.counters().regions, 1);
    EXPECT_EQ(engine.regionPlan().count, 1);
}

TEST(ParallelRegions, TiledChannelCutBitIdentityAcrossJobCounts)
{
    setQuiet(true);
    auto kernel = workloads::makeSpmv(16, 0.3, 7);
    RunConfig cfg;
    cfg.quiet = true;
    cfg.fabric.width = 4;
    cfg.fabric.height = 4;
    cfg.fabric.peMix = fabric::scaleMixFor(4, 4);
    cfg.tilesX = 2;
    cfg.tilesY = 2;

    std::string err;
    cfg.sim.scheduler = SimConfig::Scheduler::ReadyList;
    FabricRun oracle = runOnFabric(kernel, cfg, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_GT(oracle.sim.stats.interTileTokens, 0);

    for (int jobs : kJobSweep) {
        for (int threads : {0, 1, 2}) {
            cfg.sim.scheduler = SimConfig::Scheduler::ParallelRegions;
            cfg.sim.parallelJobs = jobs;
            cfg.sim.parallelThreads = threads;
            err.clear();
            FabricRun par = runOnFabric(kernel, cfg, &err);
            ASSERT_TRUE(err.empty()) << err;
            expectSameRun(oracle.sim, par.sim, oracle.memory,
                          par.memory,
                          "spmv_tiled/jobs=" + std::to_string(jobs) +
                              "/threads=" + std::to_string(threads));
        }
    }
}

TEST(ParallelRegions, WatchdogDiagnosticsMatchByteForByte)
{
    // Cut the run short so both paths hit the watchdog with tokens
    // still in flight: the diagnose() fabric dumps must be equal.
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 3);
    scalar::MemImage oracleMem, parMem;
    auto oracle = runCase(kernel, /*greedy=*/false,
                          SimConfig::Scheduler::ReadyList,
                          /*jobs=*/1, /*threads=*/0, oracleMem,
                          /*maxCycles=*/200);
    auto par = runCase(kernel, /*greedy=*/false,
                       SimConfig::Scheduler::ParallelRegions,
                       /*jobs=*/4, /*threads=*/0, parMem,
                       /*maxCycles=*/200);
    ASSERT_TRUE(oracle.watchdogExpired);
    expectSameRun(oracle, par, oracleMem, parMem, "dither/watchdog");
}

TEST(ParallelRegions, UnsupportedConfigsPinTheOracle)
{
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 2);
    compiler::CompileOptions opts;
    opts.unrollFactor = 2;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);

    // Source buffering: a different token-plumbing model.
    {
        auto cfg = res.simConfig;
        cfg.buffering = SimConfig::Buffering::Source;
        auto prog = std::make_shared<const sim::Program>(
            std::shared_ptr<const dfg::Graph>(
                std::shared_ptr<void>{}, &res.graph),
            cfg);
        EXPECT_FALSE(sim::parallelSupported(*prog));
    }

    // Share groups (time multiplexing) serialize PEs arbitrarily.
    {
        auto groups = compiler::planTimeMultiplexing(
            res.graph, fabric::FabricConfig{});
        ASSERT_FALSE(groups.empty());
        auto cfg = res.simConfig;
        for (const auto &group : groups)
            cfg.shareGroups.emplace_back(group.begin(), group.end());
        auto prog = std::make_shared<const sim::Program>(
            std::shared_ptr<const dfg::Graph>(
                std::shared_ptr<void>{}, &res.graph),
            cfg);
        EXPECT_FALSE(sim::parallelSupported(*prog));

        // End to end the fallback must still match ReadyList.
        auto cfgPar = cfg;
        cfgPar.scheduler = SimConfig::Scheduler::ParallelRegions;
        cfgPar.maxCycles = 500000;
        auto cfgOracle = cfg;
        cfgOracle.scheduler = SimConfig::Scheduler::ReadyList;
        cfgOracle.maxCycles = 500000;
        scalar::MemImage oracleMem = kernel.memory;
        oracleMem.resize(static_cast<size_t>(kernel.prog.memWords));
        scalar::MemImage parMem = oracleMem;
        auto oracle = sim::simulate(res.graph, oracleMem, cfgOracle);
        auto par = sim::simulate(res.graph, parMem, cfgPar);
        expectSameRun(oracle, par, oracleMem, parMem,
                      "dither/tm-fallback");
    }
}

TEST(ParallelRegions, PartitionCoversFabricAndKeepsGroupsWhole)
{
    setQuiet(true);
    auto kernel = workloads::makeSpMSpMd(8, 0.8, 5);
    compiler::CompileOptions opts;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);
    auto prog = std::make_shared<const sim::Program>(
        std::shared_ptr<const dfg::Graph>(std::shared_ptr<void>{},
                                          &res.graph),
        res.simConfig);

    for (int jobs : kJobSweep) {
        sim::RegionPlan plan = sim::partitionRegions(*prog, jobs);
        EXPECT_GE(plan.count, 1);
        EXPECT_LE(plan.count, std::max(1, jobs));
        ASSERT_EQ(plan.regionOf.size(),
                  static_cast<size_t>(res.graph.size()));

        // Every node lands in exactly one region list, in
        // ascending order.
        size_t covered = 0;
        for (int r = 0; r < plan.count; r++) {
            covered += plan.nodes[static_cast<size_t>(r)].size();
            EXPECT_TRUE(std::is_sorted(
                plan.nodes[static_cast<size_t>(r)].begin(),
                plan.nodes[static_cast<size_t>(r)].end()));
            for (dfg::NodeId id : plan.nodes[static_cast<size_t>(r)])
                EXPECT_EQ(plan.regionOf[static_cast<size_t>(id)], r);
        }
        EXPECT_EQ(covered, static_cast<size_t>(res.graph.size()));

        // Dispatch groups never straddle regions (one region owns
        // each SyncPlane).
        for (const auto &group : prog->dispatchGroups) {
            std::set<int> regions;
            for (dfg::NodeId d : group)
                regions.insert(plan.regionOf[static_cast<size_t>(d)]);
            EXPECT_LE(regions.size(), 1u);
        }
    }

    // More regions than nodes degrades gracefully.
    sim::RegionPlan wide =
        sim::partitionRegions(*prog, res.graph.size() + 100);
    EXPECT_LE(wide.count, res.graph.size());
}

TEST(ParallelRegions, VerifyPartitionAcceptsPlannerOutput)
{
    setQuiet(true);
    auto kernel = workloads::makeSpMSpMd(8, 0.8, 5);
    compiler::CompileOptions opts;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);
    auto prog = std::make_shared<const sim::Program>(
        std::shared_ptr<const dfg::Graph>(std::shared_ptr<void>{},
                                          &res.graph),
        res.simConfig);

    for (int jobs : kJobSweep) {
        sim::RegionPlan plan = sim::partitionRegions(*prog, jobs);
        sim::PartitionVerdict v = sim::verifyPartition(*prog, plan);
        EXPECT_TRUE(v.ok) << "jobs=" << jobs << "\n" << v.diagnostic;
        EXPECT_TRUE(v.diagnostic.empty());
        EXPECT_TRUE(v.violations.empty());
    }
}

TEST(ParallelRegions, VerifyPartitionCatchesCorruptedPlans)
{
    setQuiet(true);
    auto kernel = workloads::makeDither(16, 8, 3);
    compiler::CompileOptions opts;
    auto res =
        compiler::compileProgram(kernel.prog, kernel.liveIns, opts);
    auto prog = std::make_shared<const sim::Program>(
        std::shared_ptr<const dfg::Graph>(std::shared_ptr<void>{},
                                          &res.graph),
        res.simConfig);
    ASSERT_FALSE(prog->dispatchGroups.empty())
        << "needs a threaded kernel to probe SyncPlane atomicity";
    sim::RegionPlan plan = sim::partitionRegions(*prog, 4);
    ASSERT_GT(plan.count, 1);

    // Out-of-range region index.
    {
        sim::RegionPlan broken = plan;
        broken.regionOf[0] = broken.count + 3;
        sim::PartitionVerdict v = sim::verifyPartition(*prog, broken);
        EXPECT_FALSE(v.ok);
        EXPECT_NE(v.diagnostic.find("valid range"), std::string::npos);
        ASSERT_FALSE(v.violations.empty());
        EXPECT_EQ(v.violations[0], 0);
    }

    // Split a dispatch group across regions.
    {
        sim::RegionPlan broken = plan;
        const std::vector<dfg::NodeId> *picked = nullptr;
        for (const auto &g : prog->dispatchGroups) {
            if (g.size() >= 2) {
                picked = &g;
                break;
            }
        }
        ASSERT_NE(picked, nullptr);
        const auto &group = *picked;
        dfg::NodeId moved = group[1];
        int home =
            broken.regionOf[static_cast<size_t>(group[0])];
        int other = (home + 1) % broken.count;
        // Keep the node-list view consistent so only the atomicity
        // invariant trips.
        auto &from = broken.nodes[static_cast<size_t>(
            broken.regionOf[static_cast<size_t>(moved)])];
        from.erase(std::find(from.begin(), from.end(), moved));
        auto &to = broken.nodes[static_cast<size_t>(other)];
        to.insert(std::lower_bound(to.begin(), to.end(), moved),
                  moved);
        broken.regionOf[static_cast<size_t>(moved)] = other;
        sim::PartitionVerdict v = sim::verifyPartition(*prog, broken);
        EXPECT_FALSE(v.ok);
        EXPECT_NE(v.diagnostic.find("dispatch group"),
                  std::string::npos);
        EXPECT_FALSE(v.violations.empty());
    }

    // Miscounted cut wires.
    {
        sim::RegionPlan broken = plan;
        broken.cutWires += 5;
        sim::PartitionVerdict v = sim::verifyPartition(*prog, broken);
        EXPECT_FALSE(v.ok);
        EXPECT_NE(v.diagnostic.find("recount"), std::string::npos);
    }
}
