/**
 * @file
 * Golden-stats regression harness for the simulator schedulers.
 *
 * Every shipped .sir kernel and every workload kernel runs under
 * {destination, source} buffering × {SyncPlane, greedy} dispatch
 * (plus a time-multiplexed configuration), three times each: once
 * with the DenseScan reference oracle and twice with the
 * ParallelRegions engine — one inline region (the default) and two
 * regions on two forced worker threads. Every run must produce
 * bit-identical SimStats, termination status, diagnostic and memory
 * image — the engine is an optimization, never a semantic change.
 *
 * On top of the pairwise check, a fingerprint of each run is
 * compared against tests/golden_stats.txt so that *any* accidental
 * change to simulator timing or accounting shows up in review.
 * Regenerate the file with:
 *
 *   PS_UPDATE_GOLDENS=1 ./build/tests/test_golden_stats
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "fabric/fabric.hh"
#include "scalar/interpreter.hh"
#include "sim/simulator.hh"
#include "sir/parser.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sim::SimConfig;
using Word = sir::Word;

namespace {

/** One simulator configuration applied to every kernel. */
struct Variant
{
    const char *suffix;
    SimConfig::Buffering buffering;
    bool greedy;
};

constexpr Variant kVariants[] = {
    {"/dst/sync", SimConfig::Buffering::Destination, false},
    {"/dst/greedy", SimConfig::Buffering::Destination, true},
    {"/src/sync", SimConfig::Buffering::Source, false},
    {"/src/greedy", SimConfig::Buffering::Source, true},
};

uint64_t
fnv1a(uint64_t h, int64_t v)
{
    for (int byte = 0; byte < 8; byte++) {
        h ^= static_cast<uint64_t>(v >> (byte * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

/** Digest every observable outcome of a run. */
uint64_t
fingerprint(const sim::SimResult &r, const scalar::MemImage &mem)
{
    uint64_t h = 14695981039346656037ull;
    const auto &s = r.stats;
    h = fnv1a(h, s.cycles);
    for (int64_t f : s.nodeFires)
        h = fnv1a(h, f);
    for (const auto &ports : s.portReads) {
        for (int64_t f : ports)
            h = fnv1a(h, f);
    }
    for (int64_t f : s.classFires)
        h = fnv1a(h, f);
    h = fnv1a(h, s.nocCfFires);
    h = fnv1a(h, s.bufferWrites);
    h = fnv1a(h, s.bufferReads);
    h = fnv1a(h, s.nocTraversals);
    h = fnv1a(h, s.memLoads);
    h = fnv1a(h, s.memStores);
    h = fnv1a(h, s.steerDrops);
    h = fnv1a(h, s.syncPlaneCycles);
    h = fnv1a(h, s.dispatchSpawns);
    h = fnv1a(h, s.dispatchConts);
    h = fnv1a(h, s.shareConflicts);
    h = fnv1a(h, s.muxSwitches);
    h = fnv1a(h, s.stallNoInput);
    h = fnv1a(h, s.stallNoSpace);
    h = fnv1a(h, s.bankConflictStalls);
    h = fnv1a(h, r.deadlocked ? 1 : 0);
    for (Word w : mem)
        h = fnv1a(h, w);
    return h;
}

/** Field-by-field stats equality with readable failure output. */
void
expectSameStats(const sim::SimResult &dense,
                const sim::SimResult &par,
                const scalar::MemImage &denseMem,
                const scalar::MemImage &parMem,
                const std::string &tag)
{
    const auto &a = dense.stats;
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
    PS_EQ(stallNoInput);
    PS_EQ(stallNoSpace);
    PS_EQ(bankConflictStalls);
    PS_EQ(interTileTokens);
#undef PS_EQ
    EXPECT_EQ(dense.deadlocked, par.deadlocked) << tag;
    EXPECT_EQ(dense.watchdogExpired, par.watchdogExpired) << tag;
    EXPECT_EQ(dense.diagnostic, par.diagnostic) << tag;
    EXPECT_EQ(denseMem, parMem) << tag << " memory image";
}

workloads::KernelInstance
loadSirKernel(const std::string &file,
              const std::map<std::string, Word> &liveIns,
              const std::map<std::string, std::vector<Word>> &inits)
{
    std::string path = std::string(KERNEL_DIR) + "/" + file;
    std::ifstream in(path);
    if (!in.good())
        ADD_FAILURE() << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    auto parsed = sir::parseSir(ss.str(), path);

    workloads::KernelInstance kernel;
    kernel.name = parsed.program.name;
    kernel.prog = sir::Program(parsed.program.name);
    kernel.prog.numRegs = parsed.program.numRegs;
    kernel.prog.arrays = parsed.program.arrays;
    kernel.prog.regNames = parsed.program.regNames;
    kernel.prog.liveIns = parsed.program.liveIns;
    kernel.prog.memWords = parsed.program.memWords;
    kernel.prog.body = sir::cloneStmts(parsed.program.body);
    for (sir::Reg r : kernel.prog.liveIns) {
        const std::string &name =
            kernel.prog.regNames[static_cast<size_t>(r)];
        auto it = liveIns.find(name);
        kernel.liveIns.push_back(it == liveIns.end() ? 0
                                                     : it->second);
    }
    kernel.memory = scalar::makeMemory(kernel.prog);
    for (const auto &[name, values] : inits) {
        auto it = parsed.arrays.find(name);
        if (it == parsed.arrays.end()) {
            ADD_FAILURE() << "no array " << name;
            continue;
        }
        const auto &arr = kernel.prog.array(it->second);
        EXPECT_LE(values.size(), static_cast<size_t>(arr.words));
        for (size_t i = 0; i < values.size(); i++)
            kernel.memory[static_cast<size_t>(arr.base) + i] =
                values[i];
    }
    return kernel;
}

std::vector<workloads::KernelInstance>
allKernels()
{
    std::vector<workloads::KernelInstance> kernels;

    kernels.push_back(loadSirKernel(
        "vector_scale.sir", {{"n", 4}}, {{"x", {1, 2, 3, 4}}}));
    kernels.push_back(loadSirKernel(
        "spmv.sir", {{"n", 4}},
        {{"rowptr", {0, 2, 3, 5, 6}},
         {"colidx", {0, 2, 1, 0, 3, 2}},
         {"val", {5, 1, 7, 2, 4, 3}},
         {"x", {1, 2, 3, 4}}}));
    kernels.push_back(loadSirKernel(
        "histogram.sir", {{"n", 8}},
        {{"data", {3, 3, 5, 0, 7, 3, 1, 5}}}));
    kernels.push_back(loadSirKernel(
        "prefix_count.sir", {{"n", 8}, {"threshold", 2}},
        {{"seeds", {100, 7, 900, 33, 5, 64, 1, 250}}}));
    {
        // Linked lists: row i chains through next[] from map[i];
        // every chain stays inside [0, 64) and terminates.
        std::vector<Word> map(8), next(64), val(64);
        for (int i = 0; i < 8; i++)
            map[static_cast<size_t>(i)] = i * 8;
        map[7] = -1; // one empty row
        for (int j = 0; j < 64; j++) {
            next[static_cast<size_t>(j)] =
                (j + 1) % 8 == 0 ? -1 : j + 1;
            val[static_cast<size_t>(j)] = (j * 5 + 1) % 4;
        }
        kernels.push_back(loadSirKernel(
            "count_nonzeros.sir", {{"N", 8}},
            {{"map", map}, {"next", next}, {"val", val}}));
    }
    {
        // Serial loop-carried chain: the recurrence-bound corner
        // (see kernels/loop_chain.sir and the PS-T calibration).
        std::vector<Word> x(16);
        for (int i = 0; i < 16; i++)
            x[static_cast<size_t>(i)] = i + 1;
        kernels.push_back(loadSirKernel(
            "loop_chain.sir", {{"n", 16}, {"scale", 3}},
            {{"x", x}}));
    }

    for (auto &k : workloads::smallKernels(1))
        kernels.push_back(std::move(k));
    return kernels;
}

sim::SimResult
runCase(const workloads::KernelInstance &kernel,
        SimConfig::Buffering buffering, bool greedy, bool timeMux,
        SimConfig::Scheduler sched, int threads,
        scalar::MemImage &memOut)
{
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    if (timeMux)
        opts.unrollFactor = 2;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        opts);
    auto cfg = res.simConfig;
    cfg.buffering = buffering;
    cfg.greedyDispatch = greedy;
    cfg.scheduler = sched;
    cfg.parallelJobs = 2;
    cfg.parallelThreads = threads;
    cfg.maxCycles = 500000;
    if (timeMux) {
        auto groups = compiler::planTimeMultiplexing(
            res.graph, fabric::FabricConfig{});
        EXPECT_FALSE(groups.empty()) << kernel.name;
        for (const auto &group : groups)
            cfg.shareGroups.emplace_back(group.begin(),
                                         group.end());
    }
    memOut = kernel.memory;
    memOut.resize(static_cast<size_t>(kernel.prog.memWords));
    return sim::simulate(res.graph, memOut, cfg);
}

class GoldenHarness
{
  public:
    GoldenHarness()
    {
        update = std::getenv("PS_UPDATE_GOLDENS") != nullptr;
        if (update)
            return;
        std::ifstream in(GOLDEN_STATS_FILE);
        if (!in.good()) {
            ADD_FAILURE()
                << "missing " << GOLDEN_STATS_FILE
                << " (run with PS_UPDATE_GOLDENS=1 to create)";
            return;
        }
        std::string tag, line;
        while (in >> tag && std::getline(in, line))
            golden[tag] = line;
    }

    void
    check(const workloads::KernelInstance &kernel,
          const std::string &tag, SimConfig::Buffering buffering,
          bool greedy, bool timeMux)
    {
        scalar::MemImage denseMem;
        auto dense =
            runCase(kernel, buffering, greedy, timeMux,
                    SimConfig::Scheduler::DenseScan, 0, denseMem);
        // threads = 0: one inline region; threads = 2: two regions
        // on two persistent workers.
        for (int threads : {0, 2}) {
            scalar::MemImage parMem;
            auto par = runCase(kernel, buffering, greedy, timeMux,
                               SimConfig::Scheduler::ParallelRegions,
                               threads, parMem);
            expectSameStats(dense, par, denseMem, parMem,
                            tag + "/threads=" +
                                std::to_string(threads));
        }

        std::ostringstream line;
        line << " fp=" << std::hex << fingerprint(dense, denseMem)
             << std::dec << " cycles=" << dense.stats.cycles
             << " fires=" << dense.stats.totalPeFires()
             << " deadlocked=" << (dense.deadlocked ? 1 : 0);
        if (update) {
            out << tag << line.str() << "\n";
            return;
        }
        auto it = golden.find(tag);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden entry for " << tag
                          << " (regenerate golden_stats.txt)";
        } else {
            EXPECT_EQ(it->second, line.str()) << tag;
        }
    }

    void
    finish()
    {
        if (!update)
            return;
        std::ofstream outFile(GOLDEN_STATS_FILE);
        ASSERT_TRUE(outFile.good()) << GOLDEN_STATS_FILE;
        outFile << out.str();
        GTEST_SKIP() << "goldens regenerated, rerun to verify";
    }

  private:
    bool update = false;
    std::map<std::string, std::string> golden;
    std::ostringstream out;
};

} // namespace

TEST(GoldenStats, ParallelRegionsMatchesDenseScanEverywhere)
{
    setQuiet(true);
    GoldenHarness harness;

    for (const auto &kernel : allKernels()) {
        for (const auto &v : kVariants) {
            harness.check(kernel, kernel.name + v.suffix,
                          v.buffering, v.greedy, /*timeMux=*/false);
        }
    }

    // Time-multiplexed configuration: unrolled Dither
    // over-subscribes the arith PEs, so planTimeMultiplexing folds
    // cold operators onto shared PEs (share groups exercise the
    // mux-switch / share-conflict accounting).
    auto dither = workloads::makeDither(16, 8, 2);
    harness.check(dither, "dither_u2/dst/sync/tm",
                  SimConfig::Buffering::Destination,
                  /*greedy=*/false, /*timeMux=*/true);

    harness.finish();
}
