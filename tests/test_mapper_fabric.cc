/**
 * @file
 * Fabric, area-model, and mapper tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "core/system.hh"
#include "fabric/area.hh"
#include "fabric/fabric.hh"
#include "base/random.hh"
#include "mapper/mapper.hh"
#include "mapper/metropolis.hh"
#include "mapper/tiled.hh"
#include "sir/parser.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using namespace pipestitch::fabric;
using compiler::ArchVariant;

TEST(Fabric, PaperPeMix)
{
    Fabric fab;
    EXPECT_EQ(fab.numPes(), 64);
    EXPECT_EQ(fab.pesOfClass(PeClass::Arith).size(), 16u);
    EXPECT_EQ(fab.pesOfClass(PeClass::Multiplier).size(), 2u);
    EXPECT_EQ(fab.pesOfClass(PeClass::ControlFlow).size(), 28u);
    EXPECT_EQ(fab.pesOfClass(PeClass::Memory).size(), 14u);
    EXPECT_EQ(fab.pesOfClass(PeClass::Stream).size(), 4u);
}

TEST(Fabric, CoordRoundTrip)
{
    Fabric fab;
    for (int pe = 0; pe < fab.numPes(); pe++)
        EXPECT_EQ(fab.peAt(fab.coordOf(pe)), pe);
}

TEST(Fabric, Manhattan)
{
    EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
    EXPECT_EQ(manhattan({5, 2}, {5, 2}), 0);
    EXPECT_EQ(manhattan({7, 0}, {0, 7}), 14);
}

TEST(Fabric, DescribeShowsGrid)
{
    Fabric fab;
    std::string grid = fab.describe();
    EXPECT_EQ(std::count(grid.begin(), grid.end(), 'M'), 14);
    EXPECT_EQ(std::count(grid.begin(), grid.end(), 'S'), 4);
    EXPECT_EQ(std::count(grid.begin(), grid.end(), 'X'), 2);
}

TEST(Fabric, RejectsBadMix)
{
    FabricConfig cfg;
    cfg.peMix = {10, 2, 28, 14, 4}; // sums to 58, not 64
    EXPECT_DEATH({ Fabric fab(cfg); }, "PE mix");
}

// --- area ---------------------------------------------------------------

TEST(Area, PipestitchNearPaperBreakdown)
{
    Fabric fab;
    auto a = computeArea(fab, AreaVariant::Pipestitch);
    EXPECT_NEAR(a.totalMm2(), 1.0, 0.15); // ~1.0 mm²
    double pePct = a.peUm2 / a.totalUm2();
    double nocPct = a.nocUm2 / a.totalUm2();
    double memPct = a.memUm2 / a.totalUm2();
    EXPECT_NEAR(pePct, 0.23, 0.05);
    EXPECT_NEAR(nocPct, 0.40, 0.06);
    EXPECT_NEAR(memPct, 0.33, 0.05);
}

TEST(Area, PipestitchFabricCostsMoreThanRipTide)
{
    Fabric fab;
    auto pipe = computeArea(fab, AreaVariant::Pipestitch);
    auto rip = computeArea(fab, AreaVariant::RipTide);
    double ratio = (pipe.peUm2 + pipe.nocUm2) /
                   (rip.peUm2 + rip.nocUm2);
    EXPECT_GT(ratio, 1.04);
    EXPECT_LT(ratio, 1.15); // paper: 1.10x
}

TEST(Area, GrowsWithBufferDepth)
{
    Fabric fab;
    double d4 = computeArea(fab, AreaVariant::Pipestitch, 4).peUm2;
    double d8 = computeArea(fab, AreaVariant::Pipestitch, 8).peUm2;
    double d16 = computeArea(fab, AreaVariant::Pipestitch, 16).peUm2;
    EXPECT_LT(d4, d8);
    EXPECT_LT(d8, d16);
}

// --- mapper -------------------------------------------------------------

namespace {

dfg::Graph
compiledGraph(const workloads::KernelInstance &k, ArchVariant v)
{
    compiler::CompileOptions opts;
    opts.variant = v;
    return compiler::compileProgram(k.prog, k.liveIns, opts).graph;
}

} // namespace

TEST(Mapper, PlacesEveryPaperKernelEveryVariant)
{
    setQuiet(true);
    Fabric fab;
    for (auto &k : workloads::paperKernels(3)) {
        for (ArchVariant v :
             {ArchVariant::RipTide, ArchVariant::Pipestitch,
              ArchVariant::PipeCFiN, ArchVariant::PipeCFoP}) {
            auto g = compiledGraph(k, v);
            auto m = mapper::mapGraph(g, fab);
            ASSERT_TRUE(m.success)
                << k.name << " " << compiler::archVariantName(v)
                << ": " << m.error;
            EXPECT_LE(m.maxLinkLoad, fab.config().linkCapacity);
        }
    }
}

TEST(Mapper, RespectsPeClasses)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpMSpVd(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m = mapper::mapGraph(g, fab);
    ASSERT_TRUE(m.success);
    for (dfg::NodeId id = 0; id < g.size(); id++) {
        const auto &node = g.at(id);
        int pe = m.peOf[static_cast<size_t>(id)];
        if (node.kind == dfg::NodeKind::Trigger || node.cfInNoc) {
            EXPECT_EQ(pe, -1);
            continue;
        }
        ASSERT_GE(pe, 0);
        EXPECT_EQ(fab.classAt(pe), node.peClass())
            << "node " << id;
    }
    // No PE hosts two nodes.
    std::set<int> used;
    for (int pe : m.peOf) {
        if (pe < 0)
            continue;
        EXPECT_TRUE(used.insert(pe).second) << "PE " << pe;
    }
}

TEST(Mapper, DeterministicForFixedSeed)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeDither(16, 8, 2);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m1 = mapper::mapGraph(g, fab);
    auto m2 = mapper::mapGraph(g, fab);
    ASSERT_TRUE(m1.success && m2.success);
    EXPECT_EQ(m1.peOf, m2.peOf);
    EXPECT_EQ(m1.totalWireLength, m2.totalWireLength);
}

TEST(Mapper, FailsCleanlyWhenOverSubscribed)
{
    setQuiet(true);
    FabricConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    cfg.peMix = {1, 1, 1, 1, 0};
    Fabric tiny(cfg);
    auto k = workloads::makeSpMSpVd(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m = mapper::mapGraph(g, tiny);
    EXPECT_FALSE(m.success);
    EXPECT_FALSE(m.error.empty());
}

TEST(Mapper, AnnealImprovesWirelength)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpMSpMd(8, 0.8, 2);
    auto g = compiledGraph(k, ArchVariant::PipeCFoP);
    mapper::MapperOptions fast;
    fast.annealIterations = 0;
    mapper::MapperOptions slow;
    slow.annealIterations = 20000;
    auto m0 = mapper::mapGraph(g, fab, fast);
    auto m1 = mapper::mapGraph(g, fab, slow);
    // Annealed placement should not be worse.
    if (m0.success && m1.success) {
        EXPECT_LE(m1.totalWireLength, m0.totalWireLength);
    }
}

TEST(Mapper, BoundPruneTrimsPortfolioToOneSeed)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpmv(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    mapper::MapperOptions opts;
    opts.portfolioSeeds = 4;
    opts.boundPruneCycles = 100;
    auto m = mapper::mapGraph(g, fab, opts);
    ASSERT_TRUE(m.success);
    // With a certified throughput floor in hand, placement polish
    // cannot buy cycles: the portfolio collapses to one member
    // (the greedy incumbent or seed 0) and nothing is halved.
    EXPECT_LE(m.winningSeed, 0);
    EXPECT_EQ(m.seedsHalved, 0);
    EXPECT_EQ(m.seedsEarlyExited, 0);
}

TEST(Mapper, HopCountsFeedEnergy)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpmv(16, 0.8, 1);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    auto m = mapper::mapGraph(g, fab);
    ASSERT_TRUE(m.success);
    EXPECT_GT(m.avgHops, 0.0);
    EXPECT_LT(m.avgHops, 14.0); // bounded by mesh diameter
}

TEST(Mapper, PortfolioBitIdenticalAcrossJobs)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpMSpMd(16, 0.85, 2);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    mapper::Mapping ref;
    // Negative values force real worker threads past the host-core
    // clamp, so the concurrent path runs even on a 1-core host
    // (and under TSan in CI).
    for (int jobs : {1, 2, 8, -2, -4}) {
        mapper::MapperOptions opts;
        opts.jobs = jobs;
        auto m = mapper::mapGraph(g, fab, opts);
        ASSERT_TRUE(m.success) << "jobs=" << jobs;
        if (jobs == 1) {
            ref = m;
            continue;
        }
        EXPECT_EQ(m.peOf, ref.peOf) << "jobs=" << jobs;
        EXPECT_EQ(m.routerOf, ref.routerOf) << "jobs=" << jobs;
        EXPECT_EQ(m.totalWireLength, ref.totalWireLength);
        EXPECT_EQ(m.cost, ref.cost);
        EXPECT_EQ(m.winningSeed, ref.winningSeed);
    }
}

TEST(Mapper, RngSeedReproduces)
{
    setQuiet(true);
    Fabric fab;
    auto k = workloads::makeSpmv(16, 0.8, 2);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    mapper::MapperOptions opts;
    opts.rngSeed = 0xfeedbeef;
    auto m1 = mapper::mapGraph(g, fab, opts);
    auto m2 = mapper::mapGraph(g, fab, opts);
    ASSERT_TRUE(m1.success && m2.success);
    EXPECT_EQ(m1.peOf, m2.peOf);
    EXPECT_EQ(m1.routerOf, m2.routerOf);
    EXPECT_EQ(m1.totalWireLength, m2.totalWireLength);
}

TEST(Mapper, DeltaCostMatchesFromScratch)
{
    // Fuzz the incremental cost maintenance: with
    // verifyIncremental on, every anneal step cross-checks the
    // cached wirelength, per-node partials, link loads, and
    // overflow against a from-scratch recompute and aborts on any
    // divergence. Varied graphs, variants, and seeds exercise
    // swaps, NoC-hosted CF moves, and the congestion-armed tail.
    setQuiet(true);
    Fabric fab;
    const workloads::KernelInstance kernels[] = {
        workloads::makeSpmv(12, 0.7, 2),
        workloads::makeSpMSpVd(12, 0.8, 1),
        workloads::makeDither(8, 8, 2),
    };
    for (const auto &k : kernels) {
        for (ArchVariant v :
             {ArchVariant::Pipestitch, ArchVariant::PipeCFoP}) {
            auto g = compiledGraph(k, v);
            for (uint64_t seed : {1ull, 99ull}) {
                mapper::MapperOptions opts;
                opts.rngSeed = seed;
                opts.annealIterations = 600;
                opts.portfolioSeeds = 2;
                opts.congestionPhase = 0.5;
                opts.verifyIncremental = true;
                auto m = mapper::mapGraph(g, fab, opts);
                ASSERT_TRUE(m.success)
                    << k.name << " seed " << seed << ": "
                    << m.error;
            }
        }
    }
}

TEST(Mapper, UnmappableReportsImplicatedNodes)
{
    setQuiet(true);
    // A fabric whose links carry a single wire each cannot route a
    // real kernel's multicast trees; the mapper must fail with the
    // structured "unmappable" error naming the nodes on the
    // overloaded routes after its capped targeted restarts.
    FabricConfig cramped;
    cramped.width = 4;
    cramped.height = 4;
    cramped.peMix = {4, 1, 3, 6, 2};
    cramped.memBanks = 4;
    cramped.linkCapacity = 1;
    Fabric fab(cramped);
    auto k = workloads::makeSpmv(8, 0.7, 6);
    auto g = compiledGraph(k, ArchVariant::Pipestitch);
    mapper::MapperOptions opts;
    opts.maxTargetedRestarts = 2;
    auto m = mapper::mapGraph(g, fab, opts);
    ASSERT_FALSE(m.success);
    EXPECT_NE(m.error.find("unmappable"), std::string::npos)
        << m.error;
    EXPECT_FALSE(m.failedNodes.empty());
    for (dfg::NodeId id : m.failedNodes) {
        EXPECT_GE(id, 0);
        EXPECT_LT(id, g.size());
    }
}

TEST(Fabric, CustomMixesWork)
{
    setQuiet(true);
    // A 4x4 edge fabric with a custom PE mix still runs kernels
    // that fit it.
    FabricConfig small;
    small.width = 4;
    small.height = 4;
    small.peMix = {4, 1, 3, 6, 2};
    small.memBanks = 4;
    Fabric fab(small);
    EXPECT_EQ(fab.numPes(), 16);

    auto kernel = workloads::makeSpmv(8, 0.7, 6);
    RunConfig cfg;
    cfg.variant = ArchVariant::Pipestitch;
    cfg.fabric = small;
    auto run = runOnFabric(kernel, cfg); // golden-checked
    EXPECT_TRUE(run.mapping.success);
    EXPECT_GT(run.cycles(), 0);
}

// --- golden placements --------------------------------------------------
//
// The mapper's output is pinned across commits: every shipped .sir
// kernel, smallKernels(1) and paperKernels(1), each under Pipestitch
// and RipTide, plus one time-multiplexed and one tiled case, are
// fingerprinted against tests/golden_mappings.txt. A speed change to
// the anneal must leave every RNG draw and accept decision — and so
// every fingerprint — unchanged. Regenerate (only for an intended
// quality change) by running the test binary with
// PS_UPDATE_GOLDENS=1 and --gtest_filter=Mapper.GoldenPlacements.

namespace {

uint64_t
fnv1a(uint64_t h, int64_t v)
{
    for (int byte = 0; byte < 8; byte++) {
        h ^= static_cast<uint64_t>(v >> (byte * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
mappingFingerprint(const mapper::Mapping &m)
{
    uint64_t h = 14695981039346656037ull;
    for (int pe : m.peOf)
        h = fnv1a(h, pe);
    for (int r : m.routerOf)
        h = fnv1a(h, r);
    for (const auto &ports : m.hopsOf) {
        h = fnv1a(h, static_cast<int64_t>(ports.size()));
        for (int hops : ports)
            h = fnv1a(h, hops);
    }
    h = fnv1a(h, std::bit_cast<int64_t>(m.cost));
    h = fnv1a(h, m.totalWireLength);
    h = fnv1a(h, m.winningSeed);
    h = fnv1a(h, m.seedsEarlyExited);
    h = fnv1a(h, m.seedsHalved);
    return h;
}

std::string
goldenLine(const mapper::Mapping &m)
{
    std::ostringstream line;
    line << " fp=" << std::hex << mappingFingerprint(m) << std::dec
         << " success=" << (m.success ? 1 : 0) << " cost=" << m.cost
         << " wl=" << m.totalWireLength << " seed=" << m.winningSeed;
    return line.str();
}

/** One mapper input: a graph plus the options that vary per case. */
struct GoldenCase
{
    std::string tag;
    dfg::Graph graph;
    compiler::ShareGroups shareGroups;
    fabric::Topology topo; // default: the paper's single 8x8 grid
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    const ArchVariant variants[] = {ArchVariant::Pipestitch,
                                    ArchVariant::RipTide};

    std::vector<std::filesystem::path> sirFiles;
    for (const auto &entry :
         std::filesystem::directory_iterator(KERNEL_DIR)) {
        if (entry.path().extension() == ".sir")
            sirFiles.push_back(entry.path());
    }
    std::sort(sirFiles.begin(), sirFiles.end());
    for (const auto &path : sirFiles) {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        auto parsed = sir::parseSir(ss.str(), path.string());
        // Unbound live-ins default to 0, as in `pstool map`.
        std::vector<sir::Word> liveIns(
            parsed.program.liveIns.size(), 0);
        for (ArchVariant v : variants) {
            compiler::CompileOptions opts;
            opts.variant = v;
            cases.push_back(
                {"sir/" + path.stem().string() + "/" +
                     compiler::archVariantName(v),
                 compiler::compileProgram(parsed.program, liveIns,
                                          opts)
                     .graph,
                 {},
                 {}});
        }
    }
    auto addWorkloads = [&](const char *set, auto &&kernels) {
        for (const auto &k : kernels) {
            for (ArchVariant v : variants) {
                cases.push_back({std::string(set) + "/" + k.name +
                                     "/" +
                                     compiler::archVariantName(v),
                                 compiledGraph(k, v),
                                 {},
                                 {}});
            }
        }
    };
    addWorkloads("small", workloads::smallKernels(1));
    addWorkloads("paper", workloads::paperKernels(1));

    // Time-multiplexed: unrolled Dither over-subscribes the arith
    // PEs, so share groups fold cold operators onto shared PEs.
    {
        auto k = workloads::makeDither(16, 8, 2);
        compiler::CompileOptions opts;
        opts.variant = ArchVariant::Pipestitch;
        opts.unrollFactor = 2;
        auto g = compiler::compileProgram(k.prog, k.liveIns, opts)
                     .graph;
        auto groups = compiler::planTimeMultiplexing(
            g, fabric::FabricConfig{});
        EXPECT_FALSE(groups.empty());
        cases.push_back({"tm/dither_u2/Pipestitch", std::move(g),
                         std::move(groups),
                         {}});
    }
    // Narrow links: the congestion term arms during the anneal and
    // the repair stage runs.
    {
        fabric::Topology narrow;
        narrow.tile.linkCapacity = 3;
        cases.push_back(
            {"cap3/SpMSpMd/Pipestitch",
             compiledGraph(workloads::makeSpMSpMd(8, 0.8, 1),
                           ArchVariant::Pipestitch),
             {},
             narrow});
    }
    // Tiled: partition-then-place onto a 2x2 grid of 4x4 tiles.
    {
        fabric::Topology tiles;
        std::string err;
        EXPECT_TRUE(
            fabric::parseFabricSpec("4x4,tiles=2x2", tiles, &err))
            << err;
        cases.push_back(
            {"tiled/spmv/Pipestitch",
             compiledGraph(workloads::makeSpmv(16, 0.8, 1),
                           ArchVariant::Pipestitch),
             {},
             tiles});
    }
    return cases;
}

mapper::Mapping
mapCase(const GoldenCase &c, int jobs)
{
    mapper::MapperOptions opts;
    opts.jobs = jobs;
    opts.shareGroups = c.shareGroups;
    if (!c.topo.singleTile())
        return mapper::mapGraphTiled(c.graph, c.topo, opts).merged;
    return mapper::mapGraph(c.graph, Fabric(c.topo), opts);
}

} // namespace

TEST(Mapper, GoldenPlacements)
{
    setQuiet(true);
    const bool update = std::getenv("PS_UPDATE_GOLDENS") != nullptr;
    std::map<std::string, std::string> golden;
    if (!update) {
        std::ifstream in(GOLDEN_MAPPINGS_FILE);
        ASSERT_TRUE(in.good())
            << "missing " << GOLDEN_MAPPINGS_FILE
            << " (run with PS_UPDATE_GOLDENS=1 to create)";
        std::string tag, line;
        while (in >> tag && std::getline(in, line))
            golden[tag] = line;
    }

    std::ostringstream out;
    size_t checked = 0;
    for (const GoldenCase &c : goldenCases()) {
        // Default options, then forced portfolio worker threads:
        // both must reproduce the recorded placement exactly.
        std::string line = goldenLine(mapCase(c, 1));
        EXPECT_EQ(goldenLine(mapCase(c, -2)), line)
            << c.tag << " jobs=-2";
        if (update) {
            out << c.tag << line << "\n";
            continue;
        }
        auto it = golden.find(c.tag);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden entry for " << c.tag
                          << " (regenerate golden_mappings.txt)";
            continue;
        }
        EXPECT_EQ(it->second, line) << c.tag;
        checked++;
    }
    if (update) {
        std::ofstream outFile(GOLDEN_MAPPINGS_FILE);
        ASSERT_TRUE(outFile.good()) << GOLDEN_MAPPINGS_FILE;
        outFile << out.str();
        GTEST_SKIP() << "goldens regenerated, rerun to verify";
    }
    EXPECT_EQ(checked, golden.size()) << "stale golden entries";
}

TEST(Mapper, MetropolisBoundsMatchExp)
{
    // The bracketed acceptance test must decide exactly like the
    // plain `u < exp(-delta / temp)` it replaces: random draws over
    // the whole priced range, plus draws one ulp either side of the
    // exp value where the bounds must hand over to std::exp.
    Rng rng(0x5eed);
    int64_t mismatches = 0;
    for (int i = 0; i < 200000; i++) {
        double temp = 0.01 + 4.0 * rng.nextDouble();
        double delta = rng.nextBool(0.5)
                           ? static_cast<double>(
                                 1 + rng.nextBounded(40))
                           : 30.0 * temp * rng.nextDouble();
        if (delta >= 30.0 * temp)
            continue;
        double e = std::exp(-delta / temp);
        for (double u : {rng.nextDouble(), e,
                         std::nextafter(e, 0.0),
                         std::nextafter(e, 1.0), e * (1 - 1e-9),
                         e * (1 + 1e-9)}) {
            if (u >= 1.0)
                continue;
            mismatches +=
                mapper::metropolisAccepts(u, delta, temp) != (u < e);
        }
    }
    EXPECT_EQ(mismatches, 0);
}
