/**
 * @file
 * Portfolio-mapper wall-clock and placement-quality report.
 *
 * Times mapGraph() with the default 4-seed portfolio on the largest
 * kernel that fits the 8x8 fabric (spmspmd at unroll 1, 53
 * operators) and records the final placement cost of every shipped
 * kernel. Writes BENCH_mapper.json so CI can spot regressions in
 * either axis against bench/mapper_seed_baseline.json, which holds
 * the same measurements for the pre-portfolio mapper (one
 * 20000-iteration anneal, commit d1b9f34).
 *
 * Methodology: each timing is `reps` runs inside one process,
 * reported as the best (the statistic least distorted by other load
 * on a shared host) and the median (the spread). The record carries
 * the CPUs this process may use (`host_threads`; the portfolio's
 * `jobs` is clamped to it) and the build type, since both move the
 * numbers. The seed baseline was captured interleaved with the
 * candidate on one host; the speedup line compares best against
 * best. Timings use jobs=4: on the small gate kernels that is
 * mostly the per-call thread-pool start-up, so their serial speed is
 * better read from `pstool map` (jobs=1, with per-phase times).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "compiler/compile.hh"
#include "mapper/mapper.hh"
#include "runner/pool.hh"
#include "sim/report.hh"
#include "sir/parser.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;

namespace {

dfg::Graph
largestMappableGraph()
{
    auto k = workloads::makeSpMSpMd(64, 0.89, 4);
    compiler::CompileOptions opts;
    opts.variant = compiler::ArchVariant::Pipestitch;
    opts.unrollFactor = 1;
    return compiler::compileProgram(k.prog, k.liveIns, opts).graph;
}

void
BM_MapPortfolio(benchmark::State &state)
{
    setQuiet(true);
    auto g = largestMappableGraph();
    fabric::Fabric fab;
    mapper::MapperOptions opts;
    opts.jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto m = mapper::mapGraph(g, fab, opts);
        benchmark::DoNotOptimize(m.totalWireLength);
    }
}
BENCHMARK(BM_MapPortfolio)->Arg(1)->Arg(4);

struct MapResult
{
    double bestMs = 0;
    double medianMs = 0;
    int64_t cost = 0;
    int operators = 0;
    bool success = false;
};

MapResult
timeMap(const dfg::Graph &g, int reps)
{
    fabric::Fabric fab;
    mapper::MapperOptions opts;
    opts.jobs = 4;
    MapResult r;
    r.operators = g.size();
    std::vector<double> ms;
    for (int rep = 0; rep < reps; rep++) {
        auto t0 = std::chrono::steady_clock::now();
        auto m = mapper::mapGraph(g, fab, opts);
        auto t1 = std::chrono::steady_clock::now();
        r.success = m.success;
        r.cost = static_cast<int64_t>(m.cost);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         t1 - t0)
                         .count());
    }
    std::sort(ms.begin(), ms.end());
    r.bestMs = ms.front();
    r.medianMs = ms[ms.size() / 2];
    return r;
}

void
writeMapperReport()
{
    setQuiet(true);
    const int reps = 9;

    FILE *f = std::fopen("BENCH_mapper.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_mapper.json\n");
        return;
    }
    std::fprintf(f,
                 "{\n  \"schema_version\": %d,\n"
                 "  \"benchmark\": \"mapper_portfolio\",\n"
                 "  \"host_threads\": %d,\n"
                 "  \"build_type\": \"%s\",\n"
                 "  \"seeds\": 4,\n  \"jobs\": 4,\n"
                 "  \"kernels\": [\n",
                 sim::kJsonSchemaVersion, runner::defaultJobs(),
                 PS_BUILD_TYPE);

    // Placement cost of every shipped kernel (the CI parity gate
    // reads the same numbers from pstool map).
    const char *files[] = {"count_nonzeros", "histogram",
                           "prefix_count", "spmv", "vector_scale"};
    for (const char *name : files) {
        std::string path =
            std::string("kernels/") + name + ".sir";
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        auto parsed = sir::parseSir(ss.str(), path);
        std::vector<sir::Word> liveIns(
            parsed.program.liveIns.size(), 0);
        compiler::CompileOptions copts;
        auto res = compiler::compileProgram(parsed.program,
                                            liveIns, copts);
        MapResult r = timeMap(res.graph, reps);
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"operators\": %d, "
                     "\"success\": %s, \"cost\": %lld, "
                     "\"reps\": %d, \"best_ms\": %.3f, "
                     "\"median_ms\": %.3f},\n",
                     name, r.operators,
                     r.success ? "true" : "false",
                     static_cast<long long>(r.cost), reps, r.bestMs,
                     r.medianMs);
        std::printf("mapper %-16s ops=%3d cost=%4lld "
                    "best=%6.3f ms median=%6.3f ms\n",
                    name, r.operators,
                    static_cast<long long>(r.cost), r.bestMs,
                    r.medianMs);
    }

    // Wall-clock headline: largest mappable kernel. Many more reps
    // than the small kernels: contention on the shared host comes
    // in multi-second bursts, and a longer best-of-N window is the
    // cheapest way to sample between them.
    auto g = largestMappableGraph();
    const int bigReps = 25;
    MapResult big = timeMap(g, bigReps);
    std::fprintf(f,
                 "    {\"kernel\": \"spmspmd_u1\", "
                 "\"operators\": %d, \"success\": %s, "
                 "\"cost\": %lld, \"reps\": %d, \"best_ms\": %.3f, "
                 "\"median_ms\": %.3f}\n  ],\n",
                 big.operators, big.success ? "true" : "false",
                 static_cast<long long>(big.cost), bigReps,
                 big.bestMs, big.medianMs);

    // Baseline (bench/mapper_seed_baseline.json): the seed mapper's
    // best-of-5 on this kernel, measured interleaved on this host.
    const double seedBestMs = 2.07;
    double speedup = big.bestMs > 0 ? seedBestMs / big.bestMs : 0;
    std::fprintf(f,
                 "  \"largest_kernel\": \"spmspmd_u1\",\n"
                 "  \"seed_baseline_best_ms\": %.3f,\n"
                 "  \"speedup_vs_seed\": %.2f\n}\n",
                 seedBestMs, speedup);
    std::fclose(f);
    std::printf("mapper spmspmd_u1       ops=%3d cost=%4lld "
                "best=%6.3f ms  speedup=%.2fx vs seed %.2f ms\n",
                big.operators, static_cast<long long>(big.cost),
                big.bestMs, speedup, seedBestMs);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeMapperReport();
    return 0;
}
