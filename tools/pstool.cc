/**
 * @file
 * pstool — the command-line driver for the Pipestitch toolchain.
 *
 * Subcommands are self-registering entries in kCommands (name →
 * handler + help); `pstool help` prints the generated synopsis.
 * The global `--json` flag switches every command's primary output
 * to machine-readable JSON.
 *
 *   pstool compile <file.sir>   compile and report fit/threading
 *   pstool run <file.sir>       compile, map, simulate, verify
 *   pstool scalar <file.sir>    sequential interpreter only
 *   pstool bench-sim <file.sir> time the parallel engine against
 *                               the DenseScan reference
 *   pstool bench-sim-par        parallel engine vs DenseScan oracle
 *                               sweep; writes BENCH_sim_par.json
 *   pstool trace <file.sir>     simulate under observation; write a
 *                               Chrome-trace JSON (chrome://tracing
 *                               or https://ui.perfetto.dev) and a
 *                               stall-attribution breakdown
 *   pstool lint <file.sir>      static analysis only: deadlock,
 *                               token-balance, and placement rules
 *                               (docs/static-analysis.md); with
 *                               --cross-check also simulates and
 *                               fails on analyzer/simulator
 *                               disagreement (deadlock verdict and
 *                               the certified throughput bound)
 *   pstool bound <file.sir>     certified static throughput bound
 *                               (PS-T analysis) vs the simulated
 *                               cycle count: every bound term, the
 *                               binding constraint, and its fix
 *                               hint; nonzero exit when the
 *                               simulation beats the bound
 *   pstool map <file.sir>       run the portfolio mapper alone and
 *                               report placement quality (cost,
 *                               wirelength, congestion, winning
 *                               seed) plus wall-clock; nonzero exit
 *                               if the kernel does not map or the
 *                               emitted placement fails lint
 *   pstool figures              reproduce every paper figure in one
 *                               process, concurrently (takes no
 *                               .sir file; see --jobs/--smoke/
 *                               --cache-dir/--out-dir/--only)
 *   pstool bench-tiles          batched data-parallel SpMV shards
 *                               across tile arrangements; writes the
 *                               scaling curve to BENCH_tiles.json
 *
 * Variants: riptide, pipestitch (default), pipesb, pipecfin,
 * pipecfop. The fabric defaults to the paper's single 8×8 grid;
 * `--fabric=WxH[,tiles=TXxTY,...]` (docs/fabric.md) retargets any
 * subcommand that maps or simulates.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/placement.hh"
#include "analysis/throughput.hh"
#include "base/logging.hh"
#include "compiler/timemux.hh"
#include "core/batch.hh"
#include "core/system.hh"
#include "dfg/dot.hh"
#include "figures/figures.hh"
#include "mapper/tiled.hh"
#include "runner/serve.hh"
#include "trace/json.hh"
#include "workloads/dnn.hh"
#include "workloads/kernels.hh"
#include "runner/sweep.hh"
#include "runner/pool.hh"
#include "sim/parallel.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sir/parser.hh"
#include "sir/printer.hh"
#include "trace/chrome_trace.hh"
#include "trace/observer.hh"
#include "trace/stall_timeline.hh"

using namespace pipestitch;

namespace {

struct Options
{
    std::string command;
    std::string file;
    compiler::ArchVariant variant =
        compiler::ArchVariant::Pipestitch;
    int depth = 4;
    int unroll = 1;
    bool dot = false;
    bool report = false;
    bool trace = false;
    bool timeMultiplex = false;
    bool json = false;
    bool noMap = false;     ///< lint: skip mapping + placement rules
    bool crossCheck = false; ///< lint: simulate and compare verdicts
    int seeds = 4;            ///< map: portfolio restarts
    int jobs = 1;             ///< map/bench-sim: worker threads
    uint64_t seed = 1;        ///< map: base RNG seed
    int iterations = 20000;   ///< map: total anneal budget
    /** Fabric topology from --fabric=WxH[,tiles=TXxTY,...] and the
     *  --tiles=TXxTY shorthand; defaults to the single 8×8 grid. */
    fabric::Topology topo;
    std::string out;          ///< trace: output file
    std::string stallsOut;    ///< trace: stall-timeline JSON file
    int interval = 256;       ///< trace: stall bucket width
    std::vector<std::pair<std::string, sir::Word>> liveIns;
    std::vector<std::pair<std::string, std::vector<sir::Word>>>
        inits;
    std::vector<std::string> dumps;
};

using ParseResult = sir::ParseResult;

struct Command
{
    const char *name;
    const char *synopsis; ///< command-specific options
    const char *help;     ///< one-line description
    int (*handler)(const Options &, const ParseResult &);
};

int cmdCompile(const Options &, const ParseResult &);
int cmdRun(const Options &, const ParseResult &);
int cmdScalar(const Options &, const ParseResult &);
int cmdBenchSim(const Options &, const ParseResult &);
int cmdTrace(const Options &, const ParseResult &);
int cmdLint(const Options &, const ParseResult &);
int cmdBound(const Options &, const ParseResult &);
int cmdMap(const Options &, const ParseResult &);

constexpr Command kCommands[] = {
    {"compile", "[--variant=V --unroll=N --dot]",
     "compile and report threading/II/operator-count/fabric fit",
     cmdCompile},
    {"run",
     "[--variant=V --depth=N --unroll=N --tm --report --trace "
     "--fabric=S --tiles=TXxTY]",
     "compile, map, simulate, verify against the interpreter",
     cmdRun},
    {"scalar", "", "run the sequential interpreter only",
     cmdScalar},
    {"bench-sim",
     "[--variant=V --depth=N --unroll=N --jobs=N]",
     "time the parallel engine against the DenseScan reference "
     "(must be bit-identical)",
     cmdBenchSim},
    {"trace",
     "[--variant=V --depth=N --unroll=N --out=F --stalls=F "
     "--interval=N]",
     "simulate under observation; write Chrome-trace JSON and "
     "stall attribution",
     cmdTrace},
    {"lint",
     "[--variant=V --depth=N --unroll=N --tm --no-map "
     "--cross-check --fabric=S --tiles=TXxTY]",
     "run the static analyzer (deadlock/balance/placement rules); "
     "nonzero exit on any error diagnostic",
     cmdLint},
    {"bound",
     "[--variant=V --depth=N --unroll=N --tm --fabric=S "
     "--tiles=TXxTY]",
     "report the certified static throughput bound against the "
     "simulated run: every term, the binding constraint, and its "
     "fix hint; nonzero exit if the simulation beats the bound",
     cmdBound},
    {"map",
     "[--variant=V --unroll=N --tm --seeds=N --jobs=N --seed=N "
     "--iters=N --fabric=S --tiles=TXxTY]",
     "run the portfolio mapper alone; report placement quality and "
     "wall-clock, nonzero exit on failure or dirty placement lint",
     cmdMap},
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: pstool <command> <file.sir> "
                         "[options]\n\ncommands:\n");
    for (const Command &c : kCommands) {
        std::fprintf(stderr, "  %-10s %s\n             %s %s\n",
                     c.name, c.help, c.synopsis,
                     *c.synopsis ? "" : "(no extra options)");
    }
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "figures",
        "reproduce every paper figure in one process "
        "(takes no .sir file)",
        "[--jobs=N --smoke --cache-dir=D --out-dir=D "
        "--only=id,id --json]");
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "serve",
        "resident simulation daemon: newline-delimited JSON "
        "requests on stdin, responses on stdout (no .sir file; "
        "see docs/serve.md)",
        "[--jobs=N --queue=N --cache-dir=D --fabric=S --bench=N "
        "--bench-out=F]");
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "bench-tiles",
        "batched SpMV shards across 1x1/1x2/2x2 tile arrangements "
        "(no .sir file); writes the scaling curve JSON",
        "[--shards=N --n=N --seed=N --fabric=S "
        "--out=BENCH_tiles.json]");
    std::fprintf(
        stderr,
        "  %-10s %s\n             %s\n", "bench-sim-par",
        "parallel scheduler vs DenseScan oracle across a job-count "
        "sweep (no .sir file); bit-identity checked at every job "
        "count",
        "[--smoke --reps=N --out=BENCH_sim_par.json]");
    std::fprintf(
        stderr,
        "\ncommon options:\n"
        "  --variant=riptide|pipestitch|pipesb|pipecfin|pipecfop\n"
        "  --fabric=WxH[,tiles=TXxTY][,cap=N][,lat=N]"
        "[,mix=a:m:c:me:s]\n"
        "                          fabric topology (docs/fabric.md)\n"
        "  --tiles=TXxTY           tile arrangement shorthand\n"
        "  --json                  machine-readable primary output\n"
        "  --livein name=value     bind a kernel parameter\n"
        "  --init arr=v0,v1,...    initialize array contents\n"
        "  --dump arr              print an array after the run\n");
    std::exit(2);
}

/**
 * The one shared CLI → fabric::Topology path: `--fabric=` takes the
 * full spec grammar (`WxH[,tiles=TXxTY][,cap=N][,lat=N][,mix=...]`,
 * see fabric::parseFabricSpec), `--tiles=` is the shorthand that
 * only changes the tile arrangement. Validation — including the
 * peMix-sum-matches-grid check — happens in Topology::validate, so
 * every subcommand rejects a bad fabric with the same structured
 * error.
 */
void
parseFabricArg(const std::string &spec, fabric::Topology &topo)
{
    std::string err;
    if (!fabric::parseFabricSpec(spec, topo, &err)) {
        std::fprintf(stderr, "--fabric=%s: %s\n", spec.c_str(),
                     err.c_str());
        std::exit(2);
    }
}

void
parseTilesArg(const std::string &spec, fabric::Topology &topo)
{
    int tx = 0, ty = 0;
    char junk;
    if (std::sscanf(spec.c_str(), "%dx%d%c", &tx, &ty, &junk) != 2 ||
        tx < 1 || ty < 1) {
        std::fprintf(stderr,
                     "--tiles=%s: expected TXxTY (e.g. 2x2)\n",
                     spec.c_str());
        std::exit(2);
    }
    topo.tilesX = tx;
    topo.tilesY = ty;
}

/** Copy the CLI topology into a RunConfig (fabric = per-tile grid,
 *  tile arrangement + inter-tile link model alongside). */
void
applyFabric(const fabric::Topology &topo, RunConfig &cfg)
{
    cfg.fabric = topo.tile;
    cfg.tilesX = topo.tilesX;
    cfg.tilesY = topo.tilesY;
    cfg.interTileLatency = topo.interTileLatency;
    cfg.interTileCapacity = topo.interTileCapacity;
}

compiler::ArchVariant
parseVariant(const std::string &name)
{
    if (name == "riptide")
        return compiler::ArchVariant::RipTide;
    if (name == "pipestitch")
        return compiler::ArchVariant::Pipestitch;
    if (name == "pipesb")
        return compiler::ArchVariant::PipeSB;
    if (name == "pipecfin")
        return compiler::ArchVariant::PipeCFiN;
    if (name == "pipecfop")
        return compiler::ArchVariant::PipeCFoP;
    fatal("unknown variant '%s'", name.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 3)
        usage();
    Options opts;
    opts.command = argv[1];
    opts.file = argv[2];
    for (int i = 3; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--variant=", 0) == 0) {
            opts.variant = parseVariant(value("--variant="));
        } else if (arg.rfind("--depth=", 0) == 0) {
            opts.depth = std::atoi(value("--depth=").c_str());
        } else if (arg.rfind("--unroll=", 0) == 0) {
            opts.unroll = std::atoi(value("--unroll=").c_str());
        } else if (arg.rfind("--out=", 0) == 0) {
            opts.out = value("--out=");
        } else if (arg.rfind("--stalls=", 0) == 0) {
            opts.stallsOut = value("--stalls=");
        } else if (arg.rfind("--interval=", 0) == 0) {
            opts.interval =
                std::atoi(value("--interval=").c_str());
        } else if (arg.rfind("--seeds=", 0) == 0) {
            opts.seeds = std::atoi(value("--seeds=").c_str());
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = std::atoi(value("--jobs=").c_str());
        } else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = static_cast<uint64_t>(
                std::atoll(value("--seed=").c_str()));
        } else if (arg.rfind("--iters=", 0) == 0) {
            opts.iterations =
                std::atoi(value("--iters=").c_str());
        } else if (arg.rfind("--fabric=", 0) == 0) {
            parseFabricArg(value("--fabric="), opts.topo);
        } else if (arg.rfind("--tiles=", 0) == 0) {
            parseTilesArg(value("--tiles="), opts.topo);
        } else if (arg == "--tm") {
            opts.timeMultiplex = true;
        } else if (arg == "--no-map") {
            opts.noMap = true;
        } else if (arg == "--cross-check") {
            opts.crossCheck = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--dot") {
            opts.dot = true;
        } else if (arg == "--report") {
            opts.report = true;
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (arg == "--livein" && i + 1 < argc) {
            std::string spec = argv[++i];
            size_t eq = spec.find('=');
            if (eq == std::string::npos)
                usage();
            opts.liveIns.emplace_back(
                spec.substr(0, eq),
                static_cast<sir::Word>(
                    std::atoll(spec.c_str() + eq + 1)));
        } else if (arg == "--init" && i + 1 < argc) {
            std::string spec = argv[++i];
            size_t eq = spec.find('=');
            if (eq == std::string::npos)
                usage();
            std::vector<sir::Word> values;
            std::stringstream ss(spec.substr(eq + 1));
            std::string item;
            while (std::getline(ss, item, ','))
                values.push_back(static_cast<sir::Word>(
                    std::atoll(item.c_str())));
            opts.inits.emplace_back(spec.substr(0, eq),
                                    std::move(values));
        } else if (arg == "--dump" && i + 1 < argc) {
            opts.dumps.push_back(argv[++i]);
        } else {
            usage();
        }
    }
    return opts;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

workloads::KernelInstance
buildKernel(const Options &opts, const ParseResult &parsed)
{
    workloads::KernelInstance kernel;
    kernel.name = parsed.program.name;
    kernel.prog = sir::Program(parsed.program.name);
    // Deep-copy via clone (Program is move-only in spirit).
    kernel.prog.numRegs = parsed.program.numRegs;
    kernel.prog.arrays = parsed.program.arrays;
    kernel.prog.regNames = parsed.program.regNames;
    kernel.prog.liveIns = parsed.program.liveIns;
    kernel.prog.memWords = parsed.program.memWords;
    kernel.prog.body = sir::cloneStmts(parsed.program.body);

    // Bind live-ins by name, defaulting to 0 with a warning.
    for (sir::Reg r : kernel.prog.liveIns) {
        const std::string &name =
            kernel.prog.regNames[static_cast<size_t>(r)];
        sir::Word value = 0;
        bool found = false;
        for (const auto &[n, v] : opts.liveIns) {
            if (n == name) {
                value = v;
                found = true;
            }
        }
        if (!found)
            warn("live-in '%s' not bound; using 0", name.c_str());
        kernel.liveIns.push_back(value);
    }

    kernel.memory = scalar::makeMemory(kernel.prog);
    for (const auto &[name, values] : opts.inits) {
        auto it = parsed.arrays.find(name);
        if (it == parsed.arrays.end())
            fatal("--init: no array '%s'", name.c_str());
        const auto &arr = kernel.prog.array(it->second);
        if (static_cast<int64_t>(values.size()) > arr.words)
            fatal("--init: %zu values exceed %s[%lld]",
                  values.size(), name.c_str(),
                  static_cast<long long>(arr.words));
        for (size_t i = 0; i < values.size(); i++)
            kernel.memory[static_cast<size_t>(arr.base) + i] =
                values[i];
    }
    return kernel;
}

void
dumpArrays(const Options &opts, const ParseResult &parsed,
           const scalar::MemImage &mem)
{
    for (const auto &name : opts.dumps) {
        auto it = parsed.arrays.find(name);
        if (it == parsed.arrays.end())
            fatal("--dump: no array '%s'", name.c_str());
        const auto &arr = parsed.program.array(it->second);
        std::printf("%s =", name.c_str());
        for (int64_t i = 0; i < arr.words; i++) {
            std::printf(" %d",
                        mem[static_cast<size_t>(arr.base + i)]);
        }
        std::printf("\n");
    }
}

/** Compile the parsed kernel the way bench-sim and trace need it:
 *  no mapping, recommended sim config with the CLI's depth. */
compiler::CompileResult
compileForSim(const Options &opts,
              const workloads::KernelInstance &kernel)
{
    compiler::CompileOptions copts;
    copts.variant = opts.variant;
    copts.unrollFactor = opts.unroll;
    copts.bufferDepth = opts.depth;
    return compiler::compileProgram(kernel.prog, kernel.liveIns,
                                    copts);
}

int
cmdCompile(const Options &opts, const ParseResult &parsed)
{
    compiler::CompileOptions copts;
    copts.variant = opts.variant;
    copts.unrollFactor = opts.unroll;
    // Live-ins default to 0 for a structure-only compile.
    std::vector<sir::Word> liveIns(parsed.program.liveIns.size(),
                                   0);
    for (size_t i = 0; i < parsed.program.liveIns.size(); i++) {
        const std::string &name =
            parsed.program.regNames[static_cast<size_t>(
                parsed.program.liveIns[i])];
        for (const auto &[n, v] : opts.liveIns) {
            if (n == name)
                liveIns[i] = v;
        }
    }
    auto res = compiler::compileProgram(parsed.program, liveIns,
                                        copts);
    if (opts.dot) {
        std::printf("%s", dfg::toDot(res.graph).c_str());
        return 0;
    }
    std::printf("program: %s (%s)\n", parsed.program.name.c_str(),
                compiler::archVariantName(opts.variant));
    std::printf("threaded: %s", res.threaded ? "yes (loops" : "no");
    if (res.threaded) {
        for (int l : res.threadedLoops)
            std::printf(" L%d[II=%d]", l,
                        res.loopII[static_cast<size_t>(l)]);
        std::printf(")");
    }
    std::printf("\noperators: %d", res.graph.size());
    auto counts = res.graph.peClassCounts();
    // Fit check against the whole requested fabric (all tiles).
    fabric::FabricConfig fc = opts.topo.globalConfig();
    bool fits = true;
    static const char *names[] = {"arith", "mult", "cf", "mem",
                                  "stream"};
    std::printf("\nPE demand:");
    for (size_t c = 0; c < counts.size(); c++) {
        std::printf(" %s=%d/%d", names[c], counts[c],
                    fc.peMix[c]);
        fits &= counts[c] <= fc.peMix[c];
    }
    std::printf("\nfits %dx%d fabric: %s\n", fc.width, fc.height,
                fits ? "yes" : "no");
    return 0;
}

int
cmdRun(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    RunConfig cfg;
    cfg.variant = opts.variant;
    cfg.sim.bufferDepth = opts.depth;
    cfg.unrollFactor = opts.unroll;
    cfg.allowTimeMultiplex = opts.timeMultiplex;
    applyFabric(opts.topo, cfg);
    if (opts.trace) {
        // Trace implies an unmapped functional run to keep output
        // readable; the stderr dump flows straight through the
        // unified sim config.
        cfg.map = false;
        cfg.sim.trace = true;
    }
    std::string err;
    FabricRun run = runOnFabric(kernel, cfg, &err);
    if (!err.empty()) {
        if (opts.json) {
            sim::Report r;
            r.add("schema_version", sim::kJsonSchemaVersion)
                .add("kernel", kernel.name)
                .add("status", "error")
                .add("error", err);
            std::printf("%s\n", r.toJson().c_str());
        } else {
            std::fprintf(stderr, "%s: %s\n", kernel.name.c_str(),
                         err.c_str());
        }
        return 1;
    }

    if (opts.json) {
        const auto &st = run.sim.stats;
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel.name)
            .add("variant",
                 compiler::archVariantName(opts.variant))
            .add("cycles", run.cycles())
            .add("seconds", run.seconds)
            .add("energy_pj", run.energy.totalPj())
            .add("edp_pj_s", run.edp)
            .add("ipc", st.ipc())
            .add("threads", st.dispatchSpawns)
            .add("pe_fires", st.totalPeFires())
            .add("noc_cf_fires", st.nocCfFires)
            .add("mem_loads", st.memLoads)
            .add("mem_stores", st.memStores)
            .add("buffer_writes", st.bufferWrites)
            .add("buffer_reads", st.bufferReads)
            .add("bank_conflicts", st.bankConflictStalls)
            .add("mux_switches", st.muxSwitches)
            .add("threaded", run.compiled.threaded)
            .add("operators", run.compiled.graph.size())
            .add("avg_hops", run.mapping.avgHops);
        if (cfg.tiled()) {
            r.add("tiles_x", cfg.tilesX)
                .add("tiles_y", cfg.tilesY)
                .add("inter_tile_tokens", st.interTileTokens);
        }
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::printf("%s on %s: %lld cycles @%.1f MHz, %.1f pJ, "
                    "IPC %.2f, %lld threads\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    static_cast<long long>(run.cycles()),
                    cfg.fabric.clockMHz, run.energy.totalPj(),
                    run.sim.stats.ipc(),
                    static_cast<long long>(
                        run.sim.stats.dispatchSpawns));
        std::printf("%s\n",
                    sim::reportFor(run.sim.stats)
                        .toString()
                        .c_str());
    }
    if (opts.report) {
        fabric::Fabric fab(opts.topo);
        std::printf("\n%s\n%s",
                    sim::utilizationMap(run.compiled.graph, fab,
                                        run.mapping, run.sim.stats)
                        .c_str(),
                    sim::operatorReport(run.compiled.graph,
                                        run.sim.stats)
                        .c_str());
    }
    dumpArrays(opts, parsed, run.memory);
    return 0;
}

/**
 * One timed scheduler sample: a warmup run, then best-of-@p reps on
 * a fresh memory image each time. bench-sim and bench-sim-par share
 * this harness so their numbers are comparable by construction.
 */
struct SimTiming
{
    double ms = 0;
    int64_t cycles = 0;
    sim::SimStats stats;
    bool deadlocked = false;
    /** The ParallelRegions engine's choices and counters
     *  (defaults when the run took another engine). */
    sim::EngineCounters engine;
};

SimTiming
timeSim(const dfg::Graph &graph,
        const workloads::KernelInstance &kernel,
        const sim::SimConfig &cfg, int reps)
{
    SimTiming t;
    for (int rep = 0; rep < reps + 1; rep++) {
        auto mem = kernel.memory;
        mem.resize(static_cast<size_t>(kernel.prog.memWords));
        auto t0 = std::chrono::steady_clock::now();
        auto r = sim::simulate(graph, mem, cfg, &t.engine);
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        t.cycles = r.stats.cycles;
        t.stats = std::move(r.stats);
        t.deadlocked = r.deadlocked;
        if (rep > 0 && (t.ms == 0 || ms < t.ms))
            t.ms = ms;
    }
    return t;
}

int
cmdBenchSim(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    auto res = compileForSim(opts, kernel);
    auto cfg = res.simConfig;
    cfg.bufferDepth = opts.depth;
    const int reps = 3;

    auto refCfg = cfg;
    refCfg.scheduler = sim::SimConfig::Scheduler::DenseScan;
    SimTiming dense = timeSim(res.graph, kernel, refCfg, reps);

    // --jobs caps the parallel engine's regions and threads (its
    // default thread policy picks the rest).
    auto conCfg = cfg;
    conCfg.scheduler = sim::SimConfig::Scheduler::ParallelRegions;
    conCfg.parallelJobs = opts.jobs;
    SimTiming con = timeSim(res.graph, kernel, conCfg, reps);

    // The parallel engine's contract is stronger than matching
    // cycle counts: every stats field must be bit-identical.
    if (!sim::statsEqual(con.stats, dense.stats) ||
        con.deadlocked != dense.deadlocked)
        fatal("parallel scheduler stats diverge from the DenseScan "
              "oracle on %s (%lld vs %lld cycles)",
              kernel.name.c_str(), static_cast<long long>(con.cycles),
              static_cast<long long>(dense.cycles));

    // The certified static bound must hold on the reference run —
    // the same gate executeOnFabric applies to mapped runs, here
    // covering the unmapped bench configs (and, via bit-identity,
    // every scheduler at once).
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &res.graph);
    sim::Program boundProg(hold, refCfg);
    sim::BoundReport::Evaluation boundEval =
        analysis::computeBound(boundProg).evaluate(dense.stats);
    if (!dense.deadlocked && !boundEval.holds(dense.cycles))
        fatal("%s: simulated %lld cycles beats the certified "
              "static bound of %lld cycles — analyzer and "
              "simulator disagree",
              kernel.name.c_str(),
              static_cast<long long>(dense.cycles),
              static_cast<long long>(boundEval.certifiedCycles));

    const double speedup = con.ms > 0 ? dense.ms / con.ms : 0;
    if (opts.json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel.name)
            .add("nodes", res.graph.size())
            .add("cycles", dense.cycles)
            .add("bound_cycles", boundEval.certifiedCycles)
            .add("dense_ms", dense.ms)
            .add("parallel_ms", con.ms)
            .add("jobs", opts.jobs)
            .add("speedup", speedup)
            .add("identical", true);
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::printf("%s: %d operators, %lld cycles\n"
                    "  dense-scan  %9.3f ms\n"
                    "  parallel    %9.3f ms  (%.2fx speedup, "
                    "bit-identical)\n",
                    kernel.name.c_str(), res.graph.size(),
                    static_cast<long long>(dense.cycles), dense.ms,
                    con.ms, speedup);
    }
    return 0;
}

int
cmdTrace(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    auto res = compileForSim(opts, kernel);
    auto cfg = res.simConfig;
    cfg.bufferDepth = opts.depth;

    trace::ChromeTraceSink chrome;
    trace::StallTimelineSink stalls(opts.interval);
    trace::ObserverList sinks;
    sinks.add(&chrome);
    sinks.add(&stalls);
    cfg.observer = &sinks;

    auto mem = kernel.memory;
    mem.resize(static_cast<size_t>(kernel.prog.memWords));
    auto r = sim::simulate(res.graph, mem, cfg);
    if (r.deadlocked) {
        // Still write the trace — it is exactly what you want for
        // diagnosing the deadlock — but fail the invocation.
        warn("simulation did not retire cleanly: %s",
             r.diagnostic.c_str());
    }

    // Reconcile the event stream against SimStats before trusting
    // the trace (tested in tests/test_trace.cc, re-checked on every
    // invocation because it is cheap and load-bearing).
    int64_t totalFires = 0;
    for (int64_t f : r.stats.nodeFires)
        totalFires += f;
    int64_t expectInstants = r.stats.dispatchSpawns +
                             r.stats.dispatchConts +
                             r.stats.memLoads + r.stats.memStores;
    if (chrome.spanCount() != totalFires ||
        chrome.instantCount() != expectInstants) {
        fatal("trace diverges from SimStats: %lld spans vs %lld "
              "fires, %lld instants vs %lld dispatch+mem events",
              static_cast<long long>(chrome.spanCount()),
              static_cast<long long>(totalFires),
              static_cast<long long>(chrome.instantCount()),
              static_cast<long long>(expectInstants));
    }

    std::string outFile = opts.out.empty()
                              ? kernel.name + ".trace.json"
                              : opts.out;
    {
        std::ofstream f(outFile);
        if (!f)
            fatal("cannot write '%s'", outFile.c_str());
        chrome.write(f);
    }
    if (!opts.stallsOut.empty()) {
        std::ofstream f(opts.stallsOut);
        if (!f)
            fatal("cannot write '%s'", opts.stallsOut.c_str());
        stalls.writeJson(f);
    }

    // A watchdog expiry is not a deadlock: the fabric was still
    // making progress when maxCycles elapsed. Report (and exit)
    // distinctly so callers never mistake a slow kernel for a
    // certified deadlock.
    const char *status = !r.deadlocked        ? "ok"
                         : r.watchdogExpired ? "watchdog"
                                             : "deadlock";
    sim::Report report = sim::reportFor(r.stats);
    report.add("trace_file", outFile)
        .add("spans", chrome.spanCount())
        .add("instants", chrome.instantCount())
        .add("status", status)
        .add("deadlocked", r.deadlocked && !r.watchdogExpired)
        .add("watchdog_expired", r.watchdogExpired);
    if (opts.json) {
        report.add("schema_version", sim::kJsonSchemaVersion);
        std::printf("%s\n", report.toJson().c_str());
    } else {
        std::printf("%s\n", report.toString().c_str());
        std::printf("wrote %s (%lld spans, %lld instants); open "
                    "in chrome://tracing or ui.perfetto.dev\n\n",
                    outFile.c_str(),
                    static_cast<long long>(chrome.spanCount()),
                    static_cast<long long>(chrome.instantCount()));
        std::printf("%s", stalls.toString().c_str());
    }
    // 0 = clean, 1 = quiesced deadlock, 4 = watchdog expiry.
    if (!r.deadlocked)
        return 0;
    return r.watchdogExpired ? 4 : 1;
}

/**
 * `pstool lint` — the static analyzer as a standalone gate. Compiles
 * the kernel, runs the graph passes (PS-S/D/B rules), maps it and
 * runs the placement rules (PS-P, unless --no-map), and prints every
 * diagnostic plus the verdict summary. With --cross-check it also
 * simulates: a graph the analyzer certified deadlock-free must
 * retire cleanly, or the invocation fails with a disagreement
 * diagnosis. Exit status is 0 only when the report is clean (and,
 * when cross-checking, the models agree).
 */
int
cmdLint(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    compiler::CompileOptions copts;
    copts.variant = opts.variant;
    copts.unrollFactor = opts.unroll;
    copts.bufferDepth = opts.depth;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);

    analysis::AnalysisOptions aopts;
    aopts.bufferDepth = opts.depth;
    analysis::AnalysisReport report =
        analysis::analyzeGraph(res.graph, aopts);

    fabric::Fabric fab(opts.topo);
    if (!opts.noMap) {
        compiler::ShareGroups shareGroups;
        if (opts.timeMultiplex) {
            shareGroups = compiler::planTimeMultiplexing(
                res.graph, fab.config());
        }
        mapper::MapperOptions mopts;
        mopts.shareGroups = shareGroups;
        mapper::Mapping mapping;
        if (opts.topo.singleTile()) {
            mapping = mapper::mapGraph(res.graph, fab, mopts);
        } else {
            mapper::TiledMapping tm = mapper::mapGraphTiled(
                res.graph, opts.topo, mopts);
            mapping = std::move(tm.merged);
        }
        if (!mapping.success) {
            if (opts.json) {
                sim::Report r;
                r.add("schema_version", sim::kJsonSchemaVersion)
                    .add("kernel", kernel.name)
                    .add("variant",
                         compiler::archVariantName(opts.variant))
                    .add("status", "error")
                    .add("error", mapping.error);
                std::printf("%s\n", r.toJson().c_str());
            } else {
                std::fprintf(
                    stderr,
                    "%s does not map onto the fabric (%s): %s\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    mapping.error.c_str());
            }
            return 1;
        }
        analysis::PlacementLintOptions popts;
        popts.shareGroups = shareGroups;
        analysis::lintPlacement(res.graph, fab, mapping, report,
                                popts);
    }

    bool simDeadlocked = false;
    bool simWatchdog = false;
    bool disagree = false;
    int64_t boundCycles = 0;
    int64_t simCycles = 0;
    bool boundHolds = true;
    if (opts.crossCheck) {
        auto cfg = res.simConfig;
        cfg.bufferDepth = opts.depth;
        auto mem = kernel.memory;
        mem.resize(std::max(
            mem.size(),
            static_cast<size_t>(kernel.prog.memWords)));
        auto r = sim::simulate(res.graph, mem, cfg);
        // Watchdog expiry means the fabric was still live —
        // termination is input-dependent, outside what static
        // certification claims — so it is neither a deadlock
        // verdict nor a disagreement.
        simWatchdog = r.watchdogExpired;
        simDeadlocked = r.deadlocked && !r.watchdogExpired;
        disagree = report.deadlockFree && simDeadlocked;
        if (disagree && !opts.json) {
            std::fprintf(stderr,
                         "cross-check: analyzer certified the graph "
                         "deadlock-free but the simulator "
                         "deadlocked:\n%s\n",
                         r.diagnostic.c_str());
        }
        // The certified throughput bound rides the same
        // cross-check: a clean retire must never beat the static
        // cycle floor. (A deadlocked or watchdogged run stopped
        // before completion, so the completion bound says nothing
        // about its cycle count.)
        if (!r.deadlocked) {
            std::shared_ptr<const dfg::Graph> hold(
                std::shared_ptr<const dfg::Graph>(), &res.graph);
            sim::Program boundProg(hold, cfg);
            sim::BoundReport::Evaluation bev =
                analysis::computeBound(boundProg)
                    .evaluate(r.stats);
            boundCycles = bev.certifiedCycles;
            simCycles = r.stats.cycles;
            boundHolds = bev.holds(r.stats.cycles);
            if (!boundHolds) {
                disagree = true;
                if (!opts.json) {
                    std::fprintf(
                        stderr,
                        "cross-check: simulated %lld cycles beats "
                        "the certified static bound of %lld "
                        "cycles\n",
                        static_cast<long long>(r.stats.cycles),
                        static_cast<long long>(boundCycles));
                }
            }
        }
    }

    if (opts.json) {
        std::printf("{\"schema_version\":%d,"
                    "\"kernel\":\"%s\",\"variant\":\"%s\","
                    "\"operators\":%d,\"crossChecked\":%s,"
                    "\"simDeadlocked\":%s,"
                    "\"simWatchdogExpired\":%s,"
                    "\"boundCycles\":%lld,\"boundHolds\":%s,"
                    "\"agree\":%s,"
                    "\"analysis\":%s}\n",
                    sim::kJsonSchemaVersion,
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    res.graph.size(),
                    opts.crossCheck ? "true" : "false",
                    simDeadlocked ? "true" : "false",
                    simWatchdog ? "true" : "false",
                    static_cast<long long>(boundCycles),
                    boundHolds ? "true" : "false",
                    disagree ? "false" : "true",
                    report.toJson(res.graph).c_str());
    } else {
        std::printf("%s on %s: %d operator(s)\n%s\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    res.graph.size(),
                    report.toString(res.graph).c_str());
        if (opts.crossCheck) {
            std::printf("cross-check: simulator %s; %s\n",
                        simDeadlocked
                            ? "deadlocked"
                            : simWatchdog
                                  ? "hit the cycle watchdog"
                                  : "retired cleanly",
                        disagree ? "DISAGREES with the analyzer"
                                 : "agrees with the analyzer");
            if (!simDeadlocked && !simWatchdog) {
                std::printf("cross-check: certified bound %lld <= "
                            "simulated %lld cycles: %s\n",
                            static_cast<long long>(boundCycles),
                            static_cast<long long>(simCycles),
                            boundHolds ? "holds" : "VIOLATED");
            }
        }
    }
    return (report.ok() && !disagree) ? 0 : 1;
}

/**
 * `pstool bound` — the static throughput-bound analysis (the PS-T
 * rule family's quantitative half) as a standalone report. Runs the
 * kernel through the standard prepare+execute pipeline, so the bound
 * is built and evaluated exactly the way executeOnFabric
 * cross-checks it on every analyzed run, then renders every bound
 * term with its evaluated cycle floor and names the binding
 * constraint plus the hint for lifting it. Tightness is
 * bound/simulated: 1.0 means the bound explains every simulated
 * cycle. Exit is nonzero when the run fails — including when the
 * simulation beats the certified bound, which executeOnFabric
 * reports as an analyzer/simulator disagreement.
 */
int
cmdBound(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    RunConfig cfg;
    cfg.variant = opts.variant;
    cfg.sim.bufferDepth = opts.depth;
    cfg.unrollFactor = opts.unroll;
    cfg.allowTimeMultiplex = opts.timeMultiplex;
    applyFabric(opts.topo, cfg);
    std::string err;
    FabricRun run = runOnFabric(kernel, cfg, &err);
    if (!err.empty()) {
        if (opts.json) {
            sim::Report r;
            r.add("schema_version", sim::kJsonSchemaVersion)
                .add("kernel", kernel.name)
                .add("status", "error")
                .add("error", err);
            std::printf("%s\n", r.toJson().c_str());
        } else {
            std::fprintf(stderr, "%s: %s\n", kernel.name.c_str(),
                         err.c_str());
        }
        return 1;
    }

    const sim::BoundReport &bound = run.bound;
    const sim::BoundReport::Evaluation &ev = run.boundEval;
    const int64_t simCycles = run.cycles();
    const double tightness =
        simCycles > 0 ? static_cast<double>(ev.certifiedCycles) /
                            static_cast<double>(simCycles)
                      : 0.0;
    const sim::BoundTerm *bind =
        ev.binding >= 0
            ? &bound.terms[static_cast<size_t>(ev.binding)]
            : nullptr;

    if (opts.json) {
        std::ostringstream out;
        trace::JsonWriter w(out);
        w.beginObject();
        w.key("schema_version").value(sim::kJsonSchemaVersion);
        w.key("kernel").value(kernel.name);
        w.key("variant")
            .value(compiler::archVariantName(opts.variant));
        w.key("bound_cycles").value(ev.certifiedCycles);
        w.key("advisory_cycles").value(ev.advisoryCycles);
        w.key("sim_cycles").value(simCycles);
        w.key("tightness").value(tightness);
        w.key("holds").value(ev.holds(simCycles));
        if (bind) {
            w.key("binding");
            w.beginObject();
            w.key("kind").value(sim::boundTermKindName(bind->kind));
            w.key("node").value(
                ev.perTerm[static_cast<size_t>(ev.binding)].node);
            w.key("detail").value(bind->detail);
            w.key("hint").value(bind->hint);
            w.endObject();
        }
        w.key("terms");
        w.beginArray();
        for (size_t i = 0; i < bound.terms.size(); i++) {
            const sim::BoundTerm &t = bound.terms[i];
            w.beginObject();
            w.key("kind").value(sim::boundTermKindName(t.kind));
            w.key("certified").value(t.certified);
            w.key("cycles").value(ev.perTerm[i].cycles);
            w.key("node").value(ev.perTerm[i].node);
            w.key("binding")
                .value(static_cast<int>(i) == ev.binding);
            w.key("detail").value(t.detail);
            w.key("hint").value(t.hint);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::printf("%s\n", out.str().c_str());
    } else {
        std::printf("%s on %s: certified bound %lld cycles, "
                    "simulated %lld (tightness %.0f%%)\n",
                    kernel.name.c_str(),
                    compiler::archVariantName(opts.variant),
                    static_cast<long long>(ev.certifiedCycles),
                    static_cast<long long>(simCycles),
                    tightness * 100);
        if (bind) {
            std::printf("binding constraint (%s): %s\n  hint: %s\n",
                        sim::boundTermKindName(bind->kind),
                        bind->detail.c_str(), bind->hint.c_str());
        }
        for (size_t i = 0; i < bound.terms.size(); i++) {
            const sim::BoundTerm &t = bound.terms[i];
            std::printf("  %c %-11s %8lld%s  %s\n",
                        static_cast<int>(i) == ev.binding ? '*'
                                                          : ' ',
                        sim::boundTermKindName(t.kind),
                        static_cast<long long>(ev.perTerm[i].cycles),
                        t.certified ? "" : " (advisory)",
                        t.detail.c_str());
        }
    }
    return 0;
}

/**
 * `pstool map` — the portfolio mapper as a standalone gate. Compiles
 * the kernel, maps it with the requested portfolio width and thread
 * count, and reports placement quality plus wall-clock. The emitted
 * mapping is re-checked with the placement lint (PS-P rules) before
 * the command reports success, so a clean exit certifies both "it
 * maps" and "the placement is legal". On failure the structured
 * error names the implicated nodes.
 */
int
cmdMap(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    compiler::CompileOptions copts;
    copts.variant = opts.variant;
    copts.unrollFactor = opts.unroll;
    copts.bufferDepth = opts.depth;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        copts);

    fabric::Fabric fab(opts.topo);
    compiler::ShareGroups shareGroups;
    if (opts.timeMultiplex) {
        shareGroups =
            compiler::planTimeMultiplexing(res.graph, fab.config());
    }

    mapper::MapperOptions mopts;
    mopts.rngSeed = opts.seed;
    mopts.portfolioSeeds = opts.seeds;
    mopts.jobs = opts.jobs;
    mopts.annealIterations = opts.iterations;
    mopts.shareGroups = shareGroups;

    const bool tiled = !opts.topo.singleTile();
    int64_t cutEdges = 0;
    int interTileLoadMax = 0;
    int partitionAttempts = 0;
    auto t0 = std::chrono::steady_clock::now();
    mapper::Mapping mapping;
    mapper::MapStats stats; // single-grid maps only
    if (tiled) {
        mapper::TiledMapping tm =
            mapper::mapGraphTiled(res.graph, opts.topo, mopts);
        mapping = std::move(tm.merged);
        cutEdges = tm.cutEdges;
        interTileLoadMax = tm.interTileLoadMax;
        partitionAttempts = tm.attempts;
    } else {
        mapping = mapper::mapGraph(res.graph, fab, mopts, &stats);
    }
    double mapMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    bool lintClean = false;
    std::string lintText;
    if (mapping.success) {
        analysis::AnalysisReport report;
        analysis::PlacementLintOptions popts;
        popts.shareGroups = shareGroups;
        analysis::lintPlacement(res.graph, fab, mapping, report,
                                popts);
        lintClean = report.ok();
        if (!lintClean)
            lintText = report.toString(res.graph);
    }

    if (opts.json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("kernel", kernel.name)
            .add("variant", compiler::archVariantName(opts.variant))
            .add("operators", res.graph.size())
            .add("seeds", opts.seeds)
            .add("jobs", opts.jobs)
            .add("success", mapping.success)
            .add("lint_clean", lintClean)
            .add("cost", mapping.cost)
            .add("wirelength", mapping.totalWireLength)
            .add("overflow", mapping.congestionOverflow)
            .add("max_link_load", mapping.maxLinkLoad)
            .add("avg_hops", mapping.avgHops)
            .add("winning_seed", mapping.winningSeed)
            .add("early_exits", mapping.seedsEarlyExited)
            .add("seeds_halved", mapping.seedsHalved)
            .add("map_ms", mapMs);
        if (!tiled) {
            r.add("init_ms", stats.initMs)
                .add("probe_ms", stats.probeMs)
                .add("anneal_ms", stats.annealMs)
                .add("polish_ms", stats.polishMs)
                .add("repair_ms", stats.repairMs)
                .add("anneal_steps", stats.annealSteps)
                .add("moves_priced", stats.movesPriced);
        } else {
            r.add("tiles_x", opts.topo.tilesX)
                .add("tiles_y", opts.topo.tilesY)
                .add("cut_edges", cutEdges)
                .add("inter_tile_load_max", interTileLoadMax)
                .add("inter_tile_capacity",
                     opts.topo.interTileCapacity)
                .add("partition_attempts", partitionAttempts);
        }
        if (!mapping.success)
            r.add("error", mapping.error)
                .add("failed_nodes",
                     static_cast<int64_t>(
                         mapping.failedNodes.size()));
        std::printf("%s\n", r.toJson().c_str());
    } else if (mapping.success) {
        std::printf(
            "%s on %s: %d operator(s), %d seed(s) x %d job(s)\n"
            "  cost %.1f (wirelength %lld, overflow %lld), max "
            "link load %d/%d\n"
            "  avg hops %.3f, winning seed %d, %d early exit(s), "
            "%d halved, %.2f ms\n"
            "  placement lint: %s\n",
            kernel.name.c_str(),
            compiler::archVariantName(opts.variant),
            res.graph.size(), opts.seeds, opts.jobs, mapping.cost,
            static_cast<long long>(mapping.totalWireLength),
            static_cast<long long>(mapping.congestionOverflow),
            mapping.maxLinkLoad, fab.config().linkCapacity,
            mapping.avgHops,
            mapping.winningSeed, mapping.seedsEarlyExited,
            mapping.seedsHalved, mapMs,
            lintClean ? "clean" : "DIRTY");
        if (!tiled) {
            std::printf(
                "  phases (ms): init %.3f, probe %.3f, anneal %.3f, "
                "polish %.3f, repair %.3f; %lld anneal steps, %lld "
                "moves priced\n",
                stats.initMs, stats.probeMs, stats.annealMs,
                stats.polishMs, stats.repairMs,
                static_cast<long long>(stats.annealSteps),
                static_cast<long long>(stats.movesPriced));
        } else {
            std::printf(
                "  tiles %dx%d: %lld cut edge(s), boundary load "
                "%d/%d, %d partition attempt(s)\n",
                opts.topo.tilesX, opts.topo.tilesY,
                static_cast<long long>(cutEdges), interTileLoadMax,
                opts.topo.interTileCapacity, partitionAttempts);
        }
        if (!lintClean)
            std::printf("%s\n", lintText.c_str());
    } else {
        std::printf("%s does not map onto the fabric: %s\n",
                    kernel.name.c_str(), mapping.error.c_str());
        if (!mapping.failedNodes.empty()) {
            std::printf("implicated nodes:");
            for (dfg::NodeId id : mapping.failedNodes)
                std::printf(" %d", id);
            std::printf("\n");
        }
    }
    return (mapping.success && lintClean) ? 0 : 1;
}

/**
 * `pstool figures` — the whole evaluation in one process. Every
 * figure renders from src/figures on a shared runner::Runner, so
 * simulations common to several figures run once, mapper placements
 * memoize (optionally on disk via --cache-dir), and independent
 * runs execute concurrently (--jobs). Figure text is byte-identical
 * to the standalone bench binaries for every job count and cache
 * state.
 */
int
cmdFigures(int argc, char **argv)
{
    runner::RunnerOptions ropts;
    figures::FigureOptions fopts;
    std::string outDir;
    std::vector<std::string> only;
    bool json = false;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            ropts.jobs = std::atoi(arg.c_str() + 7);
        } else if (arg == "--smoke") {
            fopts.smoke = true;
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            ropts.cacheDir = arg.substr(12);
        } else if (arg.rfind("--out-dir=", 0) == 0) {
            outDir = arg.substr(10);
        } else if (arg.rfind("--only=", 0) == 0) {
            std::stringstream ss(arg.substr(7));
            std::string id;
            while (std::getline(ss, id, ','))
                only.push_back(id);
        } else if (arg == "--no-memo") {
            ropts.memoize = false;
        } else if (arg == "--json") {
            json = true;
        } else {
            usage();
        }
    }
    for (const auto &id : only) {
        if (!figures::findFigure(id))
            fatal("unknown figure '%s'", id.c_str());
    }
    if (!outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(outDir, ec);
        if (ec)
            fatal("cannot create '%s': %s", outDir.c_str(),
                  ec.message().c_str());
    }

    setQuiet(true);
    runner::Runner runner(ropts);
    figures::FigureSet set(runner, fopts);

    auto t0 = std::chrono::steady_clock::now();
    if (only.empty()) {
        // Rendering everything: enqueue the full grid up front so
        // the pool is saturated from the start.
        set.prefetch();
    }
    int rendered = 0;
    for (const auto &fig : figures::allFigures()) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), fig.id) ==
                only.end()) {
            continue;
        }
        std::string text = fig.render(set);
        if (!json) {
            if (rendered > 0)
                std::printf("\n");
            std::fputs(text.c_str(), stdout);
        }
        if (!outDir.empty()) {
            std::string path = outDir + "/" + fig.id + ".out";
            std::ofstream f(path);
            if (!f)
                fatal("cannot write '%s'", path.c_str());
            f << text;
        }
        rendered++;
    }
    double wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    auto stats = runner.cache().stats();
    if (json) {
        sim::Report r;
        r.add("schema_version", sim::kJsonSchemaVersion)
            .add("figures", rendered)
            .add("jobs", runner.pool().threadCount())
            .add("smoke", fopts.smoke)
            .add("wall_ms", wallMs)
            .add("compile_hits", stats.compileHits)
            .add("compile_computes", stats.compileComputes)
            .add("map_hits", stats.mapHits)
            .add("map_disk_hits", stats.mapDiskHits)
            .add("map_computes", stats.mapComputes)
            .add("prepared_hits", stats.preparedHits)
            .add("prepared_computes", stats.preparedComputes)
            .add("run_dedup_hits", runner.dedupHits());
        std::printf("%s\n", r.toJson().c_str());
    } else {
        std::fprintf(
            stderr,
            "\nrendered %d figure(s) in %.1f s with %d job(s); "
            "compile %lld hit/%lld computed, mapping %lld hit "
            "(%lld from disk)/%lld computed, %lld duplicate runs "
            "shared\n",
            rendered, wallMs / 1e3, runner.pool().threadCount(),
            static_cast<long long>(stats.compileHits),
            static_cast<long long>(stats.compileComputes),
            static_cast<long long>(stats.mapHits +
                                   stats.mapDiskHits),
            static_cast<long long>(stats.mapDiskHits),
            static_cast<long long>(stats.mapComputes),
            static_cast<long long>(runner.dedupHits()));
    }
    return 0;
}

/**
 * `pstool bench-tiles` — the multi-tile scaling benchmark. Builds
 * @c --shards data-parallel SpMV shards (one CSR structure, fresh
 * dense vectors), then runs the batch through 1×1, 1×2, and 2×2
 * arrangements of the base tile via core runBatch: one mapping
 * prepared once, every tile executing its shard queue on its own
 * thread with a warmed ExecutionState. Emits the scaling curve as
 * JSON (schema_version, per-arrangement total/makespan cycles and
 * modeled speedup) to --out and stdout. `modeled_speedup` of an
 * arrangement is exactly its throughput gain over the single tile,
 * since per-shard cycles are arrangement-invariant.
 */
int
cmdBenchTiles(int argc, char **argv)
{
    fabric::Topology base;
    int shards = 8;
    int size = 64;
    double sparsity = 0.2;
    uint64_t seed = 1;
    std::string outFile = "BENCH_tiles.json";
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--fabric=", 0) == 0) {
            parseFabricArg(arg.substr(9), base);
        } else if (arg.rfind("--shards=", 0) == 0) {
            shards = std::atoi(arg.c_str() + 9);
        } else if (arg.rfind("--n=", 0) == 0) {
            size = std::atoi(arg.c_str() + 4);
        } else if (arg.rfind("--sparsity=", 0) == 0) {
            sparsity = std::atof(arg.c_str() + 11);
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = static_cast<uint64_t>(
                std::atoll(arg.c_str() + 7));
        } else if (arg.rfind("--out=", 0) == 0) {
            outFile = arg.substr(6);
        } else {
            usage();
        }
    }
    if (shards < 1)
        fatal("bench-tiles: --shards must be >= 1");

    setQuiet(true);
    auto shardSet =
        workloads::makeSpmvShards(size, sparsity, seed, shards);

    struct Arrangement
    {
        int tx;
        int ty;
    };
    static constexpr Arrangement kArrangements[] = {
        {1, 1}, {1, 2}, {2, 2}};

    std::ostringstream out;
    trace::JsonWriter w(out);
    w.beginObject();
    w.key("schema_version").value(sim::kJsonSchemaVersion);
    w.key("kernel").value(shardSet.front().name);
    w.key("shards").value(shards);
    w.key("tile_width").value(base.tile.width);
    w.key("tile_height").value(base.tile.height);
    w.key("inter_tile_latency").value(base.interTileLatency);
    w.key("configs");
    w.beginArray();
    for (const Arrangement &a : kArrangements) {
        fabric::Topology topo = base;
        topo.tilesX = a.tx;
        topo.tilesY = a.ty;
        RunConfig cfg;
        applyFabric(topo, cfg);
        cfg.quiet = true;
        std::string err;
        BatchRun batch = runBatch(shardSet, cfg, &err);
        if (!batch.success) {
            std::fprintf(stderr, "bench-tiles %dx%d: %s\n", a.tx,
                         a.ty, err.c_str());
            return 1;
        }
        // The stealing schedule must never lose to the legacy
        // round-robin deal on the same measured cycles.
        if (batch.modeledSpeedup + 1e-9 < batch.roundRobinSpeedup) {
            std::fprintf(stderr,
                         "bench-tiles %dx%d: modeled speedup %.4f "
                         "regressed below round-robin %.4f\n",
                         a.tx, a.ty, batch.modeledSpeedup,
                         batch.roundRobinSpeedup);
            return 1;
        }
        w.beginObject();
        w.key("tiles_x").value(a.tx);
        w.key("tiles_y").value(a.ty);
        w.key("tiles").value(batch.tiles);
        w.key("total_cycles").value(batch.totalCycles);
        w.key("makespan_cycles").value(batch.makespanCycles);
        w.key("modeled_speedup").value(batch.modeledSpeedup);
        w.key("round_robin_speedup").value(batch.roundRobinSpeedup);
        w.key("seconds").value(batch.seconds);
        w.key("wall_s").value(batch.wallSeconds);
        w.endObject();
        std::fprintf(stderr,
                     "bench-tiles %dx%d: %lld shard(s), makespan "
                     "%lld cycles, %.2fx (round-robin %.2fx)\n",
                     a.tx, a.ty, static_cast<long long>(shards),
                     static_cast<long long>(batch.makespanCycles),
                     batch.modeledSpeedup,
                     batch.roundRobinSpeedup);
    }
    w.endArray();
    w.endObject();

    std::ofstream f(outFile);
    if (!f)
        fatal("cannot write '%s'", outFile.c_str());
    f << out.str() << "\n";
    std::printf("%s\n", out.str().c_str());
    return 0;
}

/**
 * `pstool bench-sim-par` — the parallel-scheduler benchmark. Times
 * the ParallelRegions engine against the DenseScan oracle on the
 * paper-scale kernels over a job-count sweep, verifies bit-identical
 * SimStats at every job count, and writes BENCH_sim_par.json. The
 * shared timeSim harness (same warmup + best-of-reps policy as
 * bench-sim) keeps the numbers comparable. Each kernel gets two row
 * sets: `runs` under the default thread policy (parallelThreads=0:
 * one inline region whatever the job count — what every default
 * run gets) and `forced_runs` with parallelThreads=jobs (jobs
 * regions on jobs persistent workers), so the threaded path stays
 * measured and checked for bit-identity. Every row reports the
 * regions and threads the engine chose and its
 * fixpoint-round and barrier counters. Exit is nonzero if any run
 * diverges from the oracle.
 */
int
cmdBenchSimPar(int argc, char **argv)
{
    bool smoke = false;
    int reps = 2;
    std::string outFile = "BENCH_sim_par.json";
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--reps=", 0) == 0) {
            reps = std::atoi(arg.c_str() + 7);
        } else if (arg.rfind("--out=", 0) == 0) {
            outFile = arg.substr(6);
        } else {
            usage();
        }
    }
    setQuiet(true);

    struct Case
    {
        std::string name;
        workloads::KernelInstance kernel;
        int unroll;
    };
    // The _uN suffix is the spatial unroll factor. Larger unrolls
    // grow the mapped graph — the oracle's per-cycle scan cost grows
    // with the node count while the parallel engine's dormancy
    // tracking keeps its working set small, so the speedup widens
    // with kernel size.
    std::vector<Case> cases;
    cases.push_back(
        {"spmspmd_u8", workloads::makeSpMSpMd(64, 0.89, 4), 8});
    if (!smoke) {
        cases.push_back(
            {"spmspmd_u32", workloads::makeSpMSpMd(64, 0.89, 4),
             32});
        auto dnn = workloads::buildDnn();
        cases.push_back(
            {"dnn_layer0_u8",
             workloads::makeSpMSpVdFrom(dnn.weights[0], dnn.input,
                                        "dnn_layer0"),
             8});
    }
    const std::vector<int> jobSweep =
        smoke ? std::vector<int>{1, 4}
              : std::vector<int>{1, 2, 4, 8};
    if (smoke)
        reps = 1;

    // 3.0x over the retired ReadyList engine, rescaled by its
    // measured 2.5x over DenseScan.
    constexpr double kTargetSpeedup = 7.5;
    bool allIdentical = true;
    bool targetMet = false;
    std::ostringstream out;
    trace::JsonWriter w(out);
    w.beginObject();
    w.key("schema_version").value(sim::kJsonSchemaVersion);
    w.key("benchmark").value("sim_parallel");
    w.key("host_threads").value(runner::defaultJobs());
    w.key("kernels");
    w.beginArray();
    for (const Case &c : cases) {
        compiler::CompileOptions copts;
        copts.unrollFactor = c.unroll;
        auto res = compiler::compileProgram(c.kernel.prog,
                                            c.kernel.liveIns, copts);
        auto cfg = res.simConfig;
        cfg.maxCycles = 8000000;
        cfg.scheduler = sim::SimConfig::Scheduler::DenseScan;
        SimTiming dense = timeSim(res.graph, c.kernel, cfg, reps);

        w.beginObject();
        w.key("kernel").value(c.name);
        w.key("unroll").value(c.unroll);
        w.key("nodes").value(res.graph.size());
        w.key("cycles").value(dense.cycles);
        w.key("dense_ms").value(dense.ms);
        // threads = 0: the default policy; threads = jobs: forced
        // workers (jobs = 1 is the inline baseline for both).
        for (bool forced : {false, true}) {
            w.key(forced ? "forced_runs" : "runs");
            w.beginArray();
            for (int jobs : jobSweep) {
                cfg.scheduler =
                    sim::SimConfig::Scheduler::ParallelRegions;
                cfg.parallelJobs = jobs;
                cfg.parallelThreads = forced ? jobs : 0;
                SimTiming par =
                    timeSim(res.graph, c.kernel, cfg, reps);
                bool identical =
                    sim::statsEqual(par.stats, dense.stats) &&
                    par.deadlocked == dense.deadlocked;
                allIdentical &= identical;
                double speedup = par.ms > 0 ? dense.ms / par.ms : 0;
                if (!forced && identical && jobs >= 4 &&
                    speedup >= kTargetSpeedup)
                    targetMet = true;
                const sim::EngineCounters &ec = par.engine;
                const double rounds =
                    par.cycles > 0
                        ? static_cast<double>(ec.fixpointRounds) /
                              static_cast<double>(par.cycles)
                        : 0;
                w.beginObject();
                w.key("jobs").value(jobs);
                w.key("parallel_ms").value(par.ms);
                w.key("speedup").value(speedup);
                w.key("identical").value(identical);
                w.key("regions").value(ec.regions);
                w.key("threads").value(ec.threads);
                w.key("inline").value(ec.inlineRun);
                w.key("rounds_per_cycle").value(rounds);
                w.key("barriers").value(ec.barriers);
                w.key("barrier_waits").value(ec.barrierWaits);
                w.key("barrier_wait_ms")
                    .value(static_cast<double>(ec.barrierWaitNs) /
                           1e6);
                w.endObject();
                std::fprintf(
                    stderr,
                    "bench-sim-par %-13s jobs=%d%s  dense=%9.3f ms  "
                    "parallel=%9.3f ms  %.2fx  %s  regions=%d "
                    "threads=%d rounds/cycle=%.2f barriers=%lld "
                    "waits=%lld (%.1f ms)\n",
                    c.name.c_str(), jobs, forced ? " forced" : "",
                    dense.ms, par.ms, speedup,
                    identical ? "bit-identical" : "DIVERGED",
                    ec.regions, ec.threads, rounds,
                    static_cast<long long>(ec.barriers),
                    static_cast<long long>(ec.barrierWaits),
                    static_cast<double>(ec.barrierWaitNs) / 1e6);
            }
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.key("target_speedup").value(kTargetSpeedup);
    w.key("target_met").value(targetMet);
    w.key("all_identical").value(allIdentical);
    w.endObject();

    std::ofstream f(outFile);
    if (!f)
        fatal("cannot write '%s'", outFile.c_str());
    f << out.str() << "\n";
    std::printf("%s\n", out.str().c_str());
    return allIdentical ? 0 : 1;
}

/**
 * `pstool serve` — a resident simulation service (runner/serve.hh):
 * one JSON request per stdin line, one JSON response per stdout
 * line, executed concurrently on a bounded thread-pool queue with
 * content dedup onto the shared MemoCache. `--bench=N` runs the
 * built-in load generator instead and writes the throughput/latency
 * record to --bench-out (default BENCH_serve.json).
 */
int
cmdServe(int argc, char **argv)
{
    runner::ServeOptions sopts;
    int bench = 0;
    std::string benchOut = "BENCH_serve.json";
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            sopts.jobs = std::atoi(arg.c_str() + 7);
        } else if (arg.rfind("--queue=", 0) == 0) {
            sopts.maxQueue = std::atoi(arg.c_str() + 8);
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            sopts.cacheDir = arg.substr(12);
        } else if (arg.rfind("--fabric=", 0) == 0) {
            parseFabricArg(arg.substr(9), sopts.topology);
        } else if (arg.rfind("--bench=", 0) == 0) {
            bench = std::atoi(arg.c_str() + 8);
        } else if (arg.rfind("--bench-out=", 0) == 0) {
            benchOut = arg.substr(12);
        } else {
            usage();
        }
    }
    if (bench > 0) {
        std::string json = runner::runServeBench(
            sopts, runner::ServeBenchOptions{bench});
        std::ofstream f(benchOut);
        if (!f)
            fatal("cannot write '%s'", benchOut.c_str());
        f << json << "\n";
        std::printf("%s\n", json.c_str());
        return 0;
    }
    runner::ServeServer server(sopts);
    int rc = runner::serveLoop(server, std::cin, std::cout);
    runner::ServeStats st = server.stats();
    std::fprintf(
        stderr,
        "serve: %lld received, %lld executed, %lld dedup hits, "
        "%lld rejected, %lld bad, peak queue %lld\n",
        static_cast<long long>(st.received),
        static_cast<long long>(st.completed),
        static_cast<long long>(st.dedupHits),
        static_cast<long long>(st.rejected),
        static_cast<long long>(st.badRequests),
        static_cast<long long>(st.peakQueued));
    return rc;
}

int
cmdScalar(const Options &opts, const ParseResult &parsed)
{
    auto kernel = buildKernel(opts, parsed);
    ScalarRun run = runOnScalar(kernel);
    std::printf("%s on %s: %.0f cycles, %.1f pJ, %lld instrs\n",
                kernel.name.c_str(),
                scalar::riptideScalarProfile().name.c_str(),
                run.cycles, run.energy.totalPj(),
                static_cast<long long>(run.counts.total()));
    dumpArrays(opts, parsed, run.memory);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // `figures`, `serve`, `bench-tiles`, and `bench-sim-par` take
    // no .sir file; dispatch before parseArgs.
    if (argc >= 2 && std::string(argv[1]) == "figures")
        return cmdFigures(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "serve")
        return cmdServe(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "bench-tiles")
        return cmdBenchTiles(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "bench-sim-par")
        return cmdBenchSimPar(argc, argv);
    Options opts = parseArgs(argc, argv);
    auto parsed = sir::parseSir(readFile(opts.file), opts.file);
    for (const Command &c : kCommands) {
        if (opts.command == c.name)
            return c.handler(opts, parsed);
    }
    usage();
}
