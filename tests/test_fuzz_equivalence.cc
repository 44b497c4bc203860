/**
 * @file
 * Property-based compiler/simulator fuzzing: randomly generated
 * structured programs must produce identical memory images on the
 * scalar interpreter and on every architecture variant, across
 * buffer depths and threading policies. Every compiled graph also
 * runs through the static analyzer: a fuzz-generated program the
 * analyzer rejects (or that deadlocks after certification) is a
 * bug in either the compiler or the analyzer.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/throughput.hh"
#include "base/random.hh"
#include "compiler/compile.hh"
#include "compiler/timemux.hh"
#include "dfg/dot.hh"
#include "scalar/interpreter.hh"
#include "sim/program.hh"
#include "sim/simulator.hh"
#include "sir/builder.hh"
#include "sir/printer.hh"
#include "sir/verifier.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sir::Builder;
using sir::Opcode;
using sir::Reg;

namespace {

/** Random structured program generator. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed)
        : rng(seed), b("fuzz_" + std::to_string(seed))
    {}

    sir::Program
    generate()
    {
        in = b.array("in", 16);
        out = b.array("out", 16);
        shared = b.array("shared", 8); // read-write: order tokens
        Reg n = b.liveIn("n");

        // A few seed values (n stays read-only).
        fresh(b.let(1));
        fresh(b.let(7));
        fresh(b.let(-3));
        regs.push_back(n);

        genBlock(0, 10);

        // One foreach region: independent per-i work on out[i].
        if (rng.nextBool(0.8)) {
            b.forEach0(n, [&](Reg i) { genForeachBody(i); });
        }
        genBlock(0, 4);
        return b.finish();
    }

  private:
    Reg
    pick()
    {
        return regs[static_cast<size_t>(
            rng.nextBounded(regs.size()))];
    }

    /** Registers legal as computeInto destinations (loop induction
     *  variables and live-ins are read-only). */
    Reg
    pickWritable()
    {
        return writable[static_cast<size_t>(
            rng.nextBounded(writable.size()))];
    }

    Reg
    fresh(Reg r)
    {
        regs.push_back(r);
        writable.push_back(r);
        return r;
    }

    Opcode
    pickOp()
    {
        static const Opcode ops[] = {
            Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Shl,
            Opcode::Shr, Opcode::And, Opcode::Or,  Opcode::Xor,
            Opcode::Lt,  Opcode::Le,  Opcode::Gt,  Opcode::Ge,
            Opcode::Eq,  Opcode::Ne,  Opcode::Min, Opcode::Max};
        return ops[rng.nextBounded(std::size(ops))];
    }

    /** Shift amounts must stay sane; mask operands for Shl/Shr. */
    Reg
    binary(Opcode op, Reg a, Reg c)
    {
        if (op == Opcode::Shl || op == Opcode::Shr)
            c = b.band(c, b.let(7));
        Reg r = b.reg();
        b.computeInto(r, op, a, c);
        return r;
    }

    void
    genStmt(int depth, int &budget)
    {
        budget--;
        switch (rng.nextBounded(depth >= 2 ? 6 : 8)) {
          case 0:
          case 1: // compute into fresh or existing register
            if (rng.nextBool(0.3) && !writable.empty()) {
                b.computeInto(pickWritable(), pickOp(), pick(),
                              pick());
            } else {
                fresh(binary(pickOp(), pick(), pick()));
            }
            break;
          case 2: { // load (in or shared)
            Reg idx = b.band(pick(), b.let(7));
            fresh(b.loadIdx(rng.nextBool(0.5) ? in : shared, idx));
            break;
          }
          case 3: { // store (out or shared)
            Reg idx = b.band(pick(), b.let(7));
            b.storeIdx(rng.nextBool(0.5) ? out : shared, idx,
                       pick());
            break;
          }
          case 4: { // if
            Reg cond = b.lt(pick(), pick());
            // Registers born inside a branch are only
            // maybe-assigned afterwards; scope them away.
            std::vector<Reg> saved = regs;
            std::vector<Reg> savedW = writable;
            auto scoped = [&] {
                genBlock(depth + 1, 3);
                regs = saved;
                writable = savedW;
            };
            if (rng.nextBool(0.5)) {
                b.ifThen(cond, scoped);
            } else {
                b.ifThenElse(cond, scoped, scoped);
            }
            regs = saved;
            writable = savedW;
            break;
          }
          case 5: { // select
            fresh(b.select(pick(), pick(), pick()));
            break;
          }
          case 6: { // bounded for, occasionally strided
            sir::Word step = rng.nextBool(0.3)
                                 ? static_cast<sir::Word>(
                                       2 + rng.nextBounded(3))
                                 : 1;
            Reg begin = b.let(static_cast<sir::Word>(
                rng.nextBounded(3)));
            Reg end = b.let(static_cast<sir::Word>(
                1 + rng.nextBounded(9)));
            std::vector<Reg> saved = regs;
            std::vector<Reg> savedW = writable;
            b.forLoop(begin, end, step,
                      [&](Reg i) {
                          regs.push_back(i); // read-only
                          genBlock(depth + 1, 4);
                      });
            regs = saved;
            writable = savedW;
            break;
          }
          case 7: { // bounded while with carried counter
            Reg cnt = b.reg("cnt");
            b.assignConst(cnt, 0);
            sir::Word bound = static_cast<sir::Word>(
                1 + rng.nextBounded(4));
            std::vector<Reg> saved = regs;
            std::vector<Reg> savedW = writable;
            b.whileLoop(
                [&] { return b.lti(cnt, bound); },
                [&] {
                    genBlock(depth + 1, 3);
                    b.computeInto(cnt, Opcode::Add, cnt, b.let(1));
                });
            regs = saved;
            writable = savedW;
            break;
          }
        }
    }

    void
    genBlock(int depth, int budget)
    {
        int count = 1 + static_cast<int>(rng.nextBounded(
                            static_cast<uint64_t>(budget)));
        for (int i = 0; i < count && budget > 0; i++)
            genStmt(depth, budget);
    }

    /**
     * foreach bodies must be independent across iterations: read
     * the read-only input, keep state in registers, write only
     * out[i].
     */
    void
    genForeachBody(Reg i)
    {
        std::vector<Reg> saved = regs;
        std::vector<Reg> savedW = writable;
        Reg v = b.loadIdx(in, b.band(i, b.let(15)));
        regs.push_back(v);
        regs.push_back(i);

        Reg acc = b.reg("acc");
        b.assignConst(acc, 0);
        // Data-dependent inner loop (countdown on |v| & 15).
        Reg w = b.band(v, b.let(15));
        b.whileLoop(
            [&] { return b.gti(w, 0); },
            [&] {
                regs.push_back(acc);
                b.computeInto(acc, Opcode::Add, acc,
                              binary(pickOp(), pick(), pick()));
                regs.pop_back();
                b.computeInto(w, Opcode::Sub, w, b.let(1));
            });
        b.ifThen(b.band(v, b.let(1)), [&] {
            b.computeInto(acc, Opcode::Xor, acc, b.let(0x5a));
        });
        b.storeIdx(out, i, acc);
        regs = saved;
        writable = savedW;
    }

    Rng rng;
    Builder b;
    sir::ArrayId in{}, out{}, shared{};
    std::vector<Reg> regs;     ///< readable pool
    std::vector<Reg> writable; ///< assignable subset
};

class Fuzz : public ::testing::TestWithParam<int>
{};

/** Every fuzz-compiled graph must certify deadlock-free; the sim
 *  runs that follow then cross-check the verdict for real. */
void
expectCertified(const dfg::Graph &graph, uint64_t seed,
                int bufferDepth = 4)
{
    analysis::AnalysisOptions opts;
    opts.bufferDepth = bufferDepth;
    auto report = analysis::analyzeGraph(graph, opts);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << " fails static analysis:\n"
        << report.toString(graph) << "\n"
        << dfg::toDot(graph);
    ASSERT_TRUE(report.deadlockFree);
}

/** The throughput bound must be sound on every fuzz graph: no
 *  completed run may finish in fewer cycles than the certified
 *  floor its own fire counts instantiate. */
void
expectBoundHolds(const dfg::Graph &graph, const sim::SimConfig &cfg,
                 const sim::SimResult &sim, uint64_t seed,
                 const std::string &tag)
{
    if (sim.deadlocked || sim.watchdogExpired)
        return; // the run stopped early; the completion floor says nothing
    std::shared_ptr<const dfg::Graph> hold(
        std::shared_ptr<const dfg::Graph>(), &graph);
    sim::Program prog(hold, cfg);
    sim::BoundReport::Evaluation ev =
        analysis::computeBound(prog).evaluate(sim.stats);
    EXPECT_TRUE(ev.holds(sim.stats.cycles))
        << "seed " << seed << " " << tag << ": simulated "
        << sim.stats.cycles << " cycles beats the certified bound of "
        << ev.certifiedCycles;
}

/** Names of the SimStats fields where @p a and @p b differ. */
std::string
statsDiff(const sim::SimStats &a, const sim::SimStats &b)
{
    std::string out;
#define PS_DIFF(field)                                                \
    if (!(a.field == b.field))                                        \
        out += " " #field;
    PS_DIFF(cycles)
    PS_DIFF(nodeFires)
    PS_DIFF(portReads)
    PS_DIFF(classFires)
    PS_DIFF(nocCfFires)
    PS_DIFF(bufferWrites)
    PS_DIFF(bufferReads)
    PS_DIFF(nocTraversals)
    PS_DIFF(memLoads)
    PS_DIFF(memStores)
    PS_DIFF(steerDrops)
    PS_DIFF(syncPlaneCycles)
    PS_DIFF(dispatchSpawns)
    PS_DIFF(dispatchConts)
    PS_DIFF(shareConflicts)
    PS_DIFF(muxSwitches)
    PS_DIFF(interTileTokens)
    PS_DIFF(stallNoInput)
    PS_DIFF(stallNoSpace)
    PS_DIFF(bankConflictStalls)
#undef PS_DIFF
    return out;
}

/**
 * Run @p cfg on the DenseScan oracle (into @p mem, which holds the
 * initial image) and on ParallelRegions at threads 0 (one inline
 * region), 1 (two regions inline) and 2 (two regions on two
 * workers), so region boundaries, cross-region wakes and the K-way
 * merge are exercised. Every engine run must equal the oracle's
 * stats, termination, diagnostic and memory image. @return the
 * oracle's run.
 */
sim::SimResult
simulateBothEngines(const dfg::Graph &graph, sim::SimConfig cfg,
                    scalar::MemImage &mem, uint64_t seed,
                    const std::string &tag)
{
    const scalar::MemImage init = mem;
    cfg.scheduler = sim::SimConfig::Scheduler::DenseScan;
    sim::SimResult oracle = sim::simulate(graph, mem, cfg);
    cfg.scheduler = sim::SimConfig::Scheduler::ParallelRegions;
    cfg.parallelJobs = 2;
    for (int threads : {0, 1, 2}) {
        cfg.parallelThreads = threads;
        scalar::MemImage parMem = init;
        sim::SimResult par = sim::simulate(graph, parMem, cfg);
        std::string where = "seed " + std::to_string(seed) + " " +
                            tag + " parallel threads=" +
                            std::to_string(threads);
        EXPECT_TRUE(sim::statsEqual(oracle.stats, par.stats))
            << where << ": differs in"
            << statsDiff(oracle.stats, par.stats);
        EXPECT_EQ(oracle.deadlocked, par.deadlocked) << where;
        EXPECT_EQ(oracle.watchdogExpired, par.watchdogExpired) << where;
        EXPECT_EQ(oracle.diagnostic, par.diagnostic) << where;
        EXPECT_EQ(mem, parMem) << where << " memory image";
    }
    return oracle;
}

} // namespace

TEST_P(Fuzz, AllVariantsMatchGolden)
{
    setQuiet(true);
    uint64_t seed = static_cast<uint64_t>(GetParam());
    ProgramGen gen(seed);
    auto prog = gen.generate();
    ASSERT_TRUE(sir::verify(prog).empty())
        << sir::print(prog) << "\n"
        << sir::verify(prog).front();

    Rng dataRng(seed * 977 + 13);
    scalar::MemImage init(
        static_cast<size_t>(prog.memWords), 0);
    for (size_t i = 0; i < 16; i++) // in[] random
        init[i] = static_cast<sir::Word>(dataRng.nextRange(-50, 50));

    std::vector<sir::Word> liveIns = {12}; // n

    scalar::MemImage golden = init;
    scalar::interpret(prog, golden, liveIns);

    for (ArchVariant v :
         {ArchVariant::RipTide, ArchVariant::Pipestitch,
          ArchVariant::PipeSB, ArchVariant::PipeCFiN,
          ArchVariant::PipeCFoP}) {
        for (auto threading :
             {compiler::CompileOptions::Threading::Heuristic,
              compiler::CompileOptions::Threading::ForceOn}) {
            compiler::CompileOptions opts;
            opts.variant = v;
            opts.threading = threading;
            auto res =
                compiler::compileProgram(prog, liveIns, opts);
            for (int depth : {2, 4}) {
                expectCertified(res.graph, seed, depth);
                // Both engines: results are bit-identical by the
                // engine contract, so the golden image and the
                // throughput bound checked on the oracle's run hold
                // for every engine run too.
                auto cfg = res.simConfig;
                cfg.bufferDepth = depth;
                cfg.maxCycles = 3'000'000;
                scalar::MemImage mem = init;
                std::string tag =
                    std::string(compiler::archVariantName(v)) +
                    " depth " + std::to_string(depth);
                auto sim = simulateBothEngines(res.graph, cfg, mem,
                                               seed, tag);
                ASSERT_FALSE(sim.deadlocked)
                    << "seed " << seed << " " << tag << "\n"
                    << sim.diagnostic << "\n"
                    << sir::print(prog);
                ASSERT_EQ(golden, mem)
                    << "seed " << seed << " " << tag << "\n"
                    << sir::print(prog);
                expectBoundHolds(res.graph, cfg, sim, seed, tag);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(0, 48));

TEST_P(Fuzz, TimeMultiplexingPreservesSemantics)
{
    // Fold operators onto shared PEs against a deliberately tiny
    // fabric budget; mutual exclusion must never change results.
    setQuiet(true);
    uint64_t seed = static_cast<uint64_t>(GetParam());
    ProgramGen gen(seed * 17 + 3);
    auto prog = gen.generate();
    ASSERT_TRUE(sir::verify(prog).empty());

    Rng dataRng(seed * 977 + 13);
    scalar::MemImage init(static_cast<size_t>(prog.memWords), 0);
    for (size_t i = 0; i < 16; i++)
        init[i] = static_cast<sir::Word>(dataRng.nextRange(-50, 50));
    std::vector<sir::Word> liveIns = {12};
    scalar::MemImage golden = init;
    scalar::interpret(prog, golden, liveIns);

    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(prog, liveIns, opts);
    expectCertified(res.graph, seed);

    fabric::FabricConfig tiny;
    tiny.peMix = {3, 1, 5, 3, 2}; // squeeze hard to force folding
    auto groups =
        compiler::tryPlanTimeMultiplexing(res.graph, tiny);
    if (!groups || groups->empty())
        return; // nothing to fold for this program

    auto cfg = res.simConfig;
    cfg.maxCycles = 3'000'000;
    for (const auto &group : *groups)
        cfg.shareGroups.emplace_back(group.begin(), group.end());
    scalar::MemImage mem = init;
    auto sim = simulateBothEngines(res.graph, cfg, mem, seed, "timemux");
    ASSERT_FALSE(sim.deadlocked)
        << "seed " << seed << "\n" << sim.diagnostic;
    ASSERT_EQ(golden, mem) << "seed " << seed;
    expectBoundHolds(res.graph, cfg, sim, seed, "timemux");
}

TEST_P(Fuzz, SpatialUnrollMatchesGolden)
{
    // The Sec. 6 unrolling transform must preserve semantics on the
    // same random programs (foreach bodies in the generator are
    // independent by construction).
    setQuiet(true);
    uint64_t seed = static_cast<uint64_t>(GetParam());
    ProgramGen gen(seed * 131 + 7);
    auto prog = gen.generate();
    ASSERT_TRUE(sir::verify(prog).empty());

    Rng dataRng(seed * 977 + 13);
    scalar::MemImage init(static_cast<size_t>(prog.memWords), 0);
    for (size_t i = 0; i < 16; i++)
        init[i] = static_cast<sir::Word>(dataRng.nextRange(-50, 50));
    std::vector<sir::Word> liveIns = {12};
    scalar::MemImage golden = init;
    scalar::interpret(prog, golden, liveIns);

    for (int unroll : {2, 4}) {
        compiler::CompileOptions opts;
        opts.variant = ArchVariant::Pipestitch;
        opts.unrollFactor = unroll;
        auto res = compiler::compileProgram(prog, liveIns, opts);
        expectCertified(res.graph, seed);
        auto cfg = res.simConfig;
        cfg.maxCycles = 3'000'000;
        scalar::MemImage mem = init;
        auto sim = simulateBothEngines(
            res.graph, cfg, mem, seed,
            "unroll " + std::to_string(unroll));
        ASSERT_FALSE(sim.deadlocked)
            << "seed " << seed << " unroll " << unroll << "\n"
            << sim.diagnostic;
        ASSERT_EQ(golden, mem)
            << "seed " << seed << " unroll " << unroll;
        expectBoundHolds(res.graph, cfg, sim, seed,
                         "unroll " + std::to_string(unroll));
    }
}
