/**
 * @file
 * Observability-layer tests (src/trace/).
 *
 * The load-bearing claims, each enforced here:
 *   - an observed run emits the *identical* event stream (order
 *     included) whatever the scheduler — observed runs execute on
 *     the DenseScan oracle — and its stats equal the unobserved
 *     ParallelRegions run's, so a trace describes the run the
 *     production engine performs;
 *   - event counts reconcile exactly with SimStats;
 *   - attaching an observer never perturbs the simulation itself;
 *   - the Chrome-trace sink writes syntactically valid JSON whose
 *     span/instant counts reconcile with SimStats;
 *   - the stall-timeline sink's totals and per-interval buckets
 *     reconcile with SimStats.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "compiler/compile.hh"
#include "sim/simulator.hh"
#include "sir/parser.hh"
#include "trace/chrome_trace.hh"
#include "trace/observer.hh"
#include "trace/recording.hh"
#include "trace/stall_timeline.hh"
#include "workloads/kernels.hh"

using namespace pipestitch;
using compiler::ArchVariant;
using sim::SimConfig;
using trace::RecordingObserver;
using Word = sir::Word;

namespace {

workloads::KernelInstance
loadSirKernel(const std::string &file,
              const std::map<std::string, Word> &liveIns,
              const std::map<std::string, std::vector<Word>> &inits)
{
    std::string path = std::string(KERNEL_DIR) + "/" + file;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
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
        for (size_t i = 0; i < values.size(); i++)
            kernel.memory[static_cast<size_t>(arr.base) + i] =
                values[i];
    }
    return kernel;
}

workloads::KernelInstance
spmvKernel()
{
    return loadSirKernel("spmv.sir", {{"n", 4}},
                         {{"rowptr", {0, 2, 3, 5, 6}},
                          {"colidx", {0, 2, 1, 0, 3, 2}},
                          {"val", {5, 1, 7, 2, 4, 3}},
                          {"x", {1, 2, 3, 4}}});
}

/** Simulate @p kernel with @p observer attached (may be null). */
sim::SimResult
runWith(const workloads::KernelInstance &kernel,
        SimConfig::Scheduler sched, trace::SimObserver *observer,
        scalar::MemImage &memOut)
{
    compiler::CompileOptions opts;
    opts.variant = ArchVariant::Pipestitch;
    auto res = compiler::compileProgram(kernel.prog, kernel.liveIns,
                                        opts);
    auto cfg = res.simConfig;
    cfg.scheduler = sched;
    cfg.maxCycles = 500000;
    cfg.observer = observer;
    memOut = kernel.memory;
    memOut.resize(static_cast<size_t>(kernel.prog.memWords));
    return sim::simulate(res.graph, memOut, cfg);
}

void
expectSameKeyStats(const sim::SimStats &a, const sim::SimStats &b,
                   const std::string &tag)
{
#define PS_EQ(field) EXPECT_EQ(a.field, b.field) << tag << " " #field
    PS_EQ(cycles);
    PS_EQ(nodeFires);
    PS_EQ(memLoads);
    PS_EQ(memStores);
    PS_EQ(dispatchSpawns);
    PS_EQ(dispatchConts);
    PS_EQ(syncPlaneCycles);
    PS_EQ(stallNoInput);
    PS_EQ(stallNoSpace);
    PS_EQ(bankConflictStalls);
#undef PS_EQ
}

/**
 * Minimal JSON syntax checker (no semantics, no numbers beyond the
 * grammar) so the ctest suite can validate emitted documents
 * without an external JSON library.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return i == s.size();
    }

  private:
    const std::string &s;
    size_t i = 0;

    void
    skipWs()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                s[i] == '\r'))
            i++;
    }

    bool
    lit(const char *word)
    {
        size_t n = std::strlen(word);
        if (s.compare(i, n, word) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        i++;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                i++;
                if (i >= s.size())
                    return false;
                if (s[i] == 'u') {
                    if (i + 4 >= s.size())
                        return false;
                    i += 4;
                }
            }
            i++;
        }
        if (i >= s.size())
            return false;
        i++; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = i;
        if (i < s.size() && s[i] == '-')
            i++;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            i++;
        return i > start;
    }

    bool
    value()
    {
        skipWs();
        if (i >= s.size())
            return false;
        switch (s[i]) {
          case '{': {
            i++;
            skipWs();
            if (i < s.size() && s[i] == '}') {
                i++;
                return true;
            }
            while (true) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (i >= s.size() || s[i] != ':')
                    return false;
                i++;
                if (!value())
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    i++;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != '}')
                return false;
            i++;
            return true;
          }
          case '[': {
            i++;
            skipWs();
            if (i < s.size() && s[i] == ']') {
                i++;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                skipWs();
                if (i < s.size() && s[i] == ',') {
                    i++;
                    continue;
                }
                break;
            }
            if (i >= s.size() || s[i] != ']')
                return false;
            i++;
            return true;
          }
          case '"': return string();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return number();
        }
    }
};

/** spmv plus every small workload kernel (threaded ones included):
 *  the corpus all stream-identity tests run over. */
std::vector<workloads::KernelInstance>
corpus()
{
    setQuiet(true);
    std::vector<workloads::KernelInstance> kernels;
    kernels.push_back(spmvKernel());
    for (auto &k : workloads::smallKernels(1))
        kernels.push_back(std::move(k));
    return kernels;
}

int64_t
sumFires(const sim::SimStats &s)
{
    int64_t total = 0;
    for (int64_t f : s.nodeFires)
        total += f;
    return total;
}

} // namespace

TEST(TraceParity, SchedulersEmitIdenticalEventStreams)
{
    for (const auto &kernel : corpus()) {
        RecordingObserver dense, par;
        scalar::MemImage denseMem, parMem, engineMem;
        auto denseRes = runWith(kernel,
                                SimConfig::Scheduler::DenseScan,
                                &dense, denseMem);
        auto parRes = runWith(kernel,
                              SimConfig::Scheduler::ParallelRegions,
                              &par, parMem);
        auto engineRes = runWith(kernel,
                                 SimConfig::Scheduler::ParallelRegions,
                                 nullptr, engineMem);
        expectSameKeyStats(denseRes.stats, parRes.stats,
                           kernel.name);
        EXPECT_TRUE(sim::statsEqual(denseRes.stats, engineRes.stats))
            << kernel.name << ": the traced run and the engine's run "
               "disagree";
        EXPECT_EQ(denseMem, parMem) << kernel.name;
        EXPECT_EQ(denseMem, engineMem) << kernel.name;
        EXPECT_TRUE(dense.simEnded);
        EXPECT_TRUE(par.simEnded);

        // The ordered stream must match event for event.
        ASSERT_EQ(dense.events.size(), par.events.size())
            << kernel.name;
        for (size_t i = 0; i < dense.events.size(); i++) {
            if (!(dense.events[i] == par.events[i])) {
                FAIL() << kernel.name << " event " << i
                       << " diverges: dense "
                       << dense.describe(dense.events[i])
                       << " vs parallel "
                       << par.describe(par.events[i]);
            }
        }
        // SyncPlane activity is cycle-granular (see recording.hh);
        // the cycle lists must still agree exactly.
        EXPECT_EQ(dense.syncPlaneCycles, par.syncPlaneCycles)
            << kernel.name;
    }
}

TEST(TraceParity, EventCountsReconcileWithStats)
{
    for (const auto &kernel : corpus()) {
        RecordingObserver rec;
        scalar::MemImage mem;
        auto res = runWith(kernel,
                           SimConfig::Scheduler::ParallelRegions, &rec,
                           mem);
        ASSERT_FALSE(res.deadlocked) << kernel.name;
        const auto &s = res.stats;
        using Kind = RecordingObserver::Kind;
        EXPECT_EQ(rec.count(Kind::Fire), sumFires(s))
            << kernel.name;
        EXPECT_EQ(rec.count(Kind::Mem), s.memLoads + s.memStores)
            << kernel.name;
        EXPECT_EQ(rec.count(Kind::Dispatch),
                  s.dispatchSpawns + s.dispatchConts)
            << kernel.name;
        EXPECT_EQ(rec.count(Kind::Stall),
                  s.stallNoInput + s.stallNoSpace +
                      s.bankConflictStalls)
            << kernel.name;
        EXPECT_EQ(static_cast<int64_t>(rec.syncPlaneCycles.size()),
                  s.syncPlaneCycles)
            << kernel.name;
    }
}

TEST(TraceParity, ObserverDoesNotPerturbSimulation)
{
    // The bare ParallelRegions run takes the engine, the observed one
    // the DenseScan oracle: their stats must still agree.
    for (auto sched : {SimConfig::Scheduler::DenseScan,
                       SimConfig::Scheduler::ParallelRegions}) {
        auto kernel = spmvKernel();
        scalar::MemImage bareMem, obsMem;
        auto bare = runWith(kernel, sched, nullptr, bareMem);
        RecordingObserver rec;
        auto observed = runWith(kernel, sched, &rec, obsMem);
        expectSameKeyStats(bare.stats, observed.stats, "perturb");
        EXPECT_EQ(bareMem, obsMem);
        EXPECT_GT(rec.events.size(), 0u);
    }
}

TEST(TraceSinks, ChromeTraceJsonParsesAndReconciles)
{
    auto kernel = spmvKernel();
    trace::ChromeTraceSink sink;
    scalar::MemImage mem;
    auto res = runWith(kernel, SimConfig::Scheduler::ParallelRegions,
                       &sink, mem);
    ASSERT_FALSE(res.deadlocked);

    EXPECT_EQ(sink.spanCount(), sumFires(res.stats));
    EXPECT_EQ(sink.instantCount(),
              res.stats.dispatchSpawns + res.stats.dispatchConts +
                  res.stats.memLoads + res.stats.memStores);

    std::ostringstream out;
    sink.write(out);
    std::string json = out.str();
    EXPECT_TRUE(JsonChecker(json).valid())
        << "not valid JSON:\n"
        << json.substr(0, 400);
    // Spot-check the Trace Event Format essentials.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(TraceSinks, StallTimelineReconciles)
{
    auto kernel = spmvKernel();
    trace::StallTimelineSink sink(8); // small interval: many buckets
    scalar::MemImage mem;
    auto res = runWith(kernel, SimConfig::Scheduler::ParallelRegions,
                       &sink, mem);
    ASSERT_FALSE(res.deadlocked);

    const auto &s = res.stats;
    EXPECT_EQ(sink.totalFires(), sumFires(s));
    EXPECT_EQ(sink.totalStalls(trace::StallReason::NoInput),
              s.stallNoInput);
    EXPECT_EQ(sink.totalStalls(trace::StallReason::NoSpace),
              s.stallNoSpace);
    EXPECT_EQ(sink.totalStalls(trace::StallReason::BankConflict),
              s.bankConflictStalls);

    // Bucket-by-bucket sums must equal the totals (nothing lost in
    // interval bookkeeping).
    int64_t fires = 0, stalls = 0;
    for (size_t n = 0; n < s.nodeFires.size(); n++) {
        for (int b = 0; b < sink.numIntervals(); b++) {
            const auto &bk =
                sink.at(static_cast<dfg::NodeId>(n), b);
            fires += bk.fires;
            stalls += bk.noInput + bk.noSpace + bk.bankConflict;
        }
    }
    EXPECT_EQ(fires, sink.totalFires());
    EXPECT_EQ(stalls,
              s.stallNoInput + s.stallNoSpace +
                  s.bankConflictStalls);

    std::ostringstream out;
    sink.writeJson(out);
    EXPECT_TRUE(JsonChecker(out.str()).valid());
    EXPECT_FALSE(sink.toString().empty());
}

TEST(TraceSinks, ObserverListFansOutToAllSinks)
{
    auto kernel = spmvKernel();
    RecordingObserver a, b;
    trace::ObserverList list;
    EXPECT_TRUE(list.empty());
    list.add(&a);
    list.add(&b);
    EXPECT_FALSE(list.empty());

    scalar::MemImage mem;
    runWith(kernel, SimConfig::Scheduler::ParallelRegions, &list, mem);
    ASSERT_GT(a.events.size(), 0u);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.syncPlaneCycles, b.syncPlaneCycles);
    EXPECT_TRUE(a.simEnded);
    EXPECT_TRUE(b.simEnded);
}
