#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "base/logging.hh"

namespace pipestitch::sim {

using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
namespace pidx = dfg::port_idx;

namespace {

constexpr int64_t kAvailAlways = INT64_MIN; ///< immediate operand
constexpr int64_t kAvailNever = INT64_MAX;  ///< empty or unwired

// GroupChoice numbering (matches ExecutionState::GroupChoice).
constexpr uint8_t GcNone = 0;
constexpr uint8_t GcCont = 1;
constexpr uint8_t GcSpawn = 2;

// NodeRt::Fsm numbering (diagnose() prints the raw value).
constexpr uint8_t FsmInit = 0;
constexpr uint8_t FsmRun = 1;
constexpr uint8_t FsmWaitVal = 2;

inline void
setBit(std::vector<uint64_t> &bits, int i)
{
    bits[static_cast<size_t>(i >> 6)] |= uint64_t{1} << (i & 63);
}

/** One spin-wait step: a pause hint, so a spinning thread yields
 *  its core's pipeline to a hyper-threaded sibling. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

// Barrier wait: a short spin on the atomic (mid-run phases arrive
// every few microseconds), then block in std::atomic::wait — a
// futex, so an idle engine between runs costs no CPU time.
constexpr int kSpinPauses = 256;

/** Store @p v and wake @p a 's blocked waiters. notify_all skips
 *  the futex wake when its (seq_cst) waiter count reads zero, so the
 *  store must be seq_cst too: a release store may still be buffered
 *  when that count is read, and a waiter that registers in between
 *  blocks on the old value for good. */
inline void
publish(std::atomic<uint32_t> &a, uint32_t v)
{
    a.store(v, std::memory_order_seq_cst);
    a.notify_all();
}

/** Wait until @p a moves off @p old; returns the new value. */
inline uint32_t
awaitChange(const std::atomic<uint32_t> &a, uint32_t old)
{
    for (int spin = 0; spin < kSpinPauses; spin++) {
        const uint32_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        cpuRelax();
    }
    a.wait(old, std::memory_order_seq_cst);
    return a.load(std::memory_order_acquire);
}

} // namespace

// Each field the two sides spin on gets its own cache line, so a
// worker finishing its share never invalidates the line another
// worker is polling.
struct ParallelEngine::Crew
{
    struct alignas(64) Done
    {
        /** The last epoch this worker finished. */
        std::atomic<uint32_t> epoch{0};
    };

    /** Bumped by the coordinator to publish `phase`. */
    alignas(64) std::atomic<uint32_t> epoch{0};
    // Written by the coordinator before each epoch bump and read by
    // the workers after observing it (release/acquire on epoch).
    Phase phase = Phase::Scan;
    bool firstRound = false;
    /** [threads]; entry 0 unused. Every worker runs every phase, so
     *  a slot holds the current epoch or the one before it. */
    std::vector<Done> done;
    std::vector<std::thread> threads;
};

ParallelEngine::ParallelEngine(std::shared_ptr<const Program> program,
                               int jobs, int threads)
    : progHold(std::move(program)), prog(*progHold)
{
    // The default (threads = 0) is one inline region: no size
    // measured so far runs faster threaded (docs/simulator.md,
    // "Thread policy"). Explicit thread counts run `jobs` regions —
    // partition and worker coverage for tests and bench-sim-par.
    const int regions = threads > 0 ? std::max(1, jobs) : 1;
    physThreads = std::max(1, std::min(threads, regions));
    plan = partitionRegions(prog, regions);
    physThreads = std::min(physThreads, plan.count);
    PartitionVerdict verdict = verifyPartition(prog, plan);
    ps_assert(verdict.ok, "region partition violates engine "
                          "invariants:\n%s",
              verdict.diagnostic.c_str());
    buildTables();
    ctr.regions = plan.count;
    ctr.threads = physThreads;
    ctr.inlineRun = physThreads == 1;
    if (physThreads > 1) {
        crew = std::make_unique<Crew>();
        crew->done = std::vector<Crew::Done>(
            static_cast<size_t>(physThreads));
        crew->threads.reserve(static_cast<size_t>(physThreads - 1));
        for (int w = 1; w < physThreads; w++)
            crew->threads.emplace_back([this, w] { workerMain(w); });
    }
}

ParallelEngine::~ParallelEngine()
{
    if (crew) {
        runPhase(Phase::Stop, false);
        for (std::thread &t : crew->threads)
            t.join();
    }
}

// ---------------------------------------------------------------------
// Build: flatten the Program into SoA tables
// ---------------------------------------------------------------------

void
ParallelEngine::buildTables()
{
    const dfg::Graph &g = prog.graph();
    n = g.size();
    depth = prog.cfg.bufferDepth;
    numLoops = g.numLoops;
    memBanks = prog.cfg.memBanks;
    memLatency = prog.cfg.memLatency;
    memBypass = prog.cfg.memBypass;
    greedyDispatch = prog.cfg.greedyDispatch;
    checkThreadOrder = prog.cfg.checkThreadOrder;
    sourceMode = prog.sourceMode;

    kindA.resize(static_cast<size_t>(n));
    opcA.resize(static_cast<size_t>(n));
    wantA.resize(static_cast<size_t>(n));
    immA.resize(static_cast<size_t>(n));
    steerTrueA.resize(static_cast<size_t>(n));
    streamStepA.resize(static_cast<size_t>(n));
    loopIdA.resize(static_cast<size_t>(n));
    peClassA.resize(static_cast<size_t>(n));
    isMemA.resize(static_cast<size_t>(n));
    nocA.resize(static_cast<size_t>(n));
    hasOutBufA.resize(static_cast<size_t>(n));
    outCapA.resize(static_cast<size_t>(n));
    outStride = 0;
    insBase.assign(static_cast<size_t>(n) + 1, 0);
    outsBase.assign(static_cast<size_t>(n) + 1, 0);
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        const size_t i = static_cast<size_t>(id);
        kindA[i] = static_cast<uint8_t>(node.kind);
        opcA[i] = node.op;
        wantA[i] = static_cast<uint8_t>(
            node.kind == NodeKind::Arith ? sir::numOperands(node.op)
                                         : 0);
        immA[i] = node.imm;
        steerTrueA[i] = node.steerIfTrue ? 1 : 0;
        streamStepA[i] = node.streamStep;
        loopIdA[i] = node.loopId;
        peClassA[i] = static_cast<uint8_t>(node.peClass());
        isMemA[i] = node.isMemory() ? 1 : 0;
        nocA[i] = prog.nocNode[i];
        const Program::NodePlan &p = prog.plan[i];
        // Destination buffering gives every node input FIFOs of the
        // uniform configured depth (the input slabs assume it); only
        // CF/memory PEs carry output FIFOs. Source buffering has
        // output rings only, shallower on router CF.
        ps_assert(sourceMode || node.numInputs() == 0 ||
                      p.insDepth == depth,
                  "non-uniform input depth on node %d", id);
        ps_assert(sourceMode || p.outsDepth == 0 ||
                      p.outsDepth == depth,
                  "non-uniform output depth on node %d", id);
        hasOutBufA[i] = p.outsDepth > 0 ? 1 : 0;
        outCapA[i] = p.outsDepth;
        outStride = std::max(outStride, p.outsDepth);
        insBase[i + 1] = insBase[i] + node.numInputs();
        outsBase[i + 1] =
            outsBase[i] + (p.outsDepth > 0 ? node.numOutputs() : 0);
    }

    const int P = insBase[static_cast<size_t>(n)];
    portMode.assign(static_cast<size_t>(P), PortUnwired);
    portImmVal.assign(static_cast<size_t>(P), 0);
    portProd.assign(static_cast<size_t>(P), -1);
    portNocOwner.assign(static_cast<size_t>(P), 0);
    for (NodeId id = 0; id < n; id++) {
        const auto &refs = prog.inputRefs[static_cast<size_t>(id)];
        for (size_t in = 0; in < refs.size(); in++) {
            int ip = insBase[static_cast<size_t>(id)] +
                     static_cast<int>(in);
            const size_t pi = static_cast<size_t>(ip);
            portNocOwner[pi] = nocA[static_cast<size_t>(id)];
            if (refs[in].isImm) {
                portMode[pi] = PortImm;
                portImmVal[pi] = refs[in].imm;
            } else if (refs[in].wired()) {
                portMode[pi] = PortWired;
                portProd[pi] = refs[in].prod;
            }
        }
    }

    if (sourceMode) {
        // Every node buffers every output port, so ring indices and
        // CSR port indices coincide.
        ps_assert(outsBase == prog.portBase,
                  "source rings drifted from the CSR port layout");
        srcPortA.assign(static_cast<size_t>(P), -1);
        ipShedA.assign(static_cast<size_t>(P), 0);
        for (NodeId id = 0; id < n; id++) {
            const auto &refs = prog.inputRefs[static_cast<size_t>(id)];
            for (size_t in = 0; in < refs.size(); in++) {
                if (!refs[in].wired())
                    continue;
                const size_t pi = static_cast<size_t>(
                    insBase[static_cast<size_t>(id)] +
                    static_cast<int>(in));
                srcPortA[pi] =
                    prog.portBase[static_cast<size_t>(refs[in].prod)] +
                    refs[in].prodPort;
                ipShedA[pi] =
                    prog.threadRegionOf[static_cast<size_t>(
                        refs[in].prod)] !=
                    prog.threadRegionOf[static_cast<size_t>(id)];
            }
        }
    }

    // Consumer edges, flat and in the Program's CSR order (so
    // prog.consBase indexes these arrays directly).
    const int E = prog.consBase.back();
    edgeNode.resize(static_cast<size_t>(E));
    edgeIp.resize(static_cast<size_t>(E));
    edgeChan.assign(static_cast<size_t>(E), -1);
    edgeShed.resize(static_cast<size_t>(E));
    {
        size_t at = 0;
        for (NodeId id = 0; id < n; id++) {
            for (int port = 0; port < g.at(id).numOutputs();
                 port++) {
                for (const auto &c : g.consumersOf({id, port})) {
                    edgeNode[at] = c.node;
                    edgeIp[at] =
                        insBase[static_cast<size_t>(c.node)] +
                        c.inputIndex;
                    if (prog.hasChannels) {
                        edgeChan[at] =
                            prog.chanIdOf[static_cast<size_t>(
                                c.node)][static_cast<size_t>(
                                c.inputIndex)];
                    }
                    edgeShed[at] =
                        prog.threadRegionOf[static_cast<size_t>(
                            id)] !=
                                prog.threadRegionOf
                                    [static_cast<size_t>(c.node)]
                            ? 1
                            : 0;
                    at++;
                }
            }
        }
        ps_assert(at == static_cast<size_t>(E),
                  "edge table drifted from CSR layout");
    }

    const int C = static_cast<int>(prog.channels.size());
    chanBase.assign(static_cast<size_t>(C) + 1, 0);
    chCapA.resize(static_cast<size_t>(C));
    chLatA.resize(static_cast<size_t>(C));
    chSrcNode.resize(static_cast<size_t>(C));
    chDstNode.resize(static_cast<size_t>(C));
    chDstIp.resize(static_cast<size_t>(C));
    for (int ch = 0; ch < C; ch++) {
        const Program::Channel &cc =
            prog.channels[static_cast<size_t>(ch)];
        chanBase[static_cast<size_t>(ch) + 1] =
            chanBase[static_cast<size_t>(ch)] + cc.capacity;
        chCapA[static_cast<size_t>(ch)] = cc.capacity;
        chLatA[static_cast<size_t>(ch)] = cc.latency;
        chSrcNode[static_cast<size_t>(ch)] = cc.src;
        chDstNode[static_cast<size_t>(ch)] = cc.dst;
        chDstIp[static_cast<size_t>(ch)] =
            insBase[static_cast<size_t>(cc.dst)] + cc.dstIn;
        if (plan.regionOf[static_cast<size_t>(cc.src)] !=
            plan.regionOf[static_cast<size_t>(cc.dst)]) {
            cutChanList.push_back(ch);
        }
    }

    // Region-local PE indexing: regSeq[r] ascending, so ascending
    // local index == ascending node id within a region, and the
    // bitmap worklists are private per-region allocations.
    regSeq.assign(static_cast<size_t>(plan.count), {});
    regionOfA.assign(static_cast<size_t>(n), 0);
    localIdx.assign(static_cast<size_t>(n), -1);
    for (int r = 0; r < plan.count; r++) {
        for (NodeId id : plan.nodes[static_cast<size_t>(r)]) {
            regionOfA[static_cast<size_t>(id)] = r;
            if (nocA[static_cast<size_t>(id)])
                continue;
            localIdx[static_cast<size_t>(id)] = static_cast<int>(
                regSeq[static_cast<size_t>(r)].size());
            regSeq[static_cast<size_t>(r)].push_back(id);
        }
    }
    nocWords =
        (static_cast<int>(prog.nocTopo.size()) + 63) / 64;

    regs.assign(static_cast<size_t>(plan.count), Region{});
    for (int r = 0; r < plan.count; r++) {
        Region &R = regs[static_cast<size_t>(r)];
        size_t words =
            (regSeq[static_cast<size_t>(r)].size() + 63) / 64;
        R.liveBits.assign(words, 0);
        R.roundBits.assign(words, 0);
        R.nextBits.assign(words, 0);
        if (prog.cfg.shareGroups.empty())
            continue;
        R.scanMask.assign(words, 0);
        const auto &seq = regSeq[static_cast<size_t>(r)];
        for (size_t k = 0; k < seq.size(); k++) {
            if (prog.shareGroupOf[static_cast<size_t>(seq[k])] < 0)
                R.scanMask[k / 64] |= uint64_t{1} << (k % 64);
        }
    }
    liveNocBits.assign(static_cast<size_t>(nocWords), 0);
    nocSweepBits.assign(static_cast<size_t>(nocWords), 0);
    nocNextBits.assign(static_cast<size_t>(nocWords), 0);
    drainBits.assign((static_cast<size_t>(n) + 63) / 64, 0);

    // Per-run slabs sized once here, zeroed by resetRun().
    const size_t PD = sourceMode ? 0
                                 : static_cast<size_t>(P) *
                                       static_cast<size_t>(depth);
    insVal.resize(PD);
    insTag.resize(PD);
    insBorn.resize(PD);
    insHeadA.resize(static_cast<size_t>(P));
    insCount.resize(static_cast<size_t>(P));
    insAvailFrom.resize(static_cast<size_t>(P));
    const size_t O = static_cast<size_t>(outsBase[static_cast<size_t>(n)]);
    const size_t OD = O * static_cast<size_t>(outStride);
    outVal.resize(OD);
    outTag.resize(OD);
    outHeadA.resize(O);
    outCount.resize(O);
    if (sourceMode) {
        outBorn.resize(OD);
        outRetired.resize(O);
        cursorA.resize(static_cast<size_t>(P));
    }
    insTokens.resize(static_cast<size_t>(n));
    reservedOutA.resize(static_cast<size_t>(n));
    fsmA.resize(static_cast<size_t>(n));
    pendingSideA.resize(static_cast<size_t>(n));
    latchValA.resize(static_cast<size_t>(n));
    latchTagA.resize(static_cast<size_t>(n));
    streamCurA.resize(static_cast<size_t>(n));
    streamEndA.resize(static_cast<size_t>(n));
    trigFiredA.resize(static_cast<size_t>(n));
    groupChoiceA.resize(static_cast<size_t>(numLoops));
    groupDirtyUntilA.resize(static_cast<size_t>(numLoops));
    groupPendingA.resize(static_cast<size_t>(numLoops));
    groupTouched.resize(static_cast<size_t>(numLoops));
    predB.resize(static_cast<size_t>(n));
    gateLoops.clear();
    for (int l = 0; l < numLoops; l++) {
        if (!prog.dispatchGroups[static_cast<size_t>(l)].empty())
            gateLoops.push_back(l);
    }
    lastVerdictA.resize(static_cast<size_t>(n));
    freshB.resize(static_cast<size_t>(n));
    wokenB.resize(static_cast<size_t>(n));
    firedB.resize(static_cast<size_t>(n));
    nocFiredB.resize(static_cast<size_t>(n));
    dormantClassA.resize(static_cast<size_t>(n));
    chVal.resize(static_cast<size_t>(chanBase.back()));
    chTag.resize(static_cast<size_t>(chanBase.back()));
    chReady.resize(static_cast<size_t>(chanBase.back()));
    chHead.resize(static_cast<size_t>(C));
    chCount.resize(static_cast<size_t>(C));
    bankClaimedAt.resize(static_cast<size_t>(memBanks));
    pendNode.resize(64);
    pendVal.resize(64);
    pendTag.resize(64);
    pendReady.resize(64);
    fireList.reserve(static_cast<size_t>(n));

    const auto &groups = prog.cfg.shareGroups;
    shareOfA = prog.shareGroupOf;
    shareMembers.clear();
    for (NodeId id = 0; id < n; id++) {
        // Router CF fires in the NoC settle, outside any residency.
        if (shareOfA[static_cast<size_t>(id)] >= 0 &&
            !nocA[static_cast<size_t>(id)])
            shareMembers.push_back(id);
    }
    shareUsedA.resize(groups.size());
    shareLastA.resize(groups.size());
}

void
ParallelEngine::resetRun()
{
    const int P = insBase[static_cast<size_t>(n)];
    std::fill(insHeadA.begin(), insHeadA.end(), 0);
    std::fill(insCount.begin(), insCount.end(), 0);
    for (int ip = 0; ip < P; ip++) {
        insAvailFrom[static_cast<size_t>(ip)] =
            portMode[static_cast<size_t>(ip)] == PortImm
                ? kAvailAlways
                : kAvailNever;
    }
    std::fill(outHeadA.begin(), outHeadA.end(), 0);
    std::fill(outCount.begin(), outCount.end(), 0);
    std::fill(insTokens.begin(), insTokens.end(), 0);
    std::fill(reservedOutA.begin(), reservedOutA.end(), 0);
    std::fill(fsmA.begin(), fsmA.end(), FsmInit);
    std::fill(pendingSideA.begin(), pendingSideA.end(), 0);
    std::fill(latchValA.begin(), latchValA.end(), 0);
    std::fill(latchTagA.begin(), latchTagA.end(), NoTag);
    std::fill(streamCurA.begin(), streamCurA.end(), 0);
    std::fill(streamEndA.begin(), streamEndA.end(), 0);
    std::fill(trigFiredA.begin(), trigFiredA.end(), 0);
    std::fill(groupChoiceA.begin(), groupChoiceA.end(), GcNone);
    // Dirty through cycle 1 so the initial trigger wave is seen.
    std::fill(groupDirtyUntilA.begin(), groupDirtyUntilA.end(), 1);
    std::fill(groupPendingA.begin(), groupPendingA.end(), 0);
    std::fill(groupTouched.begin(), groupTouched.end(), 0);
    std::fill(shareLastA.begin(), shareLastA.end(), dfg::NoNode);
    std::fill(outRetired.begin(), outRetired.end(), 0);
    std::fill(cursorA.begin(), cursorA.end(), 0);
    std::fill(predB.begin(), predB.end(), 0);
    std::fill(lastVerdictA.begin(), lastVerdictA.end(), VIdle);
    std::fill(freshB.begin(), freshB.end(), 0);
    std::fill(wokenB.begin(), wokenB.end(), 0);
    std::fill(firedB.begin(), firedB.end(), 0);
    std::fill(nocFiredB.begin(), nocFiredB.end(), 0);
    std::fill(dormantClassA.begin(), dormantClassA.end(),
              static_cast<uint8_t>(DormNone));
    inPeFixpoint = false;
    inNocEval = false;

    // Everything starts live; the first census prunes inert nodes.
    for (int r = 0; r < plan.count; r++) {
        Region &R = regs[static_cast<size_t>(r)];
        size_t m = regSeq[static_cast<size_t>(r)].size();
        std::fill(R.liveBits.begin(), R.liveBits.end(), ~uint64_t{0});
        if (!R.liveBits.empty() && (m & 63) != 0)
            R.liveBits.back() = (uint64_t{1} << (m & 63)) - 1;
        std::fill(R.roundBits.begin(), R.roundBits.end(), 0);
        std::fill(R.nextBits.begin(), R.nextBits.end(), 0);
        R.candFire.clear();
        R.candMem.clear();
        R.candAddr.clear();
        R.dormantInput = R.dormantSpace = 0;
        R.censusNoInput = R.censusNoSpace = R.censusBank = 0;
    }
    {
        size_t m = prog.nocTopo.size();
        std::fill(liveNocBits.begin(), liveNocBits.end(),
                  ~uint64_t{0});
        if (!liveNocBits.empty() && (m & 63) != 0)
            liveNocBits.back() = (uint64_t{1} << (m & 63)) - 1;
    }
    std::fill(nocSweepBits.begin(), nocSweepBits.end(), 0);
    std::fill(nocNextBits.begin(), nocNextBits.end(), 0);
    std::fill(drainBits.begin(), drainBits.end(), 0);
    std::fill(chHead.begin(), chHead.end(), 0);
    std::fill(chCount.begin(), chCount.end(), 0);
    std::fill(bankClaimedAt.begin(), bankClaimedAt.end(), -1);
    pendHead = 0;
    pendCnt = 0;
    fireList.clear();

    tokensInFlight = 0;
    triggersPending = prog.triggersTotal;
    streamsRunning = 0;
    nextThreadTag = 0;
    cycle = 0;
    bornStamp = 0;
    lastSyncPlane = -1;
    activeFlag = false;
    failure.clear();

    stats = SimStats{};
    stats.nodeFires.assign(static_cast<size_t>(n), 0);
    stats.portReads.resize(static_cast<size_t>(n));
    for (NodeId id = 0; id < n; id++) {
        stats.portReads[static_cast<size_t>(id)].assign(
            static_cast<size_t>(insBase[static_cast<size_t>(id) + 1] -
                                insBase[static_cast<size_t>(id)]),
            0);
    }
    portReadsFlat.assign(
        static_cast<size_t>(insBase[static_cast<size_t>(n)]), 0);
}

/** Scatter the flat per-port read counters (kept hot as one slab,
 *  indexed by insBase) into the jagged SimStats layout. */
void
ParallelEngine::flushPortReads()
{
    for (NodeId id = 0; id < n; id++) {
        const size_t i = static_cast<size_t>(id);
        auto &row = stats.portReads[i];
        const int base = insBase[i];
        for (size_t in = 0; in < row.size(); in++)
            row[in] = portReadsFlat[static_cast<size_t>(base) + in];
    }
}

// ---------------------------------------------------------------------
// Hot helpers
// ---------------------------------------------------------------------

inline bool
ParallelEngine::avail(int ip) const
{
    return insAvailFrom[static_cast<size_t>(ip)] <= cycle;
}

template <bool Src>
inline int
ParallelEngine::outCap(size_t i) const
{
    if constexpr (Src)
        return outCapA[i];
    return depth;
}

template <bool Src>
inline ParallelEngine::Tok
ParallelEngine::peekIn(NodeId id, int in) const
{
    int ip = insBase[static_cast<size_t>(id)] + in;
    if (portMode[static_cast<size_t>(ip)] == PortImm)
        return Tok{portImmVal[static_cast<size_t>(ip)], NoTag};
    if constexpr (Src)
        return ringPeek(ip);
    size_t slot = static_cast<size_t>(ip) *
                      static_cast<size_t>(depth) +
                  static_cast<size_t>(
                      insHeadA[static_cast<size_t>(ip)]);
    return Tok{insVal[slot], insTag[slot]};
}

inline bool
ParallelEngine::pushIn(int ip, Word value, int32_t tag, int64_t born)
{
    const size_t pi = static_cast<size_t>(ip);
    int c = insCount[pi];
    int pos = insHeadA[pi] + c;
    if (pos >= depth)
        pos -= depth;
    size_t slot = pi * static_cast<size_t>(depth) +
                  static_cast<size_t>(pos);
    insVal[slot] = value;
    insTag[slot] = tag;
    insBorn[slot] = born;
    insCount[pi] = c + 1;
    if (c == 0) {
        // New head: a PE samples it the cycle after its born stamp;
        // router CF consumes it immediately.
        insAvailFrom[pi] = portNocOwner[pi] ? 0 : born + 1;
        return true;
    }
    return false;
}

template <bool Src>
ParallelEngine::Tok
ParallelEngine::consumeIn(NodeId id, int in)
{
    int ip = insBase[static_cast<size_t>(id)] + in;
    const size_t pi = static_cast<size_t>(ip);
    if (portMode[pi] == PortImm)
        return Tok{portImmVal[pi], NoTag};
    if constexpr (Src)
        return ringTake(ip);
    int h = insHeadA[pi];
    size_t slot =
        pi * static_cast<size_t>(depth) + static_cast<size_t>(h);
    Tok t{insVal[slot], insTag[slot]};
    h++;
    if (h >= depth)
        h = 0;
    insHeadA[pi] = h;
    int c = --insCount[pi];
    if (c == 0) {
        insAvailFrom[pi] = kAvailNever;
    } else if (portNocOwner[pi]) {
        insAvailFrom[pi] = 0;
    } else {
        insAvailFrom[pi] =
            insBorn[pi * static_cast<size_t>(depth) +
                    static_cast<size_t>(h)] +
            1;
    }
    insTokens[static_cast<size_t>(id)]--;
    tokensInFlight--;
    stats.bufferReads++;
    // The producer port delivering into this fifo has space now.
    wakeSpace(portProd[pi]);
    portReadsFlat[pi]++;
    activeFlag = true;
    return t;
}

inline ParallelEngine::Tok
ParallelEngine::ringPeek(int ip) const
{
    const size_t pi = static_cast<size_t>(ip);
    const size_t op = static_cast<size_t>(srcPortA[pi]);
    const int cap = outCapA[static_cast<size_t>(portProd[pi])];
    int pos = outHeadA[op] +
              static_cast<int>(cursorA[pi] - outRetired[op]);
    if (pos >= cap)
        pos -= cap;
    size_t slot = op * static_cast<size_t>(outStride) +
                  static_cast<size_t>(pos);
    // Tokens crossing out of a threaded region shed their tag.
    return Tok{outVal[slot], ipShedA[pi] ? NoTag : outTag[slot]};
}

inline void
ParallelEngine::refreshEndpoint(int ip)
{
    const size_t pi = static_cast<size_t>(ip);
    const size_t op = static_cast<size_t>(srcPortA[pi]);
    const int64_t offset = cursorA[pi] - outRetired[op];
    if (portNocOwner[pi]) {
        insAvailFrom[pi] = offset < outCount[op] ? 0 : kAvailNever;
    } else if (offset == 0 && outCount[op] > 0) {
        insAvailFrom[pi] =
            outBorn[op * static_cast<size_t>(outStride) +
                    static_cast<size_t>(outHeadA[op])] +
            1;
    } else {
        insAvailFrom[pi] = kAvailNever;
    }
}

void
ParallelEngine::ringPush(NodeId id, int port, Word value, int32_t tag)
{
    const int op = outsBase[static_cast<size_t>(id)] + port;
    const size_t oi = static_cast<size_t>(op);
    const int cap = outCapA[static_cast<size_t>(id)];
    ps_assert(outCount[oi] < cap, "emit into full output buffer");
    int pos = outHeadA[oi] + outCount[oi];
    if (pos >= cap)
        pos -= cap;
    size_t slot = oi * static_cast<size_t>(outStride) +
                  static_cast<size_t>(pos);
    outVal[slot] = value;
    outTag[slot] = tag;
    outBorn[slot] = bornStamp;
    const bool newHead = outCount[oi]++ == 0;
    tokensInFlight++;
    stats.bufferWrites++;
    activeFlag = true;
    // A push behind the head changes nothing a registered PE sees;
    // router CF snoops the window and always re-evaluates.
    for (int e = prog.consBase[oi]; e < prog.consBase[oi + 1]; e++) {
        NodeId c = edgeNode[static_cast<size_t>(e)];
        if (newHead || nocA[static_cast<size_t>(c)]) {
            refreshEndpoint(edgeIp[static_cast<size_t>(e)]);
            wakeDeliver(c);
        }
    }
}

ParallelEngine::Tok
ParallelEngine::ringTake(int ip)
{
    const size_t pi = static_cast<size_t>(ip);
    Tok t = ringPeek(ip);
    cursorA[pi]++;
    const size_t op = static_cast<size_t>(srcPortA[pi]);
    const int e0 = prog.consBase[op], e1 = prog.consBase[op + 1];
    int64_t minTaken = cursorA[pi];
    for (int e = e0; e < e1; e++) {
        minTaken = std::min(
            minTaken,
            cursorA[static_cast<size_t>(edgeIp[static_cast<size_t>(e)])]);
    }
    stats.nocTraversals++;
    stats.bufferReads++;
    portReadsFlat[pi]++;
    activeFlag = true;
    // One take raises the slowest cursor by at most one entry.
    if (minTaken == outRetired[op]) {
        refreshEndpoint(ip);
        return t;
    }
    const NodeId prod = portProd[pi];
    int h = outHeadA[op] + 1;
    outHeadA[op] = h >= outCapA[static_cast<size_t>(prod)] ? 0 : h;
    outCount[op]--;
    outRetired[op]++;
    tokensInFlight--;
    // The producer regained ring space, and the retired head exposes
    // the next entry to every endpoint. Either can change a SyncPlane
    // decision mid-cycle, so gate groups among them re-decide.
    touchGroup(prod);
    wakeSpace(prod);
    for (int e = e0; e < e1; e++) {
        NodeId c = edgeNode[static_cast<size_t>(e)];
        refreshEndpoint(edgeIp[static_cast<size_t>(e)]);
        touchGroup(c);
        wake(c);
    }
    return t;
}

inline bool
ParallelEngine::consumersAccept(NodeId id, int port) const
{
    int p = prog.portBase[static_cast<size_t>(id)] + port;
    int e1 = prog.consBase[static_cast<size_t>(p) + 1];
    for (int e = prog.consBase[static_cast<size_t>(p)]; e < e1;
         e++) {
        int ch = edgeChan[static_cast<size_t>(e)];
        if (ch >= 0) {
            // Channel edge: the producer backpressures on the
            // inter-tile channel, not the far-side buffer.
            if (chCount[static_cast<size_t>(ch)] >=
                chCapA[static_cast<size_t>(ch)])
                return false;
            continue;
        }
        if (insCount[static_cast<size_t>(
                edgeIp[static_cast<size_t>(e)])] >= depth)
            return false;
    }
    return true;
}

template <bool Src>
inline bool
ParallelEngine::outSpace(NodeId id, int port, int need) const
{
    int p = prog.portBase[static_cast<size_t>(id)] + port;
    if (prog.consBase[static_cast<size_t>(p) + 1] ==
        prog.consBase[static_cast<size_t>(p)])
        return true; // nothing to emit
    if (hasOutBufA[static_cast<size_t>(id)]) {
        int op = outsBase[static_cast<size_t>(id)] + port;
        int reserved =
            port == 0 ? reservedOutA[static_cast<size_t>(id)] : 0;
        return outCap<Src>(static_cast<size_t>(id)) -
                   outCount[static_cast<size_t>(op)] - reserved >=
               need;
    }
    // No output buffer: multicast delivery requires space at every
    // consumer.
    return consumersAccept(id, port);
}

inline void
ParallelEngine::deliver(NodeId from, int port, Word value,
                        int32_t tag)
{
    int p = prog.portBase[static_cast<size_t>(from)] + port;
    int e1 = prog.consBase[static_cast<size_t>(p) + 1];
    for (int e = prog.consBase[static_cast<size_t>(p)]; e < e1;
         e++) {
        const size_t ei = static_cast<size_t>(e);
        int32_t t = edgeShed[ei] ? NoTag : tag;
        int ch = edgeChan[ei];
        if (ch >= 0) {
            // Token enters the inter-tile channel and matures
            // `latency` cycles later; the consumer is not woken yet.
            const size_t ci = static_cast<size_t>(ch);
            ps_assert(chCount[ci] < chCapA[ci],
                      "delivery into full channel (node %d)",
                      edgeNode[ei]);
            int pos = chHead[ci] + chCount[ci];
            if (pos >= chCapA[ci])
                pos -= chCapA[ci];
            size_t slot = static_cast<size_t>(chanBase[ci] + pos);
            chVal[slot] = value;
            chTag[slot] = t;
            chReady[slot] = cycle + chLatA[ci];
            chCount[ci]++;
            tokensInFlight++;
            stats.bufferWrites++;
            stats.nocTraversals++;
            stats.interTileTokens++;
            continue;
        }
        int ip = edgeIp[ei];
        ps_assert(insCount[static_cast<size_t>(ip)] < depth,
                  "delivery into full buffer (node %d)",
                  edgeNode[ei]);
        bool head = pushIn(ip, value, t, bornStamp);
        insTokens[static_cast<size_t>(edgeNode[ei])]++;
        tokensInFlight++;
        stats.bufferWrites++;
        stats.nocTraversals++;
        // A non-head push leaves the consumer's avail state (and
        // hence every verdict in the fabric) untouched until a
        // consume moves the head, so a PE consumer needs no wake:
        // retained-woken and dormant nodes bill the same stall
        // counters cycle for cycle. NoC latches always wake — the
        // settle-sweep prune keys off wokenB.
        if (head || nocA[static_cast<size_t>(edgeNode[ei])])
            wakeDeliver(edgeNode[ei]);
    }
    activeFlag = true;
}

template <bool Src>
void
ParallelEngine::emit(NodeId id, int port, Word value, int32_t tag)
{
    int p = prog.portBase[static_cast<size_t>(id)] + port;
    if (prog.consBase[static_cast<size_t>(p) + 1] ==
        prog.consBase[static_cast<size_t>(p)])
        return;
    if constexpr (Src) {
        ringPush(id, port, value, tag);
        return;
    }
    if (nocA[static_cast<size_t>(id)] ||
        !hasOutBufA[static_cast<size_t>(id)]) {
        deliver(id, port, value, tag);
        return;
    }
    // Output-buffered PE: bypass straight to consumers when the
    // buffer is empty and downstream has room (Sec. 4.7).
    bool canBypass = !isMemA[static_cast<size_t>(id)] || memBypass;
    int op = outsBase[static_cast<size_t>(id)] + port;
    const size_t oi = static_cast<size_t>(op);
    if (canBypass && outCount[oi] == 0 && consumersAccept(id, port)) {
        deliver(id, port, value, tag);
        return;
    }
    ps_assert(outCount[oi] < depth, "emit into full output buffer");
    int pos = outHeadA[oi] + outCount[oi];
    if (pos >= depth)
        pos -= depth;
    size_t slot = oi * static_cast<size_t>(outStride) +
                  static_cast<size_t>(pos);
    outVal[slot] = value;
    outTag[slot] = tag;
    outCount[oi]++;
    tokensInFlight++;
    stats.bufferWrites++;
    activeFlag = true;
    setBit(drainBits, id);
}

int32_t
ParallelEngine::combine2(NodeId id, int32_t a, int32_t b)
{
    if (a == NoTag)
        return b;
    if (b == NoTag)
        return a;
    if (a != b && checkThreadOrder && failure.empty()) {
        const Node &node = prog.graph().at(id);
        failure = csprintf(
            "thread-order violation at node %d (%s %s): tokens of "
            "threads %d and %d met (cycle %lld)",
            id, nodeKindName(node.kind), node.name.c_str(), a, b,
            static_cast<long long>(cycle));
    }
    return a;
}

int32_t
ParallelEngine::combine3(NodeId id, int32_t a, int32_t b, int32_t c)
{
    return combine2(id, combine2(id, a, b), c);
}

inline void
ParallelEngine::touchGroup(NodeId id)
{
    int gl = prog.gateLoop[static_cast<size_t>(id)];
    if (gl >= 0)
        groupTouched[static_cast<size_t>(gl)] = 1;
}

void
ParallelEngine::wakeNoc(size_t i)
{
    wokenB[i] = 1;
    int t = prog.topoIndex[i];
    setBit(liveNocBits, t);
    // A router op later in topological order than the one firing is
    // still ahead in the oracle's sweep; an earlier one waits for the
    // next sweep.
    if (inNocEval)
        setBit(t > nocCursor ? nocSweepBits : nocNextBits, t);
}

void
ParallelEngine::wake(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    if (nocA[i]) {
        wakeNoc(i);
        return;
    }
    wokenB[i] = 1;
    freshB[i] = 0; // structural change: the cached verdict is stale
    predB[i] = 0;
    int gl = prog.gateLoop[i];
    if (gl >= 0)
        groupDirtyUntilA[static_cast<size_t>(gl)] = cycle + 1;
    Region &R = regs[static_cast<size_t>(regionOfA[i])];
    if (dormantClassA[i] != DormNone) {
        if (dormantClassA[i] == DormInput)
            R.dormantInput--;
        else
            R.dormantSpace--;
        dormantClassA[i] = DormNone;
    }
    int li = localIdx[i];
    setBit(R.liveBits, li);
    if (inPeFixpoint)
        setBit(R.nextBits, li);
}

void
ParallelEngine::wakeDeliver(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    if (nocA[i]) {
        // NoC latches consume same-cycle: full wake semantics.
        wakeNoc(i);
        return;
    }
    // The landed token changes the next-cycle verdict even though
    // the current one is untouched: drop any census prediction
    // before the retained-already early exit.
    predB[i] = 0;
    if (wokenB[i])
        return; // already retained + group marked this cycle
    wokenB[i] = 1;
    // No freshness invalidation and no same-cycle re-scan: the delivered
    // token is born this cycle, so every verdict component the node
    // reads through avail() is unchanged until next cycle. The
    // cached verdict stays exactly what the oracle's re-evaluation
    // would return. The group-dirty window still extends so the
    // SyncPlane re-decides next cycle once the token has aged.
    int gl = prog.gateLoop[i];
    if (gl >= 0)
        groupDirtyUntilA[static_cast<size_t>(gl)] = cycle + 1;
    Region &R = regs[static_cast<size_t>(regionOfA[i])];
    if (dormantClassA[i] != DormNone) {
        if (dormantClassA[i] == DormInput)
            R.dormantInput--;
        else
            R.dormantSpace--;
        dormantClassA[i] = DormNone;
    }
    setBit(R.liveBits, localIdx[i]);
}

void
ParallelEngine::wakeSpace(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    // Fresh Input/Idle verdicts are immune to freed space (canFire
    // ranks Input before Space): retain the node without the
    // same-cycle re-scan.
    if (!nocA[i] && freshB[i]) {
        uint8_t v = lastVerdictA[i];
        if (v == VInput || v == VIdle) {
            wakeDeliver(id);
            return;
        }
    }
    wake(id);
}

// ---------------------------------------------------------------------
// canFire / commitFire (oracle transliteration over SoA state)
// ---------------------------------------------------------------------

template <bool Src>
uint8_t
ParallelEngine::scanCanFire(NodeId id, bool &memReady, Word &addr,
                            int64_t horizon)
{
    const size_t i = static_cast<size_t>(id);
    const int base = insBase[i];
    auto need = [&](int in) {
        return insAvailFrom[static_cast<size_t>(base + in)] <=
               horizon;
    };

    switch (static_cast<NodeKind>(kindA[i])) {
      case NodeKind::Trigger: {
        if (trigFiredA[i])
            return VIdle;
        if (!outSpace<Src>(id, 0, 1))
            return VSpace;
        return VNo;
      }
      case NodeKind::Const: {
        if (!need(0))
            return VInput;
        return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
      }
      case NodeKind::Arith: {
        int want = wantA[i];
        for (int in = 0; in < want; in++) {
            if (!need(in))
                return VInput;
        }
        return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
      }
      case NodeKind::Steer: {
        if (!need(pidx::SteerDecider) || !need(pidx::SteerValue))
            return VInput;
        bool forward =
            (peekIn<Src>(id, pidx::SteerDecider).value != 0) ==
            (steerTrueA[i] != 0);
        if (forward && !outSpace<Src>(id, 0, 1))
            return VSpace;
        return VNo;
      }
      case NodeKind::Carry: {
        if (fsmA[i] == FsmInit) {
            if (!need(pidx::CarryInit))
                return VInput;
            return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
        }
        if (fsmA[i] == FsmWaitVal) {
            if (!need(pidx::CarryCont))
                return VInput;
            return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
        }
        // Run: the decider is consumed eagerly; a true decider with
        // the backedge value present forwards it in one firing.
        if (!need(pidx::CarryDecider))
            return VInput;
        if (peekIn<Src>(id, pidx::CarryDecider).value != 0 &&
            need(pidx::CarryCont)) {
            return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
        }
        return VNo;
      }
      case NodeKind::Invariant: {
        if (fsmA[i] == FsmInit) {
            if (!need(pidx::InvValue))
                return VInput;
            return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
        }
        if (!need(pidx::InvDecider))
            return VInput;
        if (peekIn<Src>(id, pidx::InvDecider).value != 0) {
            return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
        }
        return VNo;
      }
      case NodeKind::Merge: {
        if (fsmA[i] == FsmWaitVal) {
            if (!need(pendingSideA[i]))
                return VInput;
            return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
        }
        if (!need(pidx::MergeDecider))
            return VInput;
        int side = peekIn<Src>(id, pidx::MergeDecider).value != 0
                       ? pidx::MergeTrue
                       : pidx::MergeFalse;
        if (portMode[static_cast<size_t>(base + side)] ==
                PortWired &&
            !need(side)) {
            // Consume the decider now, wait for the value.
            return VNo;
        }
        return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
      }
      case NodeKind::Dispatch: {
        if (greedyDispatch) {
            bool c = need(pidx::DispatchCont);
            bool s = need(pidx::DispatchSpawn);
            if (!c && !s)
                return VInput;
            return outSpace<Src>(id, 0, 1) ? VNo : VSpace;
        }
        return groupChoiceA[static_cast<size_t>(loopIdA[i])] ==
                       GcNone
                   ? VInput
                   : VNo;
      }
      case NodeKind::Load: {
        if (!need(pidx::LoadAddr))
            return VInput;
        int numIns = insBase[i + 1] - base;
        if (numIns > pidx::LoadOrder &&
            portMode[static_cast<size_t>(base + pidx::LoadOrder)] ==
                PortWired &&
            !need(pidx::LoadOrder)) {
            return VInput;
        }
        // Need a reservation slot for the returning data (unless
        // nothing consumes it).
        int p = prog.portBase[i] + pidx::LoadDataOut;
        bool dataConsumed =
            prog.consBase[static_cast<size_t>(p) + 1] >
            prog.consBase[static_cast<size_t>(p)];
        if (hasOutBufA[i] && dataConsumed) {
            int op = outsBase[i] + pidx::LoadDataOut;
            if (outCap<Src>(i) - outCount[static_cast<size_t>(op)] -
                    reservedOutA[i] <
                1)
                return VSpace;
        }
        int pd = prog.portBase[i] + pidx::LoadDoneOut;
        if (prog.consBase[static_cast<size_t>(pd) + 1] >
                prog.consBase[static_cast<size_t>(pd)] &&
            !outSpace<Src>(id, pidx::LoadDoneOut, 1)) {
            return VSpace;
        }
        memReady = true;
        addr = peekIn<Src>(id, pidx::LoadAddr).value + immA[i];
        return VNo; // bank arbitration happens coordinated
      }
      case NodeKind::Store: {
        if (!need(pidx::StoreAddr) || !need(pidx::StoreData))
            return VInput;
        int numIns = insBase[i + 1] - base;
        if (numIns > pidx::StoreOrder &&
            portMode[static_cast<size_t>(base + pidx::StoreOrder)] ==
                PortWired &&
            !need(pidx::StoreOrder)) {
            return VInput;
        }
        int pd = prog.portBase[i] + pidx::StoreDoneOut;
        if (prog.consBase[static_cast<size_t>(pd) + 1] >
                prog.consBase[static_cast<size_t>(pd)] &&
            !outSpace<Src>(id, pidx::StoreDoneOut, 1)) {
            return VSpace;
        }
        memReady = true;
        addr = peekIn<Src>(id, pidx::StoreAddr).value + immA[i];
        return VNo;
      }
      case NodeKind::Stream: {
        Word cur, end;
        if (fsmA[i] == FsmInit) {
            if (!need(pidx::StreamBegin) || !need(pidx::StreamEnd))
                return VInput;
            int numIns = insBase[i + 1] - base;
            if (numIns > pidx::StreamTrigger &&
                portMode[static_cast<size_t>(
                    base + pidx::StreamTrigger)] == PortWired &&
                !need(pidx::StreamTrigger)) {
                return VInput;
            }
            cur = peekIn<Src>(id, pidx::StreamBegin).value;
            end = peekIn<Src>(id, pidx::StreamEnd).value;
        } else {
            cur = streamCurA[i];
            end = streamEndA[i];
        }
        if (cur < end && !outSpace<Src>(id, pidx::StreamIdxOut, 1))
            return VSpace;
        if (!outSpace<Src>(id, pidx::StreamCondOut, 1))
            return VSpace;
        return VNo;
      }
    }
    panic("unknown node kind");
}

template <bool Src>
uint8_t
ParallelEngine::canFireFull(NodeId id)
{
    bool memReady = false;
    Word addr = 0;
    uint8_t why = scanCanFire<Src>(id, memReady, addr, cycle);
    if (!memReady)
        return why;
    return bankClaimedAt[static_cast<size_t>(
               static_cast<uint32_t>(addr) %
               static_cast<uint32_t>(memBanks))] == cycle
               ? VBank
               : VNo;
}

template <bool Src>
__attribute__((flatten)) void
ParallelEngine::commitFire(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    // A dormant node's blocked verdict is frozen until a wake event
    // clears it, so it can never have been selected to fire.
    ps_assert(dormantClassA[i] == DormNone,
              "dormant node %d fired without a wake", id);

    if (nocA[i]) {
        stats.nocCfFires++;
    } else if (static_cast<NodeKind>(kindA[i]) !=
               NodeKind::Trigger) {
        stats.classFires[static_cast<size_t>(peClassA[i])]++;
    }
    stats.nodeFires[i]++;
    activeFlag = true;

    switch (static_cast<NodeKind>(kindA[i])) {
      case NodeKind::Trigger: {
        trigFiredA[i] = 1;
        triggersPending--;
        emit<Src>(id, 0, immA[i], NoTag);
        break;
      }
      case NodeKind::Const: {
        Tok t = consumeIn<Src>(id, 0);
        emit<Src>(id, 0, immA[i], t.tag);
        break;
      }
      case NodeKind::Arith: {
        int want = wantA[i];
        Tok a = consumeIn<Src>(id, 0);
        Tok b = consumeIn<Src>(id, 1);
        Tok c = want == 3 ? consumeIn<Src>(id, 2) : Tok{};
        int32_t tag = combine3(id, a.tag, b.tag, c.tag);
        emit<Src>(id, 0,
             sir::evalOpcode(opcA[i], a.value, b.value, c.value),
             tag);
        break;
      }
      case NodeKind::Steer: {
        Tok d = consumeIn<Src>(id, pidx::SteerDecider);
        Tok v = consumeIn<Src>(id, pidx::SteerValue);
        int32_t tag = combine2(id, d.tag, v.tag);
        if ((d.value != 0) == (steerTrueA[i] != 0)) {
            emit<Src>(id, 0, v.value, tag);
        } else {
            stats.steerDrops++;
        }
        break;
      }
      case NodeKind::Carry: {
        if (fsmA[i] == FsmInit) {
            Tok a = consumeIn<Src>(id, pidx::CarryInit);
            fsmA[i] = FsmRun;
            emit<Src>(id, 0, a.value, a.tag);
        } else if (fsmA[i] == FsmWaitVal) {
            Tok b = consumeIn<Src>(id, pidx::CarryCont);
            int32_t tag = combine2(id, latchTagA[i], b.tag);
            fsmA[i] = FsmRun;
            emit<Src>(id, 0, b.value, tag);
        } else {
            Tok d = consumeIn<Src>(id, pidx::CarryDecider);
            if (d.value == 0) {
                fsmA[i] = FsmInit;
            } else if (avail(insBase[i] + pidx::CarryCont)) {
                Tok b = consumeIn<Src>(id, pidx::CarryCont);
                int32_t tag = combine2(id, d.tag, b.tag);
                emit<Src>(id, 0, b.value, tag);
            } else {
                latchValA[i] = d.value;
                latchTagA[i] = d.tag;
                fsmA[i] = FsmWaitVal;
            }
        }
        break;
      }
      case NodeKind::Invariant: {
        if (fsmA[i] == FsmInit) {
            Tok a = consumeIn<Src>(id, pidx::InvValue);
            latchValA[i] = a.value;
            latchTagA[i] = a.tag;
            fsmA[i] = FsmRun;
            emit<Src>(id, 0, a.value, a.tag);
        } else {
            Tok d = consumeIn<Src>(id, pidx::InvDecider);
            if (d.value != 0) {
                int32_t tag = combine2(id, d.tag, latchTagA[i]);
                emit<Src>(id, 0, latchValA[i], tag);
            } else {
                fsmA[i] = FsmInit;
                latchValA[i] = 0;
                latchTagA[i] = NoTag;
            }
        }
        break;
      }
      case NodeKind::Merge: {
        if (fsmA[i] == FsmWaitVal) {
            Tok v = consumeIn<Src>(id, pendingSideA[i]);
            int32_t tag = combine2(id, latchTagA[i], v.tag);
            fsmA[i] = FsmRun;
            emit<Src>(id, 0, v.value, tag);
            break;
        }
        Tok d = consumeIn<Src>(id, pidx::MergeDecider);
        int side = d.value != 0 ? pidx::MergeTrue : pidx::MergeFalse;
        if (portMode[static_cast<size_t>(insBase[i] + side)] ==
                PortWired &&
            !avail(insBase[i] + side)) {
            latchValA[i] = d.value;
            latchTagA[i] = d.tag;
            pendingSideA[i] = static_cast<uint8_t>(side);
            fsmA[i] = FsmWaitVal;
            break;
        }
        Tok v = consumeIn<Src>(id, side);
        int32_t tag = combine2(id, d.tag, v.tag);
        emit<Src>(id, 0, v.value, tag);
        break;
      }
      case NodeKind::Dispatch: {
        // Firing consumes the gate's tokens and fills its output:
        // the group must be re-evaluated until the dust settles.
        groupDirtyUntilA[static_cast<size_t>(loopIdA[i])] =
            cycle + 1;
        groupTouched[static_cast<size_t>(loopIdA[i])] = 1;
        uint8_t choice =
            groupChoiceA[static_cast<size_t>(loopIdA[i])];
        if (greedyDispatch) {
            choice = avail(insBase[i] + pidx::DispatchCont)
                         ? GcCont
                         : GcSpawn;
        }
        if (choice == GcCont) {
            Tok t = consumeIn<Src>(id, pidx::DispatchCont);
            stats.dispatchConts++;
            emit<Src>(id, 0, t.value, t.tag);
        } else {
            Tok t = consumeIn<Src>(id, pidx::DispatchSpawn);
            // All gates in the group fire this cycle and must agree
            // on the new thread's identity; nextThreadTag advances
            // once per group per cycle (see runFixpoint()).
            stats.dispatchSpawns++;
            emit<Src>(id, 0, t.value, nextThreadTag);
        }
        break;
      }
      case NodeKind::Load: {
        Tok a = consumeIn<Src>(id, pidx::LoadAddr);
        Word addr = a.value + immA[i]; // configured base offset
        int32_t tag = a.tag;
        if (insBase[i + 1] - insBase[i] > pidx::LoadOrder &&
            portMode[static_cast<size_t>(insBase[i] +
                                         pidx::LoadOrder)] ==
                PortWired) {
            Tok ord = consumeIn<Src>(id, pidx::LoadOrder);
            tag = combine2(id, tag, ord.tag);
        }
        // The bank port was claimed at selection; the value is read
        // at issue (banked SRAM, fixed latency).
        ps_assert(addr >= 0 &&
                      static_cast<size_t>(addr) < mem->size(),
                  "memory address %d out of bounds (%zu words)",
                  addr, mem->size());
        if (pendCnt == static_cast<int32_t>(pendNode.size())) {
            // Grow the pending-load ring, preserving order.
            size_t cap = pendNode.size();
            std::vector<int32_t> nn(cap * 2);
            std::vector<Word> nv(cap * 2);
            std::vector<int32_t> nt(cap * 2);
            std::vector<int64_t> nr(cap * 2);
            for (size_t k = 0; k < cap; k++) {
                size_t src = (static_cast<size_t>(pendHead) + k) %
                             cap;
                nn[k] = pendNode[src];
                nv[k] = pendVal[src];
                nt[k] = pendTag[src];
                nr[k] = pendReady[src];
            }
            pendNode.swap(nn);
            pendVal.swap(nv);
            pendTag.swap(nt);
            pendReady.swap(nr);
            pendHead = 0;
        }
        {
            size_t slot = (static_cast<size_t>(pendHead) +
                           static_cast<size_t>(pendCnt)) %
                          pendNode.size();
            pendNode[slot] = id;
            pendVal[slot] = (*mem)[static_cast<size_t>(addr)];
            pendTag[slot] = tag;
            pendReady[slot] = cycle + memLatency;
            pendCnt++;
        }
        int p = prog.portBase[i] + pidx::LoadDataOut;
        if (prog.consBase[static_cast<size_t>(p) + 1] >
            prog.consBase[static_cast<size_t>(p)])
            reservedOutA[i]++;
        stats.memLoads++;
        emit<Src>(id, pidx::LoadDoneOut, 1, tag);
        break;
      }
      case NodeKind::Store: {
        Tok a = consumeIn<Src>(id, pidx::StoreAddr);
        Word addr = a.value + immA[i]; // configured base offset
        Tok data = consumeIn<Src>(id, pidx::StoreData);
        int32_t tag = combine2(id, a.tag, data.tag);
        if (insBase[i + 1] - insBase[i] > pidx::StoreOrder &&
            portMode[static_cast<size_t>(insBase[i] +
                                         pidx::StoreOrder)] ==
                PortWired) {
            Tok ord = consumeIn<Src>(id, pidx::StoreOrder);
            tag = combine2(id, tag, ord.tag);
        }
        ps_assert(addr >= 0 &&
                      static_cast<size_t>(addr) < mem->size(),
                  "memory address %d out of bounds (%zu words)",
                  addr, mem->size());
        (*mem)[static_cast<size_t>(addr)] = data.value;
        stats.memStores++;
        emit<Src>(id, pidx::StoreDoneOut, 1, tag);
        break;
      }
      case NodeKind::Stream: {
        if (fsmA[i] == FsmInit) {
            Tok begin = consumeIn<Src>(id, pidx::StreamBegin);
            Tok end = consumeIn<Src>(id, pidx::StreamEnd);
            int32_t tag = combine2(id, begin.tag, end.tag);
            if (insBase[i + 1] - insBase[i] > pidx::StreamTrigger &&
                portMode[static_cast<size_t>(
                    insBase[i] + pidx::StreamTrigger)] ==
                    PortWired) {
                Tok trig = consumeIn<Src>(id, pidx::StreamTrigger);
                tag = combine2(id, tag, trig.tag);
            }
            streamCurA[i] = begin.value;
            streamEndA[i] = end.value;
            latchTagA[i] = tag;
            fsmA[i] = FsmRun;
            streamsRunning++;
        }
        int32_t tag = latchTagA[i];
        if (streamCurA[i] < streamEndA[i]) {
            emit<Src>(id, pidx::StreamIdxOut, streamCurA[i], tag);
            emit<Src>(id, pidx::StreamCondOut, 1, tag);
            streamCurA[i] += streamStepA[i];
        } else {
            emit<Src>(id, pidx::StreamCondOut, 0, tag);
            fsmA[i] = FsmInit;
            streamsRunning--;
        }
        break;
      }
    }
}

// ---------------------------------------------------------------------
// Cycle phases
// ---------------------------------------------------------------------

void
ParallelEngine::drainPhase()
{
    bornStamp = cycle - 1; // these tokens were ready last cycle
    for (size_t w = 0; w < drainBits.size(); w++) {
        uint64_t bits = drainBits[w];
        if (!bits)
            continue;
        uint64_t keep = bits;
        while (bits) {
            int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            NodeId id = static_cast<NodeId>(w * 64 +
                                            static_cast<size_t>(b));
            const size_t i = static_cast<size_t>(id);
            bool nonempty = false;
            int nOuts = outsBase[i + 1] - outsBase[i];
            for (int port = 0; port < nOuts; port++) {
                const size_t oi =
                    static_cast<size_t>(outsBase[i] + port);
                if (outCount[oi] > 0 &&
                    consumersAccept(id, port)) {
                    size_t slot =
                        oi * static_cast<size_t>(outStride) +
                        static_cast<size_t>(outHeadA[oi]);
                    Word v = outVal[slot];
                    int32_t t = outTag[slot];
                    int h = outHeadA[oi] + 1;
                    outHeadA[oi] = h >= depth ? 0 : h;
                    outCount[oi]--;
                    tokensInFlight--;
                    stats.bufferReads++;
                    wake(id); // its output buffer has space again
                    deliver(id, port, v, t);
                }
                nonempty |= outCount[oi] > 0;
            }
            if (!nonempty)
                keep &= ~(uint64_t{1} << b);
        }
        drainBits[w] = keep;
    }
}

template <bool Src>
void
ParallelEngine::memCompletionsPhase()
{
    bornStamp = cycle - 1; // data crossed the NoC during the wait
    const size_t cap = pendNode.size();
    while (pendCnt > 0 &&
           pendReady[static_cast<size_t>(pendHead)] <= cycle) {
        const size_t slot = static_cast<size_t>(pendHead);
        NodeId id = pendNode[slot];
        Word v = pendVal[slot];
        int32_t t = pendTag[slot];
        pendHead = static_cast<int32_t>(
            (slot + 1) % cap);
        pendCnt--;
        const size_t i = static_cast<size_t>(id);
        int p = prog.portBase[i] + pidx::LoadDataOut;
        // A load kept alive only for its order token has no data
        // consumers; its value is dropped at the PE boundary.
        if (prog.consBase[static_cast<size_t>(p) + 1] ==
            prog.consBase[static_cast<size_t>(p)]) {
            activeFlag = true;
            continue;
        }
        reservedOutA[i]--;
        wake(id); // reservation slot freed
        activeFlag = true;
        if constexpr (Src) {
            ringPush(id, pidx::LoadDataOut, v, t);
            continue;
        }
        const size_t oi =
            static_cast<size_t>(outsBase[i] + pidx::LoadDataOut);
        if (memBypass && outCount[oi] == 0 &&
            consumersAccept(id, pidx::LoadDataOut)) {
            deliver(id, pidx::LoadDataOut, v, t);
        } else {
            ps_assert(outCount[oi] < depth,
                      "load completion overflow");
            int pos = outHeadA[oi] + outCount[oi];
            if (pos >= depth)
                pos -= depth;
            size_t os = oi * static_cast<size_t>(outStride) +
                        static_cast<size_t>(pos);
            outVal[os] = v;
            outTag[os] = t;
            outCount[oi]++;
            tokensInFlight++;
            stats.bufferWrites++;
            setBit(drainBits, id);
        }
    }
}

void
ParallelEngine::channelsPhase()
{
    bornStamp = cycle - 1; // matured tokens aged in the channel
    const int C = static_cast<int>(chCount.size());
    for (int ch = 0; ch < C; ch++) {
        const size_t ci = static_cast<size_t>(ch);
        if (chCount[ci] == 0)
            continue;
        int ip = chDstIp[ci];
        NodeId dst = chDstNode[ci];
        bool freed = false;
        while (chCount[ci] > 0) {
            size_t slot =
                static_cast<size_t>(chanBase[ci] + chHead[ci]);
            if (chReady[slot] > cycle ||
                insCount[static_cast<size_t>(ip)] >= depth)
                break;
            // Still one in-flight token: channel -> fifo.
            pushIn(ip, chVal[slot], chTag[slot], bornStamp);
            insTokens[static_cast<size_t>(dst)]++;
            int h = chHead[ci] + 1;
            chHead[ci] = h >= chCapA[ci] ? 0 : h;
            chCount[ci]--;
            stats.bufferWrites++;
            wake(dst);
            freed = true;
            activeFlag = true;
        }
        if (freed) {
            // Channel space opened up; the producer may fire again.
            wake(chSrcNode[ci]);
        }
        if (chCount[ci] > 0 &&
            chReady[static_cast<size_t>(chanBase[ci] +
                                        chHead[ci])] > cycle) {
            // Tokens still crossing the boundary keep the fabric
            // busy — this is latency, not deadlock.
            activeFlag = true;
        }
    }
}

template <bool Src>
void
ParallelEngine::decideDispatchGroups(bool firstRound)
{
    // Once per sequential round; the SyncPlane bills once per cycle.
    // Loops without dispatch gates have nothing to decide (their
    // choices stay None from reset), so only gateLoops are walked.
    bool anyEval = false;
    for (int l : gateLoops) {
        const size_t li = static_cast<size_t>(l);
        const auto &group = prog.dispatchGroups[li];
        if (!greedyDispatch && cycle > groupDirtyUntilA[li]) {
            // No gate event since the last evaluation: the cached
            // choice and pending flag are what a fresh scan would
            // produce.
            if (groupPendingA[li])
                anyEval = true;
            continue;
        }
        uint8_t touched = groupTouched[li];
        groupTouched[li] = 0;
        if (!firstRound && !touched) {
            // Within a cycle the group's inputs only change when
            // its own gates fire or a source ring they read or fill
            // retires an entry (deliveries don't age into avail
            // until next cycle, and destination output buffers
            // drain only in the serial phase): the stored choice
            // and pending flag are exactly what a re-evaluation
            // would produce.
            if (groupPendingA[li])
                anyEval = true;
            continue;
        }
        groupChoiceA[li] = GcNone;
        if (greedyDispatch) {
            // Fig. 9a ablation: no SyncPlane; each gate fends for
            // itself (decisions made per node in canFire).
            continue;
        }
        // Fig. 10 token-selection over the SyncPlane reduction.
        bool anyPending = false;
        bool contAll = true, contNotFull = true;
        bool spawnAll = true, spawnTwoSlots = true;
        for (NodeId d : group) {
            const size_t di = static_cast<size_t>(d);
            bool cAvail = avail(insBase[di] + pidx::DispatchCont);
            bool sAvail = avail(insBase[di] + pidx::DispatchSpawn);
            anyPending |= cAvail | sAvail;
            contAll &= cAvail;
            spawnAll &= sAvail;
            int free = outCap<Src>(di) -
                       outCount[static_cast<size_t>(outsBase[di])];
            if (free < 1)
                contNotFull = false;
            if (free < 2)
                spawnTwoSlots = false;
        }
        if (anyPending)
            anyEval = true;
        groupPendingA[li] = anyPending ? 1 : 0;
        if (contAll && contNotFull) {
            groupChoiceA[li] = GcCont;
        } else if (spawnAll && spawnTwoSlots) {
            groupChoiceA[li] = GcSpawn;
        }
    }
    if (anyEval && lastSyncPlane != cycle) {
        stats.syncPlaneCycles++;
        lastSyncPlane = cycle;
    }
}

template <bool Src>
__attribute__((flatten)) void
ParallelEngine::scanRegion(int r, bool firstRound)
{
    Region &R = regs[static_cast<size_t>(r)];
    R.candFire.clear();
    R.candMem.clear();
    R.candAddr.clear();
    const auto &seq = regSeq[static_cast<size_t>(r)];
    const bool masked = !R.scanMask.empty();
    // Round 1 walks the live set in place (it must survive for the
    // census) unioned with any force-dispatched gates parked in
    // roundBits; later rounds consume the woken-set bitmap.
    for (size_t w = 0; w < R.roundBits.size(); w++) {
        uint64_t bits = R.roundBits[w];
        if (bits)
            R.roundBits[w] = 0;
        if (firstRound)
            bits |= R.liveBits[w];
        if (masked)
            bits &= R.scanMask[w];
        if (!bits)
            continue;
        while (bits) {
            int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            NodeId id = seq[w * 64 + static_cast<size_t>(b)];
            const size_t i = static_cast<size_t>(id);
            if (firedB[i])
                continue;
            if (predB[i]) {
                // The census precomputed this cycle's verdict (no
                // event touched the node since — wakes clear the
                // flag): consume it instead of re-evaluating.
                predB[i] = 0;
                uint8_t pwhy = lastVerdictA[i];
                freshB[i] = 1;
                if (pwhy == VNo) {
                    firedB[i] = 1;
                    R.candFire.push_back(id);
                }
                continue;
            }
            bool memReady = false;
            Word addr = 0;
            uint8_t why = scanCanFire<Src>(id, memReady, addr, cycle);
            if (memReady) {
                // Verdict (Bank vs No) is stamped in the
                // coordinated arbitration pass.
                R.candMem.push_back(id);
                R.candAddr.push_back(addr);
                continue;
            }
            lastVerdictA[i] = why;
            freshB[i] = 1;
            if (why == VNo) {
                firedB[i] = 1;
                R.candFire.push_back(id);
            }
        }
    }
}

void
ParallelEngine::runShare(int w, Phase phase, bool firstRound)
{
    const int K = plan.count;
    for (int r = w; r < K; r += physThreads) {
        if (phase == Phase::Scan) {
            sourceMode ? scanRegion<true>(r, firstRound)
                       : scanRegion<false>(r, firstRound);
        } else {
            sourceMode ? censusRegion<true>(r) : censusRegion<false>(r);
        }
    }
}

void
ParallelEngine::runPhase(Phase phase, bool firstRound)
{
    if (!crew) {
        runShare(0, phase, firstRound);
        return;
    }
    Crew &c = *crew;
    ctr.barriers++;
    c.phase = phase;
    c.firstRound = firstRound;
    const uint32_t e = c.epoch.load(std::memory_order_relaxed) + 1;
    publish(c.epoch, e);
    if (phase == Phase::Stop)
        return;
    runShare(0, phase, firstRound);

    std::chrono::steady_clock::time_point t0;
    bool waited = false;
    for (int w = 1; w < physThreads; w++) {
        std::atomic<uint32_t> &d = c.done[static_cast<size_t>(w)].epoch;
        if (d.load(std::memory_order_acquire) == e)
            continue;
        if (!waited) {
            waited = true;
            t0 = std::chrono::steady_clock::now();
        }
        awaitChange(d, e - 1);
    }
    if (waited) {
        ctr.barrierWaits++;
        ctr.barrierWaitNs +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
    }
}

void
ParallelEngine::workerMain(int w)
{
    Crew &c = *crew;
    std::atomic<uint32_t> &done = c.done[static_cast<size_t>(w)].epoch;
    for (uint32_t seen = 0;;) {
        seen = awaitChange(c.epoch, seen);
        if (c.phase == Phase::Stop)
            return;
        runShare(w, c.phase, c.firstRound);
        publish(done, seen);
    }
}

template <bool Src>
void
ParallelEngine::runFixpoint()
{
    inPeFixpoint = true;
    const int K = plan.count;
    // Round 1 scans liveBits in place (no copy into roundBits);
    // roundBits carries only force-dispatched gates at that point.
    for (bool firstRound = true;; firstRound = false) {
        decideDispatchGroups<Src>(firstRound);
        // A SyncPlane decision fires every gate of the group, woken
        // or not.
        if (!greedyDispatch) {
            for (int l : gateLoops) {
                if (groupChoiceA[static_cast<size_t>(l)] == GcNone)
                    continue;
                for (NodeId d :
                     prog.dispatchGroups[static_cast<size_t>(l)]) {
                    Region &R = regs[static_cast<size_t>(
                        regionOfA[static_cast<size_t>(d)])];
                    setBit(R.roundBits,
                           localIdx[static_cast<size_t>(d)]);
                }
            }
        }
        // A later round scans only the nodes woken by the previous
        // round's commits (plus forced gates); with none, it would
        // find nothing to fire — end without dispatching it. Share
        // members are arbitrated (and billed) in every round, so
        // with share groups every round runs.
        if (!firstRound && shareMembers.empty()) {
            bool any = false;
            for (int r = 0; r < K && !any; r++) {
                for (uint64_t word :
                     regs[static_cast<size_t>(r)].roundBits) {
                    if (word) {
                        any = true;
                        break;
                    }
                }
            }
            if (!any)
                break;
        }
        ctr.fixpointRounds++;
        runPhase(Phase::Scan, firstRound);

        // Coordinated bank arbitration and share-group residency,
        // ascending node id across regions — the order the oracle's
        // single scan would claim in (other verdicts are independent
        // of claims and residency).
        // regSeq is ascending within every region, so each
        // candidate list arrives sorted: K-way merges replace the
        // per-round sorts.
        fireList.clear();
        mergeIdx.assign(static_cast<size_t>(K), 0);
        if (K == 1) {
            const auto &cf = regs[0].candFire;
            fireList.assign(cf.begin(), cf.end());
        }
        while (K > 1) {
            int best = -1;
            NodeId bid = 0;
            for (int r = 0; r < K; r++) {
                const auto &cf =
                    regs[static_cast<size_t>(r)].candFire;
                size_t k = mergeIdx[static_cast<size_t>(r)];
                if (k < cf.size() && (best < 0 || cf[k] < bid)) {
                    best = r;
                    bid = cf[k];
                }
            }
            if (best < 0)
                break;
            mergeIdx[static_cast<size_t>(best)]++;
            fireList.push_back(bid);
        }
        const size_t peFires = fireList.size();
        mergeIdx.assign(static_cast<size_t>(K), 0);
        size_t nextShared = 0;
        for (;;) {
            int best = -1;
            NodeId bid = 0;
            for (int r = 0; r < K; r++) {
                const auto &cm =
                    regs[static_cast<size_t>(r)].candMem;
                size_t k = mergeIdx[static_cast<size_t>(r)];
                if (k < cm.size() && (best < 0 || cm[k] < bid)) {
                    best = r;
                    bid = cm[k];
                }
            }
            if (nextShared < shareMembers.size() &&
                (best < 0 || shareMembers[nextShared] < bid)) {
                NodeId sid = shareMembers[nextShared++];
                if (selectShared<Src>(sid))
                    fireList.push_back(sid);
                continue;
            }
            if (best < 0)
                break;
            Word addr = regs[static_cast<size_t>(best)]
                            .candAddr[mergeIdx[
                                static_cast<size_t>(best)]];
            mergeIdx[static_cast<size_t>(best)]++;
            const size_t i = static_cast<size_t>(bid);
            size_t bank = static_cast<uint32_t>(addr) %
                          static_cast<uint32_t>(memBanks);
            if (bankClaimedAt[bank] == cycle) {
                lastVerdictA[i] = VBank;
                freshB[i] = 1;
                continue;
            }
            bankClaimedAt[bank] = cycle;
            lastVerdictA[i] = VNo;
            freshB[i] = 1;
            firedB[i] = 1;
            fireList.push_back(bid);
        }
        if (fireList.empty())
            break;
        // Two sorted runs (PE winners, then coordinated winners):
        // merge in place of the old full sort.
        if (peFires > 0 && peFires < fireList.size()) {
            mergeTmp.resize(fireList.size());
            std::merge(fireList.begin(),
                       fireList.begin() +
                           static_cast<std::ptrdiff_t>(peFires),
                       fireList.begin() +
                           static_cast<std::ptrdiff_t>(peFires),
                       fireList.end(), mergeTmp.begin());
            fireList.swap(mergeTmp);
        }

        bool spawned = false;
        for (NodeId id : fireList) {
            if (static_cast<NodeKind>(
                    kindA[static_cast<size_t>(id)]) ==
                    NodeKind::Dispatch &&
                groupChoiceA[static_cast<size_t>(
                    loopIdA[static_cast<size_t>(id)])] == GcSpawn) {
                spawned = true;
            }
            commitFire<Src>(id);
        }
        if (spawned)
            nextThreadTag++;

        for (int r = 0; r < K; r++) {
            Region &R = regs[static_cast<size_t>(r)];
            // Scan consumed roundBits; wakes during the commits
            // filled nextBits for the next round.
            R.roundBits.swap(R.nextBits);
        }
    }
    inPeFixpoint = false;
    // No cleanup needed: the breaking round's scan consumed
    // roundBits to zero, and with no commits in that round nothing
    // wrote nextBits (wakes only touch it while inPeFixpoint).
}

template <bool Src>
bool
ParallelEngine::selectShared(NodeId id)
{
    const size_t i = static_cast<size_t>(id);
    if (firedB[i])
        return false;
    const size_t sg = static_cast<size_t>(shareOfA[i]);
    if (shareUsedA[sg]) {
        stats.shareConflicts++;
        return false;
    }
    // Fairness: the current resident yields when a housemate is also
    // ready to fire this cycle.
    if (shareLastA[sg] == id) {
        for (int other : prog.cfg.shareGroups[sg]) {
            const size_t oi = static_cast<size_t>(other);
            if (other == id || (!nocA[oi] && firedB[oi]))
                continue;
            if (canFireFull<Src>(other) == VNo) {
                stats.shareConflicts++;
                return false;
            }
        }
    }
    bool memReady = false;
    Word addr = 0;
    uint8_t why = scanCanFire<Src>(id, memReady, addr, cycle);
    const size_t bank = static_cast<uint32_t>(addr) %
                        static_cast<uint32_t>(memBanks);
    if (memReady && bankClaimedAt[bank] == cycle)
        why = VBank;
    lastVerdictA[i] = why;
    freshB[i] = 1;
    if (why != VNo)
        return false;
    if (memReady)
        bankClaimedAt[bank] = cycle;
    firedB[i] = 1;
    shareUsedA[sg] = 1;
    if (shareLastA[sg] != id) {
        stats.muxSwitches++;
        shareLastA[sg] = id;
    }
    return true;
}

template <bool Src>
__attribute__((flatten)) void
ParallelEngine::censusRegion(int r)
{
    Region &R = regs[static_cast<size_t>(r)];
    R.censusNoInput = R.censusNoSpace = R.censusBank = 0;
    const auto &seq = regSeq[static_cast<size_t>(r)];
    for (size_t w = 0; w < R.liveBits.size(); w++) {
        uint64_t bits = R.liveBits[w];
        if (!bits)
            continue;
        uint64_t keep = bits;
        while (bits) {
            int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            NodeId id = seq[w * 64 + static_cast<size_t>(b)];
            const size_t i = static_cast<size_t>(id);
            bool retain;
            if (firedB[i]) {
                retain = true; // may fire again next cycle
            } else {
                // Reuse the last round's verdict when no wake
                // arrived after that evaluation.
                uint8_t why = freshB[i] ? lastVerdictA[i]
                                        : canFireFull<Src>(id);
                bool woken = wokenB[i] != 0;
                // A SyncPlane gate's verdict flips when its group
                // decides — no wake event — so it never dorms.
                bool pinned = !greedyDispatch &&
                              static_cast<NodeKind>(kindA[i]) ==
                                  NodeKind::Dispatch;
                if (why == VInput) {
                    if (pinned) {
                        if (insTokens[i] > 0)
                            R.censusNoInput++;
                        retain = true;
                    } else if (!woken) {
                        if (insTokens[i] > 0) {
                            dormantClassA[i] = DormInput;
                            R.dormantInput++;
                        }
                        retain = false;
                    } else {
                        // Woken but still input-blocked. Every
                        // avail stamp is at most cycle+1, so
                        // re-evaluating with the avail horizon one
                        // cycle ahead yields exactly the verdict
                        // next cycle's scan would produce absent
                        // further wakes. Still Input means the node
                        // cannot act next cycle: dorm it now and
                        // skip that wasted scan + census visit.
                        // Billing is unchanged — censusNoInput and
                        // dormantInput feed the same stall counter,
                        // and the oracle dorms the node one cycle
                        // later with the same cumulative count. Any
                        // enabling event wakes it back up.
                        bool memNext = false;
                        Word addrNext = 0;
                        uint8_t next = scanCanFire<Src>(id, memNext,
                                                   addrNext,
                                                   cycle + 1);
                        if (!memNext && next == VInput) {
                            // Clear the woken flag so a late wake
                            // (final NoC settle runs after the
                            // census) takes the full path and
                            // clears the dormancy again.
                            wokenB[i] = 0;
                            if (insTokens[i] > 0) {
                                dormantClassA[i] = DormInput;
                                R.dormantInput++;
                            }
                            retain = false;
                        } else {
                            if (insTokens[i] > 0)
                                R.censusNoInput++;
                            retain = true;
                            if (!memNext) {
                                // Hand the next-cycle verdict to
                                // round 1 (memory candidates still
                                // need live arbitration).
                                lastVerdictA[i] = next;
                                predB[i] = 1;
                            }
                        }
                    }
                } else if (why == VSpace) {
                    // A Space verdict cannot self-enable: inputs
                    // that passed stay avail and space is frozen
                    // until an event that wakes this node (consume,
                    // drain pop, channel/reservation free). Dorm
                    // immediately, woken or not — censusNoSpace and
                    // dormantSpace feed the same counter, and the
                    // oracle dorms it one cycle later with the same
                    // cumulative count.
                    wokenB[i] = 0;
                    dormantClassA[i] = DormSpace;
                    R.dormantSpace++;
                    retain = false;
                } else if (why == VBank) {
                    // Bank verdicts change with other nodes'
                    // claims; stay active for re-arbitration.
                    R.censusBank++;
                    retain = true;
                } else if (why == VNo) {
                    retain = true;
                } else {
                    // Idle: only a fired trigger — terminal, drop
                    // even when woken.
                    wokenB[i] = 0;
                    retain = false;
                }
            }
            if (!retain)
                keep &= ~(uint64_t{1} << b);
        }
        R.liveBits[w] = keep;
    }
}

template <bool Src>
void
ParallelEngine::nocSettle(bool pruneLive)
{
    if (nocWords == 0)
        return;
    // CF ops in routers are combinational: they observe tokens that
    // became visible this cycle and forward them within the cycle,
    // in topological order, at most one token set per router per
    // cycle (nocFiredB). Ascending topo-index bit order is the
    // oracle's sweep order over prog.nocTopo; only live or woken
    // router ops are visited (a verdict changes only with a wake).
    inNocEval = true;
    std::copy(liveNocBits.begin(), liveNocBits.end(),
              nocSweepBits.begin());
    for (;;) {
        bool anyFired = false;
        for (int w = 0; w < nocWords; w++) {
            uint64_t bits = nocSweepBits[static_cast<size_t>(w)];
            nocSweepBits[static_cast<size_t>(w)] = 0;
            while (bits) {
                int b = __builtin_ctzll(bits);
                bits &= bits - 1;
                NodeId id =
                    prog.nocTopo[static_cast<size_t>(w) * 64 +
                                 static_cast<size_t>(b)];
                if (nocFiredB[static_cast<size_t>(id)])
                    continue;
                if (canFireFull<Src>(id) == VNo) {
                    nocFiredB[static_cast<size_t>(id)] = 1;
                    nocCursor = w * 64 + b;
                    commitFire<Src>(id);
                    anyFired = true;
                    // Its wakes may add router ops further along
                    // this word.
                    bits |= nocSweepBits[static_cast<size_t>(w)];
                    nocSweepBits[static_cast<size_t>(w)] = 0;
                }
            }
        }
        // Wakes behind the cursor collected the next sweep's
        // candidates (this sweep's bits are all consumed); without a
        // fire there were no wakes.
        if (!anyFired)
            break;
        bool more = false;
        for (uint64_t word : nocNextBits)
            more |= word != 0;
        if (!more)
            break;
        nocSweepBits.swap(nocNextBits);
    }
    nocCursor = -1;
    inNocEval = false;

    if (pruneLive) {
        // End of the cycle's last settle: router ops that neither
        // fired nor were woken stay out until a wake re-adds them.
        for (int w = 0; w < nocWords; w++) {
            uint64_t bits = liveNocBits[static_cast<size_t>(w)];
            uint64_t keep = bits;
            while (bits) {
                int b = __builtin_ctzll(bits);
                bits &= bits - 1;
                NodeId id =
                    prog.nocTopo[static_cast<size_t>(w) * 64 +
                                 static_cast<size_t>(b)];
                if (!nocFiredB[static_cast<size_t>(id)] &&
                    !wokenB[static_cast<size_t>(id)]) {
                    keep &= ~(uint64_t{1} << b);
                }
            }
            liveNocBits[static_cast<size_t>(w)] = keep;
        }
    }
}

// ---------------------------------------------------------------------
// Termination support
// ---------------------------------------------------------------------

bool
ParallelEngine::quiescentSlow() const
{
    if (pendCnt > 0)
        return false;
    for (int c : chCount) {
        if (c > 0)
            return false;
    }
    for (NodeId id = 0; id < n; id++) {
        const size_t i = static_cast<size_t>(id);
        NodeKind kind = static_cast<NodeKind>(kindA[i]);
        if (kind == NodeKind::Trigger && !trigFiredA[i])
            return false;
        if (kind == NodeKind::Stream && fsmA[i] != FsmInit)
            return false;
        if (insTokens[i] > 0)
            return false;
        for (int op = outsBase[i]; op < outsBase[i + 1]; op++) {
            if (outCount[static_cast<size_t>(op)] > 0)
                return false;
        }
    }
    return true;
}

std::string
ParallelEngine::diagnose() const
{
    const dfg::Graph &g = prog.graph();
    std::ostringstream out;
    int listed = 0;
    for (NodeId id = 0; id < n && listed < 40; id++) {
        const size_t i = static_cast<size_t>(id);
        bool interesting = fsmA[i] != FsmInit;
        for (int ip = insBase[i]; ip < insBase[i + 1]; ip++)
            interesting |= insCount[static_cast<size_t>(ip)] > 0;
        for (int op = outsBase[i]; op < outsBase[i + 1]; op++)
            interesting |= outCount[static_cast<size_t>(op)] > 0;
        if (!interesting)
            continue;
        listed++;
        const Node &node = g.at(id);
        out << "  node " << id << " (" << nodeKindName(node.kind)
            << " " << node.name << ") ins=[";
        // Source buffering has no input FIFOs to list.
        for (int ip = insBase[i]; ip < insBase[i + 1] && !sourceMode;
             ip++)
            out << insCount[static_cast<size_t>(ip)] << " ";
        out << "] outs=[";
        for (int op = outsBase[i]; op < outsBase[i + 1]; op++)
            out << outCount[static_cast<size_t>(op)] << " ";
        out << "] fsm=" << static_cast<int>(fsmA[i]) << "\n";
    }
    for (size_t ch = 0; ch < chCount.size(); ch++) {
        if (chCount[ch] == 0)
            continue;
        const Program::Channel &cc = prog.channels[ch];
        out << "  channel " << ch << " (node " << cc.src << " -> "
            << cc.dst << " in " << cc.dstIn << ") holds "
            << chCount[ch] << " token(s)\n";
    }
    return out.str();
}

int
ParallelEngine::windowBound() const
{
    // Wire cuts synchronize every cycle (zero slack); so does a
    // partition with no cut channels at all (single region, or
    // regions only wire-coupled).
    if (plan.cutWires > 0 || cutChanList.empty())
        return 1;
    int w = INT32_MAX;
    for (int ch : cutChanList) {
        const size_t ci = static_cast<size_t>(ch);
        int slack = std::min(chLatA[ci],
                             chCapA[ci] - chCount[ci]);
        w = std::min(w, slack);
    }
    return std::max(1, w);
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

SimResult
ParallelEngine::run(MemImage &memImage, int64_t maxCyclesOverride)
{
    mem = &memImage;
    resetRun();
    ctr.fixpointRounds = ctr.barriers = 0;
    ctr.barrierWaits = ctr.barrierWaitNs = 0;
    const int64_t maxCycles = maxCyclesOverride > 0
                                  ? maxCyclesOverride
                                  : prog.cfg.maxCycles;
    // The buffering mode is fixed per Program: pick the cycle loop
    // once, so destination-buffered runs never test for source rings.
    return sourceMode ? runCycles<true>(maxCycles)
                      : runCycles<false>(maxCycles);
}

template <bool Src>
SimResult
ParallelEngine::runCycles(int64_t maxCycles)
{
    const bool hasChannels = prog.hasChannels;
    const int K = plan.count;
    SimResult result;

    for (cycle = 0; cycle < maxCycles; cycle++) {
        activeFlag = false;
        // Per-cycle flags are bytes cleared in bulk: for fabric-sized
        // n a byte fill is cheaper than the cycle-stamp compares it
        // replaces in the scan and census walks. (Not a raw memset:
        // an empty program's vectors have null data.)
        std::fill(freshB.begin(), freshB.end(), 0);
        std::fill(wokenB.begin(), wokenB.end(), 0);
        std::fill(firedB.begin(), firedB.end(), 0);
        std::fill(nocFiredB.begin(), nocFiredB.end(), 0);
        std::fill(shareUsedA.begin(), shareUsedA.end(), 0);

        drainPhase();
        memCompletionsPhase<Src>();
        if (hasChannels)
            channelsPhase();

        // Router CF settles over tokens left from the previous
        // cycle before the PEs sample their inputs.
        bornStamp = cycle - 1;
        nocSettle<Src>(false);

        // Sequential (PE) firing to a fixpoint within the cycle.
        bornStamp = cycle;
        runFixpoint<Src>();

        // Stall census per region, then serial aggregation
        // (int64 sums are order-independent).
        runPhase(Phase::Census, false);
        for (int r = 0; r < K; r++) {
            const Region &R = regs[static_cast<size_t>(r)];
            stats.stallNoInput += R.censusNoInput + R.dormantInput;
            stats.stallNoSpace += R.censusNoSpace + R.dormantSpace;
            stats.bankConflictStalls += R.censusBank;
        }

        // Pass 3: combinational CF-in-NoC evaluation.
        nocSettle<Src>(true);

        if (!failure.empty()) {
            flushPortReads();
            result.stats = stats;
            result.stats.cycles = cycle + 1;
            result.deadlocked = true;
            result.diagnostic = failure;
            mem = nullptr;
            return result;
        }

        if (pendCnt == 0 && tokensInFlight == 0 &&
            triggersPending == 0 && streamsRunning == 0) {
            ps_assert(quiescentSlow(),
                      "quiescence counters drifted from fabric "
                      "state at cycle %lld",
                      static_cast<long long>(cycle));
            stats.cycles = cycle + 1;
            flushPortReads();
            result.stats = stats;
            // A carry/invariant left mid-loop with no tokens in
            // flight means the graph leaked or starved tokens.
            for (NodeId id = 0; id < n; id++) {
                NodeKind kind = static_cast<NodeKind>(
                    kindA[static_cast<size_t>(id)]);
                if ((kind == NodeKind::Carry ||
                     kind == NodeKind::Invariant) &&
                    fsmA[static_cast<size_t>(id)] != FsmInit) {
                    const Node &node = prog.graph().at(id);
                    result.deadlocked = true;
                    result.diagnostic = csprintf(
                        "token leak: node %d (%s %s) finished in "
                        "run state",
                        id, nodeKindName(node.kind),
                        node.name.c_str());
                    break;
                }
            }
            mem = nullptr;
            return result;
        }

        if (!activeFlag && pendCnt == 0) {
            ps_assert(!quiescentSlow(),
                      "quiescence counters missed an empty fabric "
                      "at cycle %lld",
                      static_cast<long long>(cycle));
            stats.cycles = cycle + 1;
            flushPortReads();
            result.stats = stats;
            result.deadlocked = true;
            result.diagnostic =
                csprintf("deadlock at cycle %lld:\n",
                         static_cast<long long>(cycle)) +
                diagnose();
            mem = nullptr;
            return result;
        }
    }

    stats.cycles = maxCycles;
    flushPortReads();
    result.stats = stats;
    result.deadlocked = true;
    result.watchdogExpired = true;
    result.diagnostic = "watchdog: maxCycles exceeded\n" + diagnose();
    mem = nullptr;
    return result;
}

} // namespace pipestitch::sim
