/**
 * @file
 * sim::ParallelEngine — the Scheduler::ParallelRegions backend.
 *
 * A region-partitioned, structure-of-arrays re-implementation of the
 * cycle loop, and the engine every unobserved run takes: destination
 * and source buffering, SyncPlane and greedy dispatch, share groups
 * and tiled channels. The Program's fabric is split into K spatial
 * regions (sim/regions.hh); each cycle the select/census phases —
 * the bulk of the work — run independently per region, while token
 * movement (commit, drain, memory, channels, NoC settle) stays on the
 * coordinating thread so every cross-region write is serialized.
 * Bank arbitration, share-group residency and commits are replayed
 * in ascending node-id order across regions, which makes the engine
 * bit-identical to the DenseScan oracle at every region and thread
 * count (tests/test_sim_par.cc sweeps both).
 *
 * Thread policy: by default (threads = 0) the engine runs one
 * region inline on the calling thread — no program size measured so
 * far runs faster threaded (docs/simulator.md, "Thread policy").
 * An explicit thread count forces the partitioned path: `jobs`
 * regions, and for threads > 1 a crew of persistent region workers
 * spawned once, at construction. Each phase is published by bumping
 * an epoch counter the workers spin on briefly, then block on (a
 * futex); the coordinator takes region share 0 itself before
 * waiting for every worker's done slot to reach the new epoch. No
 * job, future or allocation is created per phase.
 *
 * Why this is safe without per-candidate locking: the select phase
 * is read-only — canFire() peeks FIFO heads (or, under source
 * buffering, the producer ring at the endpoint's cursor) and never
 * moves a token — so concurrent per-region scans observe exactly
 * the state the oracle's ascending scan would. The order-sensitive
 * select effects (memory-bank claims, share-group residency) are
 * deferred to a coordinated pass over the merged candidates.
 *
 * Data layout: all per-run hot state lives in flat arrays indexed by
 * the Program's CSR port layout — one slab each for token values,
 * tags and born stamps (depth-strided per port), per-port head/count
 * cursors, and a per-port "available from cycle" stamp that folds
 * emptiness, immediates, the multicast cursor and the born-stamp
 * rule into a single compare. Destination buffering keeps tokens in
 * consumer input FIFOs; source buffering keeps them in producer
 * output rings that every consumer endpoint reads through its own
 * cursor (TokenFifo's multicast rules). Worklists are per-region
 * bitmaps over region-local dense indices, so scans iterate in
 * ascending id order without per-round sorts and regions never write
 * a shared word.
 *
 * Synchronization windows: for channel-cut partitions the
 * coordinator computes the conservative lookahead bound
 * W = min over cut channels of min(latency, capacity - occupancy);
 * the shipped engine executes the degenerate W = 1 (per-cycle
 * barrier) schedule, which single-grid partitions force anyway
 * (wire cuts have zero slack). windowBound() exposes the bound for
 * reporting; multi-cycle decoupled windows are the documented
 * follow-on (docs/simulator.md).
 *
 * Observed runs (an attached SimObserver or the stderr trace) never
 * reach this engine: ExecutionState::run() takes the DenseScan
 * oracle for them, which has the per-fire hooks.
 */

#ifndef PIPESTITCH_SIM_PARALLEL_HH
#define PIPESTITCH_SIM_PARALLEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/regions.hh"

namespace pipestitch::sim {

/** What one ParallelEngine chose, and what its last run did. */
struct EngineCounters
{
    int regions = 1;            ///< spatial regions
    int threads = 1;            ///< threads running them
    bool inlineRun = true;      ///< no worker threads (threads == 1)
    int64_t fixpointRounds = 0; ///< PE fixpoint rounds, all cycles
    int64_t barriers = 0;       ///< phases published to the workers
    /** Barriers at which the coordinator, done with its own share,
     *  still found workers busy — and the time it waited on them. */
    int64_t barrierWaits = 0;
    int64_t barrierWaitNs = 0;
};

class ParallelEngine
{
  public:
    /**
     * Build the engine over @p program.
     * @p threads = 0: the default — one region, inline.
     * @p threads = 1: inline over @p jobs regions (partition
     * coverage without threads).
     * @p threads > 1: min(@p threads, @p jobs) persistent worker
     * threads over @p jobs regions, whatever the host (the TSan
     * determinism tests and bench-sim-par's forced rows use this).
     */
    ParallelEngine(std::shared_ptr<const Program> program, int jobs,
                   int threads);
    ~ParallelEngine();
    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** One unobserved simulation, bit-identical to the DenseScan
     *  oracle. @p maxCyclesOverride 0 = the Program's maxCycles. */
    SimResult run(MemImage &mem, int64_t maxCyclesOverride);

    const RegionPlan &regionPlan() const { return plan; }
    /** Threads the per-region phases execute on (1 = inline on
     *  the calling thread). */
    int workerThreads() const { return physThreads; }
    /** The chosen regions/threads and the last run's counters. */
    const EngineCounters &counters() const { return ctr; }
    /** Conservative lookahead bound at the current sync point:
     *  min over cross-region channels of min(latency, capacity -
     *  occupancy); 1 when any wire crosses regions (zero slack) or
     *  no channel crosses regions. */
    int windowBound() const;

  private:
    struct Region;
    struct Crew;
    enum class Phase : uint8_t { Scan, Census, Stop };

    enum : uint8_t { VNo = 0, VIdle, VInput, VSpace, VBank };
    enum : uint8_t { DormNone = 0, DormInput, DormSpace };

    // --- build ------------------------------------------------------
    void buildTables();
    void resetRun();

    // --- hot helpers (defined in parallel.cc) -----------------------
    inline bool avail(int ip) const;
    /** Output FIFO/ring depth of node @p i : the uniform depth under
     *  destination buffering, per node (router CF shallower) under
     *  source buffering. */
    template <bool Src>
    inline int outCap(size_t i) const;
    inline bool consumersAccept(dfg::NodeId id, int port) const;
    template <bool Src>
    inline bool outSpace(dfg::NodeId id, int port, int need) const;
    /** Returns true when the token landed at the FIFO head (the
     *  only case where the consumer's avail state can change). */
    inline bool pushIn(int ip, Word value, int32_t tag, int64_t born);
    inline void deliver(dfg::NodeId from, int port, Word value,
                        int32_t tag);
    template <bool Src>
    void emit(dfg::NodeId id, int port, Word value, int32_t tag);
    struct Tok
    {
        Word value = 0;
        int32_t tag = NoTag;
    };
    template <bool Src>
    inline Tok peekIn(dfg::NodeId id, int in) const;
    template <bool Src>
    Tok consumeIn(dfg::NodeId id, int in);
    /** @{ Source buffering: producer output rings read by every
     *  consumer endpoint through its own cursor. */
    inline Tok ringPeek(int ip) const;
    /** Recompute endpoint @p ip 's avail stamp: registered PEs see
     *  only the multicast head, router CF snoops the buffered
     *  window (TokenFifo::availHeadFor / availFor). */
    inline void refreshEndpoint(int ip);
    void ringPush(dfg::NodeId id, int port, Word value, int32_t tag);
    /** Advance @p ip 's cursor; an entry retires once every
     *  endpoint has taken it (TokenFifo::takeFor). */
    Tok ringTake(int ip);
    /** @} */
    int32_t combine2(dfg::NodeId id, int32_t a, int32_t b);
    int32_t combine3(dfg::NodeId id, int32_t a, int32_t b, int32_t c);

    /** Verdict for non-memory nodes; memory nodes that pass their
     *  input/space checks return VBank-with-candidate via @p memReady
     *  (bank arbitration happens in the coordinated pass). Input
     *  availability is tested against @p horizon — `cycle` for the
     *  current verdict, `cycle + 1` for the census' next-cycle
     *  prediction (every avail stamp is at most cycle + 1, so one
     *  cycle of lookahead is exact absent further wakes). */
    template <bool Src>
    uint8_t scanCanFire(dfg::NodeId id, bool &memReady, Word &addr,
                        int64_t horizon);
    /** Full verdict including the bank check (census / NoC). */
    template <bool Src>
    uint8_t canFireFull(dfg::NodeId id);
    template <bool Src>
    void commitFire(dfg::NodeId id);
    /** Structural wake: space freed / state changed — the node's
     *  verdict may flip within the current cycle. */
    void wake(dfg::NodeId id);
    /**
     * Delivery wake: a token landed in the node's input FIFO. Under
     * the born-stamp rule a PE cannot consume it until next cycle,
     * so this wake retains the node for the census and next cycle's
     * scan (liveBits) but neither schedules a same-cycle re-scan
     * (nextBits) nor invalidates the verdict cache (wakeSerial) —
     * the oracle's re-evaluation would return the cached verdict
     * unchanged. NoC-owned latches consume same-cycle and take the
     * full wake path.
     */
    void wakeDeliver(dfg::NodeId id);
    /** Mark @p id 's dispatch group (if it is a gate) for
     *  re-decision in the next round. */
    inline void touchGroup(dfg::NodeId id);
    /** Wake router op @p i (its latches consume same-cycle). */
    void wakeNoc(size_t i);
    /**
     * Space wake for a producer whose consumer just freed a FIFO
     * slot. canFire ranks Input before Space, so a producer whose
     * fresh verdict this cycle is Input- or Idle-blocked cannot be
     * enabled by downstream space — it takes the light (delivery)
     * wake path, skipping the same-cycle re-scan that the oracle
     * would spend only to re-derive the identical verdict.
     */
    void wakeSpace(dfg::NodeId id);
    /** Coordinated select of share-group member @p id : one resident
     *  per group per cycle, the current resident yields to a ready
     *  housemate, and conflicts are billed every round. Claims the
     *  bank of a memory member. True when @p id fires. */
    template <bool Src>
    bool selectShared(dfg::NodeId id);
    void flushPortReads();

    // --- cycle phases -----------------------------------------------
    void drainPhase();
    template <bool Src>
    void memCompletionsPhase();
    void channelsPhase();
    template <bool Src>
    void decideDispatchGroups(bool firstRound);
    template <bool Src>
    void nocSettle(bool pruneLive);
    template <bool Src>
    void scanRegion(int r, bool firstRound);
    template <bool Src>
    void censusRegion(int r);
    /** Run @p phase over every region: inline, or fanned out to the
     *  persistent workers (thread w takes regions w, w+T, ...). */
    void runPhase(Phase phase, bool firstRound);
    void runShare(int w, Phase phase, bool firstRound);
    void workerMain(int w);
    template <bool Src>
    void runFixpoint();
    /** run()'s cycle loop for one buffering mode. */
    template <bool Src>
    SimResult runCycles(int64_t maxCycles);
    bool quiescentSlow() const;
    std::string diagnose() const;

    // ----------------------------------------------------------------
    std::shared_ptr<const Program> progHold;
    const Program &prog;
    RegionPlan plan;
    int physThreads = 1;
    /** Persistent region workers; null for inline engines. */
    std::unique_ptr<Crew> crew;
    EngineCounters ctr;

    // --- immutable tables (built once per engine) -------------------
    int n = 0;           ///< node count
    int depth = 4;       ///< uniform FIFO depth (cfg.bufferDepth)
    int numLoops = 0;
    int memBanks = 16;
    int memLatency = 2;
    bool memBypass = true;
    bool greedyDispatch = false;
    bool checkThreadOrder = true;
    bool sourceMode = false;

    std::vector<uint8_t> kindA;     ///< dfg::NodeKind
    std::vector<sir::Opcode> opcA;  ///< Arith opcode
    std::vector<uint8_t> wantA;     ///< arith operand count
    std::vector<Word> immA;
    std::vector<uint8_t> steerTrueA;
    std::vector<Word> streamStepA;
    std::vector<int32_t> loopIdA;
    std::vector<uint8_t> peClassA;
    std::vector<uint8_t> isMemA;
    std::vector<uint8_t> nocA;
    std::vector<uint8_t> hasOutBufA;
    std::vector<int32_t> outCapA;   ///< [n] output FIFO/ring depth
    int outStride = 0;              ///< out slab stride (max depth)
    std::vector<int32_t> insBase;   ///< [n+1] flat input-port index
    std::vector<int32_t> outsBase;  ///< [n+1] flat buffered-out index
    enum : uint8_t { PortUnwired = 0, PortWired, PortImm };
    std::vector<uint8_t> portMode;  ///< [P]
    std::vector<Word> portImmVal;   ///< [P]
    std::vector<int32_t> portProd;  ///< [P] producer node (wired)
    std::vector<uint8_t> portNocOwner; ///< [P] owner is router CF
    // Source buffering: the producer ring (a CSR port index, which
    // equals its outsBase index there) each input port reads, and
    // whether its tokens shed their thread tag crossing regions.
    std::vector<int32_t> srcPortA;  ///< [P]
    std::vector<uint8_t> ipShedA;   ///< [P]

    // Consumer-edge CSR: edges of (node, port) are
    // edge*[prog.consBase[prog.portBase[node]+port] ..).
    std::vector<int32_t> edgeNode;
    std::vector<int32_t> edgeIp;
    std::vector<int32_t> edgeChan;
    std::vector<uint8_t> edgeShed;

    std::vector<int32_t> chanBase;  ///< [C+1] ring slab offsets
    std::vector<int32_t> chCapA, chLatA;
    std::vector<int32_t> chSrcNode, chDstNode, chDstIp;
    std::vector<int32_t> cutChanList; ///< channels crossing regions

    // Region tables: per-region seq-node lists (ascending) and the
    // node -> (region, local index) maps the worklists use.
    std::vector<std::vector<int32_t>> regSeq;
    std::vector<int32_t> regionOfA;
    std::vector<int32_t> localIdx;
    int nocWords = 0;

    // --- per-run state ----------------------------------------------
    // Token slabs, SoA by field: values/tags/borns strided by depth.
    std::vector<Word> insVal;
    std::vector<int32_t> insTag;
    std::vector<int64_t> insBorn;
    std::vector<int32_t> insHeadA, insCount;
    /** Earliest cycle the head token can be consumed; INT64_MIN for
     *  immediates, INT64_MAX when empty/unwired. One compare folds
     *  the empty + imm + born-stamp checks. */
    std::vector<int64_t> insAvailFrom;
    std::vector<Word> outVal;
    std::vector<int32_t> outTag;
    std::vector<int32_t> outHeadA, outCount;
    std::vector<int64_t> outBorn;     ///< source rings only
    std::vector<int64_t> outRetired;  ///< source: entries retired
    std::vector<int64_t> cursorA;     ///< source: [P] entries taken
    std::vector<int32_t> insTokens;   ///< [n] tokens across ins
    std::vector<int32_t> reservedOutA;
    std::vector<uint8_t> fsmA;        ///< NodeRt::Fsm numbering
    std::vector<uint8_t> pendingSideA;
    std::vector<Word> latchValA;
    std::vector<int32_t> latchTagA;
    std::vector<Word> streamCurA, streamEndA;
    std::vector<uint8_t> trigFiredA;

    std::vector<uint8_t> groupChoiceA; ///< GroupChoice numbering
    std::vector<int64_t> groupDirtyUntilA;
    std::vector<uint8_t> groupPendingA;
    // lastVerdictA[i] holds a next-cycle verdict predicted by the
    // census (horizon cycle + 1); round 1 of the next fixpoint may
    // consume it instead of re-evaluating. Any wake of the node
    // invalidates the prediction. Not cleared per cycle — it must
    // survive from census into the next cycle's scan.
    std::vector<uint8_t> predB;
    // Per-loop "a gate fired, or a source ring it reads or fills
    // retired an entry, since the group was last decided" flag:
    // consumed by decideDispatchGroups to skip re-evaluating groups
    // whose inputs cannot have changed since the previous round.
    std::vector<uint8_t> groupTouched;
    std::vector<int32_t> gateLoops; ///< loops with dispatch gates

    std::vector<uint8_t> lastVerdictA;
    // Per-cycle flags, memset-cleared at cycle start: freshB =
    // verdict evaluated this cycle with no structural wake since;
    // wokenB/firedB/nocFiredB = woken / fired this cycle.
    std::vector<uint8_t> freshB, wokenB, firedB, nocFiredB;
    std::vector<int64_t> portReadsFlat; ///< insBase-indexed slab
    std::vector<uint8_t> dormantClassA;
    bool inPeFixpoint = false;
    bool inNocEval = false;
    int nocCursor = -1; ///< topo index the NoC sweep is evaluating

    struct alignas(64) Region
    {
        std::vector<uint64_t> liveBits, roundBits, nextBits;
        /** With share groups: the PEs the scan visits (members
         *  select in the coordinated pass). Empty without. */
        std::vector<uint64_t> scanMask;
        std::vector<int32_t> candFire;   ///< scan: fire-ready, asc
        std::vector<int32_t> candMem;    ///< scan: mem candidates
        std::vector<Word> candAddr;      ///< parallel to candMem
        int64_t dormantInput = 0, dormantSpace = 0;
        int64_t censusNoInput = 0, censusNoSpace = 0, censusBank = 0;
    };
    std::vector<Region> regs;
    std::vector<uint64_t> liveNocBits, nocSweepBits, nocNextBits;
    std::vector<uint64_t> drainBits;

    // Channel rings (SoA) and the banked memory model.
    std::vector<Word> chVal;
    std::vector<int32_t> chTag;
    std::vector<int64_t> chReady;
    std::vector<int32_t> chHead, chCount;
    std::vector<int64_t> bankClaimedAt; ///< == cycle -> claimed
    MemImage *mem = nullptr;
    std::vector<int32_t> pendNode;
    std::vector<Word> pendVal;
    std::vector<int32_t> pendTag;
    std::vector<int64_t> pendReady;
    int32_t pendHead = 0, pendCnt = 0;

    // Share groups (time multiplexing): node -> group (-1 = own PE),
    // the PE members in ascending id, and per-group residency.
    std::vector<int32_t> shareOfA;
    std::vector<int32_t> shareMembers;
    std::vector<uint8_t> shareUsedA;  ///< per group, this cycle
    std::vector<int32_t> shareLastA;  ///< per group, last resident

    std::vector<int32_t> fireList;
    // K-way merge cursors / two-run merge scratch for the per-round
    // candidate gathering (per-region lists arrive sorted).
    std::vector<size_t> mergeIdx;
    std::vector<int32_t> mergeTmp;

    int64_t tokensInFlight = 0;
    int triggersPending = 0;
    int streamsRunning = 0;
    int32_t nextThreadTag = 0;
    int64_t cycle = 0;
    int64_t bornStamp = 0;
    int64_t lastSyncPlane = -1;
    bool activeFlag = false;
    SimStats stats;
    std::string failure;
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_PARALLEL_HH
