/**
 * @file
 * sim::ExecutionState — one run's worth of mutable simulator state
 * over a shared, immutable sim::Program.
 *
 * The contract (see docs/simulator.md):
 *
 *  - an ExecutionState holds a shared_ptr to its Program and never
 *    writes through it;
 *  - everything mutable lives here: token FIFOs, gate FSMs, the
 *    scheduler's live sets and caches, the memory system (bound to
 *    the caller's MemImage for the duration of run()), stats, and
 *    the per-run observer/trace settings;
 *  - run() may be called repeatedly on one ExecutionState (state is
 *    reset each time), but a single ExecutionState must not be used
 *    from two threads at once. Concurrency = one ExecutionState per
 *    thread, all sharing one Program.
 *
 * The legacy simulate() entry point is now a thin wrapper that builds
 * a Program and runs one ExecutionState, so both paths are
 * cycle-exact by construction (tests/test_golden_stats.cc and
 * tests/test_execution.cc enforce this).
 */

#ifndef PIPESTITCH_SIM_EXECUTION_HH
#define PIPESTITCH_SIM_EXECUTION_HH

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/program.hh"

namespace pipestitch::sim {

class ParallelEngine;
struct EngineCounters;

/** Per-run knobs stripped from the Program's SimConfig. */
struct RunOptions
{
    /** Observability hooks; not owned, must outlive the run. */
    trace::SimObserver *observer = nullptr;
    /** Print every fire to stderr. */
    bool trace = false;
    /** Watchdog override; 0 = the Program config's maxCycles. */
    int64_t maxCycles = 0;
};

class ExecutionState
{
  public:
    explicit ExecutionState(std::shared_ptr<const Program> program);
    ~ExecutionState();

    /**
     * Execute the program against @p mem until the fabric drains.
     * @p mem is mutated in place and referenced only for the
     * duration of the call. Resets all run state first, so the same
     * ExecutionState can be reused sequentially.
     *
     * Scheduler::ParallelRegions runs delegate to a cached
     * sim::ParallelEngine (bit-identical to the ReadyList oracle);
     * configurations the engine does not model — source buffering,
     * share groups — and runs with an observer or stderr trace
     * attached fall back to the oracle, as DenseScan did for PR 2.
     */
    SimResult run(MemImage &mem, const RunOptions &opts = {});

    const Program &program() const { return prog; }

    /** The ParallelRegions engine's choices and last-run counters;
     *  null until a run has taken the engine path. */
    const EngineCounters *engineCounters() const;

  private:
    /** Why a node did not fire this cycle. */
    enum class Blocked { No, Idle, Input, Space, Bank };

    /** Per-node runtime state. */
    struct NodeRt
    {
        std::vector<TokenFifo> ins;  ///< input buffers / NoC latches
        std::vector<TokenFifo> outs; ///< output buffers
        int reservedOut = 0;         ///< in-flight loads holding outs[0]
        /** Gate FSM: carries/invariants/streams idle in Init; a carry
         *  that consumed a true decider but still awaits its backedge
         *  value sits in WaitVal (eager decider consumption keeps the
         *  multicast decider head from being held hostage by the
         *  loop's slowest path). Merge uses WaitVal the same way. */
        enum class Fsm { Init, Run, WaitVal };
        Fsm fsm = Fsm::Init;
        int pendingSide = 0;  ///< merge: selected input while waiting
        Token latched;        ///< invariant latch / pending decider tag
        Word streamCur = 0;
        Word streamEnd = 0;
        bool triggerFired = false;
    };

    // --- setup ------------------------------------------------------
    void reset();

    // --- per-cycle phases -------------------------------------------
    void drainOutputBuffers();
    void handleMemCompletions();
    void advanceChannels();
    void decideDispatchGroups();
    Blocked canFire(dfg::NodeId id);
    void commitFire(dfg::NodeId id);
    void evalNocNodes(bool pruneLive);
    void stallCensus();
    bool quiescentSlow() const;
    std::string diagnose() const;
    SimResult runLoop();

    // --- ready-list bookkeeping -------------------------------------
    void wake(dfg::NodeId id);
    void wakeConsumers(dfg::NodeId id, int port);
    void markDrainable(dfg::NodeId id);

    // --- token plumbing ---------------------------------------------
    bool inputAvail(dfg::NodeId id, int in) const;
    Token peekInput(dfg::NodeId id, int in) const;
    Token consumeInput(dfg::NodeId id, int in);
    bool consumersAccept(dfg::NodeId id, int port) const;
    bool outSpace(dfg::NodeId id, int port, int need) const;
    bool portHasConsumers(dfg::NodeId id, int port) const;
    void deliver(dfg::NodeId from, int port, const Token &token);
    void emit(dfg::NodeId id, int port, Token token);
    int32_t combineTags(dfg::NodeId id,
                        std::initializer_list<int32_t> tags);

    // ------------------------------------------------------------------
    std::shared_ptr<const Program> progHold;
    const Program &prog;
    const dfg::Graph &graph;
    SimConfig cfg; ///< per-run copy: prog.cfg + RunOptions overrides
    trace::SimObserver *obs = nullptr;
    bool sourceMode;
    bool readyMode;
    std::optional<MemSystem> memsys; ///< engaged only inside run()

    std::vector<NodeRt> rt;

    enum class GroupChoice { None, Cont, Spawn };
    std::vector<GroupChoice> groupChoice;

    std::vector<bool> shareUsed;        ///< per group, this cycle
    std::vector<dfg::NodeId> shareLast; ///< per group, last resident

    // Ready-list scheduler state. `liveSeq`/`liveNoc` are the
    // persistent maybe-ready sets (superset of anything that can
    // fire or count as stalled); `wokenAt` stamps the last wake so
    // the stall census can retain freshly-woken nodes whose tokens
    // are still aging (born-stamp rule).
    std::vector<dfg::NodeId> liveSeq, liveNoc;
    std::vector<uint8_t> inLive;
    std::vector<int64_t> wokenAt;

    // Dormant stall accounting: a PE that stalled on a missing
    // operand or on backpressure, and that no event has touched
    // since, is frozen — its census verdict cannot change until a
    // wake arrives (inputs only change via deliveries/retires, space
    // only via pops, and its tokens are fully aged because a node
    // woken this cycle is retained as active). Such nodes leave the
    // live set entirely and are billed per cycle through two O(1)
    // aggregates. Bank-blocked and share-blocked nodes stay active:
    // their verdicts depend on what *other* nodes do each cycle.
    enum : uint8_t { DormNone = 0, DormInput = 1, DormSpace = 2 };
    std::vector<uint8_t> dormantClass;
    int64_t dormantInput = 0, dormantSpace = 0;

    // Verdict cache: the census reuses the last fixpoint-round
    // evaluation of a node when no wake arrived after it. Sound for
    // the same reason dormancy is: a non-fired node's verdict can
    // only change through a wake event, and within one cycle bank
    // claims / input levels move monotonically toward the census
    // state (canFire checks Input before Space before Bank).
    std::vector<Blocked> lastVerdict;
    std::vector<int64_t> verdictSerial, wakeSerial;
    int64_t cycleStartSerial = 0;

    // Incremental SyncPlane: a dispatch group whose gates saw no
    // event (delivery, fire, drain) keeps its cached choice and
    // pending flag. `groupDirtyUntil` extends one cycle past the
    // last event so freshly delivered tokens age past the born
    // stamp before the group freezes.
    std::vector<int64_t> groupDirtyUntil; ///< per loop id
    std::vector<uint8_t> groupPending;    ///< cached anyPending

    // PE fixpoint rounds: candidates for the current round and the
    // wakeups collected (during commits) for the next one.
    std::vector<dfg::NodeId> curRound, nextRound;
    std::vector<int64_t> inRoundAt, inNextAt;
    int64_t roundSerial = 0;
    bool inPeFixpoint = false;

    // NoC combinational sweeps within one evalNocNodes call.
    std::vector<dfg::NodeId> nocSweep, nocNextSweep;
    std::vector<int64_t> inNocNextAt;
    int64_t nocSweepSerial = 0;
    bool inNocEval = false;

    // Nodes with possibly non-empty output buffers (dest mode).
    std::vector<dfg::NodeId> drainList;
    std::vector<uint8_t> inDrainList;

    // Inter-tile FIFO channels, structure-of-arrays ring slabs (one
    // `capacity`-slot segment per Program::Channel at chanSlabBase):
    // tokens mature at `chanReady` and then land in the destination
    // buffer. Counted in tokensInFlight while in the channel. The
    // ParallelEngine (sim/parallel.hh) carries the full SoA layout
    // for NodeRt's hot fields as well; here only the channel rings
    // are flattened (channel capacities are small and fixed, so the
    // deque-of-structs was pure allocator churn).
    std::vector<Token> chanTok;
    std::vector<int64_t> chanReady;
    std::vector<int> chanSlabBase; ///< [C+1] slab offsets
    std::vector<int> chanHead, chanCount;

    // Quiescence counters: exact mirrors of the fabric state the
    // O(n) scan used to inspect (verified against quiescentSlow()
    // at termination).
    int64_t tokensInFlight = 0;
    int triggersPending = 0;
    int streamsRunning = 0;

    int32_t nextThreadTag = 0;
    int64_t cycle = 0;
    int64_t bornStamp = 0; ///< birth cycle applied to pushed tokens
    int64_t lastSyncPlaneCycle = -1;
    bool active = false; ///< any event this cycle
    std::vector<dfg::NodeId> fireList;
    std::vector<int64_t> seqFiredAt; ///< per-cycle once-only guards
    std::vector<int64_t> nocFiredAt;

    SimStats stats;
    std::string failure;

    /** Cached ParallelRegions engine (built on first use; jobs and
     *  threads come from the Program's immutable config). */
    std::unique_ptr<ParallelEngine> parEngine;
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_EXECUTION_HH
