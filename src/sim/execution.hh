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
 *    memory system (bound to the caller's MemImage for the duration
 *    of run()), stats, the per-run observer/trace settings, and the
 *    cached ParallelRegions engine;
 *  - run() may be called repeatedly on one ExecutionState (state is
 *    reset each time), but a single ExecutionState must not be used
 *    from two threads at once. Concurrency = one ExecutionState per
 *    thread, all sharing one Program.
 *
 * The AoS state below is the DenseScan oracle: every cycle it
 * re-evaluates every node in every fixpoint round, with no worklists
 * or caches, so it is the naive reference the ParallelRegions engine
 * is checked against (tests/test_golden_stats.cc) and the engine for
 * observed and stderr-traced runs, whose per-fire hooks live here.
 *
 * The legacy simulate() entry point is a thin wrapper that builds a
 * Program and runs one ExecutionState, so both paths are cycle-exact
 * by construction (tests/test_execution.cc enforces this).
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
     * sim::ParallelEngine (bit-identical to the DenseScan oracle);
     * runs with an observer or stderr trace attached take the
     * DenseScan loop, which has the per-fire hooks.
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
    void evalNocNodes();
    void stallCensus();
    bool quiescentSlow() const;
    std::string diagnose() const;
    SimResult runLoop();

    // --- token plumbing ---------------------------------------------
    void markDrainable(dfg::NodeId id);
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
    std::optional<MemSystem> memsys; ///< engaged only inside run()

    std::vector<NodeRt> rt;

    enum class GroupChoice { None, Cont, Spawn };
    std::vector<GroupChoice> groupChoice;

    std::vector<bool> shareUsed;        ///< per group, this cycle
    std::vector<dfg::NodeId> shareLast; ///< per group, last resident

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
