/**
 * @file
 * Cycle-level simulator for RipTide/Pipestitch dataflow graphs.
 *
 * The simulator executes the token-level microarchitectural rules of
 * the paper directly:
 *
 *  - ordered dataflow: every edge is a FIFO; nodes fire on in-order
 *    head tokens and stall on backpressure;
 *  - destination (input) buffering [Pipestitch] or source (output)
 *    buffering with multicast hold [RipTide / the PipeSB ablation]
 *    (Sec. 4.7, Fig. 12);
 *  - output buffers with bypass on memory and control-flow PEs
 *    (Sec. 4.7);
 *  - dispatch groups synchronized through the SyncPlane with bubble
 *    flow control: a full continuation set is preferred; a spawn set
 *    requires two free output slots at every gate (Fig. 10);
 *  - control flow mapped into NoC routers evaluates combinationally
 *    (adds no pipeline latency);
 *  - banked memory with per-bank port arbitration and fixed load
 *    latency.
 *
 * Tokens carry debug-only thread tags that let the simulator verify
 * the ordered-threading invariant; the architecture itself is
 * tagless.
 */

#ifndef PIPESTITCH_SIM_SIMULATOR_HH
#define PIPESTITCH_SIM_SIMULATOR_HH

#include <memory>
#include <string>

#include "dfg/graph.hh"
#include "sim/memsys.hh"
#include "sim/stats.hh"
#include "sim/token.hh"

namespace pipestitch::trace {
class SimObserver;
} // namespace pipestitch::trace

namespace pipestitch::sim {

/** Microarchitecture configuration for one simulation. */
struct SimConfig
{
    enum class Buffering {
        Source,      ///< RipTide / PipeSB: buffers at producer outputs
        Destination, ///< Pipestitch: buffers at consumer inputs
    };

    Buffering buffering = Buffering::Destination;

    enum class Scheduler {
        /**
         * Re-evaluate every node in every fixpoint round — the naive
         * O(nodes × rounds) reference oracle, kept for verification
         * and as the bench baseline, and the engine observed runs
         * take.
         */
        DenseScan,
        /**
         * Region-partitioned engine over structure-of-arrays token
         * state (sim/parallel.hh), and the default: bit-identical to
         * DenseScan in every SimStats field (enforced by
         * tests/test_golden_stats.cc and tests/test_sim_par.cc)
         * under both buffering models, both dispatch modes, share
         * groups and tiles. The fabric is split into spatial regions
         * (mapper-style BFS min-cut, or tile/channel boundaries for
         * tiled programs) whose select/census phases run per region,
         * inline or on persistent worker threads; commit/drain/
         * memory/NoC phases stay coordinated, so results never
         * depend on the region or thread count. Runs that attach an
         * observer or stderr trace take DenseScan instead, whose
         * stats are identical.
         */
        ParallelRegions,
    };

    Scheduler scheduler = Scheduler::ParallelRegions;

    /**
     * ParallelRegions with an explicit parallelThreads: the spatial
     * regions the engine partitions into (and the cap on its
     * threads). The default policy (parallelThreads = 0) runs one
     * region and ignores it. Results are bit-identical for any value
     * (like RunConfig::mapperJobs, this never enters memo keys); it
     * only shifts how select/census work is divided. <= 0 means one
     * region.
     */
    int parallelJobs = 4;

    /**
     * ParallelRegions: threads executing the per-region phases.
     * 0 (default) = one region, inline on the calling thread — no
     * program size measured so far runs faster threaded
     * (docs/simulator.md, "Thread policy"). 1 = inline over
     * parallelJobs regions (partition coverage without threads).
     * > 1 = that many threads (at most parallelJobs) as persistent
     * workers, whatever the host: the TSan determinism tests and
     * bench-sim-par's forced rows use this.
     */
    int parallelThreads = 0;

    /** Token-buffer depth (the paper uses 4; Fig. 20 sweeps 4/8/16). */
    int bufferDepth = 4;

    int memBanks = 16;

    /** Cycles from load issue to data availability at the memory PE. */
    int memLatency = 2;

    /** Bypass memory/CF output buffers when downstream is free. */
    bool memBypass = true;

    /** Watchdog bound; exceeding it reports deadlock. */
    int64_t maxCycles = 100'000'000;

    /** Verify the thread-ordering invariant with debug tags. */
    bool checkThreadOrder = true;

    /**
     * Ablation (paper Fig. 9a): let each dispatch gate greedily
     * accept whichever token set it has, with no SyncPlane
     * synchronization. With multi-input threads this violates
     * ordering — the run is expected to corrupt token pairing,
     * which the debug tags catch. For demonstrating why the
     * SyncPlane exists; never enable for real runs.
     */
    bool greedyDispatch = false;

    /** Print every fire to stderr (cycle, node, kind, value). */
    bool trace = false;

    /**
     * Observability hooks (see trace/observer.hh); not owned, must
     * outlive the simulation. Null (the default) costs nothing on
     * the hot paths beyond a pointer test. Observed runs execute on
     * the DenseScan oracle (the engine with the per-fire hooks),
     * whatever the scheduler.
     */
    trace::SimObserver *observer = nullptr;

    /**
     * Time-multiplexing groups (Sec. 6 extension): each inner vector
     * lists node ids sharing one PE; at most one member fires per
     * cycle, and alternating residents costs configuration-switch
     * energy. Residents keep their own architectural state (buffers,
     * gate FSMs); only the functional unit is shared.
     */
    std::vector<std::vector<int>> shareGroups;

    /**
     * Extra latency on one consumer edge: tokens bound for input
     * @c input of node @c node spend @c latency cycles in an
     * inter-tile FIFO channel before landing in the destination
     * buffer. Used by tiled fabrics (fabric::Topology) to model the
     * inter-tile NoC; the channel also bounds in-flight tokens at
     * max(latency, 1), giving boundary links real backpressure.
     * Only supported under destination buffering.
     */
    struct EdgeLatency
    {
        int node = 0;    ///< consumer node id
        int input = 0;   ///< consumer input index
        int latency = 0; ///< cycles in the channel (>= 1)
    };

    std::vector<EdgeLatency> edgeLatencies;
};

struct SimResult
{
    SimStats stats;
    bool deadlocked = false;
    /**
     * The run ended because `maxCycles` elapsed while the fabric was
     * still making progress — a non-terminating (or merely slow)
     * execution, not a quiesced deadlock. Static deadlock
     * certification (analysis/analyzer.hh) says nothing about
     * termination, so cross-checks must exempt this case.
     */
    bool watchdogExpired = false;
    /** Non-empty on deadlock / invariant trouble. */
    std::string diagnostic;
};

struct EngineCounters;

/**
 * Simulate @p graph against @p mem until the fabric drains.
 *
 * @p mem must be at least as large as the addresses the kernel
 * touches; it is mutated in place (compare with the scalar
 * interpreter's image for functional verification). When
 * @p counters is non-null it receives the ParallelRegions engine's
 * choices and counters (left untouched when the run took another
 * engine).
 */
SimResult simulate(const dfg::Graph &graph, MemImage &mem,
                   const SimConfig &config,
                   EngineCounters *counters = nullptr);

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_SIMULATOR_HH
