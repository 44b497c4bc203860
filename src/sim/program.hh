/**
 * @file
 * sim::Program — the immutable compiled simulation artifact.
 *
 * A Program captures everything about a finalized dataflow graph and
 * a microarchitecture configuration that does not change between
 * runs: resolved input wiring, the CSR port/consumer layout, the NoC
 * topological order, dispatch-group and
 * share-group membership, thread-region scoping, and the per-node
 * token-buffer layout. Building it is the per-simulation setup the
 * old `simulate()` redid on every call.
 *
 * The contract (see docs/simulator.md):
 *
 *  - a Program is deeply immutable after construction — every member
 *    is written exactly once, in the constructor;
 *  - any number of `ExecutionState`s (execution.hh) may share one
 *    Program concurrently from different threads with no locking;
 *  - all mutable run state (token buffers, gate FSMs, memory image,
 *    stats, observer, the cached engine) lives in ExecutionState.
 *
 * This mirrors the plan/execute split of image-pipeline graph
 * executors: plan once (sizes, cursors, layouts), execute many times
 * with per-execution state.
 */

#ifndef PIPESTITCH_SIM_PROGRAM_HH
#define PIPESTITCH_SIM_PROGRAM_HH

#include <memory>
#include <vector>

#include "dfg/graph.hh"
#include "sim/simulator.hh"

namespace pipestitch::sim {

/** Resolved wiring of one input port. */
struct InputRef
{
    bool isImm = false;
    Word imm = 0;
    dfg::NodeId prod = dfg::NoNode;
    int prodPort = 0;
    int endpoint = 0; ///< index into producer port's consumer list
    bool wired() const { return prod != dfg::NoNode; }
};

class Program
{
  public:
    /**
     * Build the immutable artifact for @p graph under @p config.
     * @p graph must be finalized and must outlive the Program (pass
     * an owning pointer, or a non-owning aliasing pointer when the
     * caller guarantees the lifetime, as `simulate()` does).
     *
     * The per-run fields of @p config (`observer`, `trace`) are
     * stripped — they belong to ExecutionState::run() — so Programs
     * built from configs differing only in observability compare
     * and behave identically.
     */
    Program(std::shared_ptr<const dfg::Graph> graph,
            const SimConfig &config);

    const dfg::Graph &graph() const { return *graphHold; }
    const std::shared_ptr<const dfg::Graph> &graphPtr() const
    {
        return graphHold;
    }
    const SimConfig &config() const { return cfg; }

    /** Per-node token-buffer layout (0 = no FIFOs on that side). */
    struct NodePlan
    {
        int insDepth = 0;
        int outsDepth = 0;
    };

    // ----------------------------------------------------------------
    // Immutable tables. Public for the engine's hot paths; written
    // only by the constructor. Always access through `const Program&`.
    // ----------------------------------------------------------------
    SimConfig cfg;    ///< observer/trace stripped
    bool sourceMode;  ///< buffering == Source

    std::vector<std::vector<InputRef>> inputRefs; // [node][in]
    std::vector<NodePlan> plan;                   // [node]
    std::vector<int> threadRegionOf; ///< nearest threaded loop (-1)

    std::vector<dfg::NodeId> nocTopo;
    std::vector<int> topoIndex; ///< position in nocTopo (-1 = PE)
    std::vector<uint8_t> nocNode;

    std::vector<std::vector<dfg::NodeId>> dispatchGroups; // by loopId
    std::vector<int> gateLoop; ///< dispatch gate -> loopId (-1)

    // Time-multiplexing: node -> share group (-1 = exclusive PE).
    std::vector<int> shareGroupOf;

    // Consumer adjacency as CSR offsets: the consumer edges of output
    // port p of node n are positions
    //   consBase[portBase[n]+p] .. consBase[portBase[n]+p+1]
    // in graph().consumersOf({n, p}) order.
    std::vector<int> portBase;
    std::vector<int> consBase;

    std::vector<dfg::NodeId> allSeqNodes; ///< PE nodes, ascending id

    int triggersTotal = 0;

    /**
     * Inter-tile FIFO channel on one consumer edge (from
     * SimConfig::edgeLatencies): tokens spend `latency` cycles in
     * the channel before landing in the consumer's input buffer, and
     * the producer backpressures on channel occupancy (capacity =
     * max(latency, 1)) instead of the destination FIFO.
     */
    struct Channel
    {
        dfg::NodeId src = dfg::NoNode;
        int srcPort = 0;
        dfg::NodeId dst = dfg::NoNode;
        int dstIn = 0;
        int latency = 1;
        int capacity = 1;
    };

    std::vector<Channel> channels;
    std::vector<std::vector<int>> chanIdOf; ///< [node][in] (-1 = none)
    bool hasChannels = false;

  private:
    std::shared_ptr<const dfg::Graph> graphHold;
};

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_PROGRAM_HH
