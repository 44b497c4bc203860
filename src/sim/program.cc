#include "sim/program.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dfg/analysis.hh"

namespace pipestitch::sim {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::NodeKind;
using dfg::Operand;

namespace {

/** Destination-buffered mode: only CF-on-PE and memory PEs carry
 *  output buffers (Sec. 4.7); everything else delivers directly. */
bool
nodeHasOutBufs(const Node &node)
{
    return node.isControlFlow() || node.isMemory();
}

} // namespace

Program::Program(std::shared_ptr<const dfg::Graph> graph,
                 const SimConfig &config)
    : cfg(config), graphHold(std::move(graph))
{
    ps_assert(graphHold != nullptr, "Program needs a graph");
    const Graph &g = *graphHold;
    ps_assert(g.isFinalized(), "graph must be finalized");
    ps_assert(cfg.bufferDepth >= 1, "buffer depth must be >= 1");

    // Per-run observability belongs to ExecutionState::run(); strip
    // it so Programs are deeply immutable and freely shareable.
    cfg.observer = nullptr;
    cfg.trace = false;

    sourceMode = cfg.buffering == SimConfig::Buffering::Source;

    for (const auto &node : g.nodes) {
        if (node.kind == NodeKind::Dispatch) {
            // Bubble flow control reserves two output slots for a
            // spawn set; shallower buffers could never launch a
            // thread (Sec. 4.4).
            ps_assert(cfg.bufferDepth >= 2,
                      "threaded graphs need buffer depth >= 2");
            break;
        }
    }

    const int n = g.size();
    inputRefs.resize(static_cast<size_t>(n));
    plan.resize(static_cast<size_t>(n));
    threadRegionOf.assign(static_cast<size_t>(n), -1);
    nocNode.assign(static_cast<size_t>(n), 0);

    // Resolve input wiring and endpoint indices. Endpoint index =
    // position in the producer port's consumer list.
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        auto &refs = inputRefs[static_cast<size_t>(id)];
        refs.resize(static_cast<size_t>(node.numInputs()));
        for (int i = 0; i < node.numInputs(); i++) {
            const Operand &op = node.inputs[static_cast<size_t>(i)];
            InputRef &ref = refs[static_cast<size_t>(i)];
            if (op.isImm()) {
                ref.isImm = true;
                ref.imm = op.imm;
            } else if (op.isWire()) {
                ref.prod = op.port.node;
                ref.prodPort = op.port.index;
                const auto &cons = g.consumersOf(op.port);
                for (size_t e = 0; e < cons.size(); e++) {
                    if (cons[e].node == id && cons[e].inputIndex == i)
                        ref.endpoint = static_cast<int>(e);
                }
            }
        }
    }

    // Buffer layout plan (ExecutionState materializes the FIFOs).
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        NodePlan &p = plan[static_cast<size_t>(id)];
        nocNode[static_cast<size_t>(id)] = node.cfInNoc ? 1 : 0;
        if (node.cfInNoc) {
            if (sourceMode) {
                // Flow-through relay: a shallow window consumers
                // pull from (the op itself is combinational).
                p.outsDepth = 2;
            } else {
                // Flow-through relay: tokens logically wait at the
                // upstream PE/wire interface until the router op can
                // pair them; modeled as input windows of the global
                // buffer depth, with direct delivery downstream.
                p.insDepth = cfg.bufferDepth;
            }
        } else if (sourceMode) {
            p.outsDepth = cfg.bufferDepth;
        } else {
            p.insDepth = cfg.bufferDepth;
            if (nodeHasOutBufs(node))
                p.outsDepth = cfg.bufferDepth;
        }
        // Nearest enclosing threaded loop (for debug-tag scoping).
        int l = node.loopId;
        while (l >= 0) {
            if (g.loopThreaded[static_cast<size_t>(l)]) {
                threadRegionOf[static_cast<size_t>(id)] = l;
                break;
            }
            l = g.loopParent[static_cast<size_t>(l)];
        }
    }

    nocTopo = dfg::nocCfTopoOrder(g);
    topoIndex.assign(static_cast<size_t>(n), -1);
    for (size_t i = 0; i < nocTopo.size(); i++)
        topoIndex[static_cast<size_t>(nocTopo[i])] =
            static_cast<int>(i);

    dispatchGroups.assign(static_cast<size_t>(g.numLoops), {});
    gateLoop.assign(static_cast<size_t>(n), -1);
    for (NodeId id = 0; id < n; id++) {
        const Node &node = g.at(id);
        if (node.kind == NodeKind::Dispatch) {
            dispatchGroups[static_cast<size_t>(node.loopId)].push_back(
                id);
            gateLoop[static_cast<size_t>(id)] = node.loopId;
        }
    }

    shareGroupOf.assign(static_cast<size_t>(n), -1);
    for (size_t gi = 0; gi < cfg.shareGroups.size(); gi++) {
        for (int id : cfg.shareGroups[gi]) {
            ps_assert(id >= 0 && id < n, "bad share-group node");
            ps_assert(shareGroupOf[static_cast<size_t>(id)] == -1,
                      "node %d in two share groups", id);
            shareGroupOf[static_cast<size_t>(id)] =
                static_cast<int>(gi);
        }
    }

    // Consumer adjacency as CSR offsets.
    portBase.assign(static_cast<size_t>(n) + 1, 0);
    for (NodeId id = 0; id < n; id++) {
        portBase[static_cast<size_t>(id) + 1] =
            portBase[static_cast<size_t>(id)] +
            g.at(id).numOutputs();
    }
    consBase.assign(static_cast<size_t>(portBase.back()) + 1, 0);
    for (NodeId id = 0; id < n; id++) {
        for (int port = 0; port < g.at(id).numOutputs(); port++) {
            consBase[static_cast<size_t>(portBase[static_cast<size_t>(
                         id)] + port) + 1] =
                static_cast<int>(g.consumersOf({id, port}).size());
        }
    }
    for (size_t i = 1; i < consBase.size(); i++)
        consBase[i] += consBase[i - 1];

    for (NodeId id = 0; id < n; id++) {
        if (!nocNode[static_cast<size_t>(id)])
            allSeqNodes.push_back(id);
        if (g.at(id).kind == NodeKind::Trigger)
            triggersTotal++;
    }

    // Inter-tile FIFO channels (tiled fabrics). Each entry turns one
    // consumer edge into a latency-N channel; see execution.cc
    // advanceChannels().
    chanIdOf.resize(static_cast<size_t>(n));
    for (NodeId id = 0; id < n; id++) {
        chanIdOf[static_cast<size_t>(id)].assign(
            static_cast<size_t>(g.at(id).numInputs()), -1);
    }
    for (const SimConfig::EdgeLatency &el : cfg.edgeLatencies) {
        ps_assert(!sourceMode, "inter-tile channels require "
                               "destination buffering");
        ps_assert(el.node >= 0 && el.node < n,
                  "edge latency names node %d outside the graph",
                  el.node);
        const Node &node = g.at(el.node);
        ps_assert(el.input >= 0 && el.input < node.numInputs(),
                  "edge latency names input %d of node %d (has %d)",
                  el.input, el.node, node.numInputs());
        const InputRef &ref =
            inputRefs[static_cast<size_t>(el.node)]
                     [static_cast<size_t>(el.input)];
        ps_assert(ref.wired(),
                  "edge latency on unwired input %d of node %d",
                  el.input, el.node);
        ps_assert(el.latency >= 1, "edge latency must be >= 1");
        int &slot = chanIdOf[static_cast<size_t>(el.node)]
                            [static_cast<size_t>(el.input)];
        ps_assert(slot == -1, "duplicate edge latency on node %d "
                              "input %d", el.node, el.input);
        Channel ch;
        ch.src = ref.prod;
        ch.srcPort = ref.prodPort;
        ch.dst = el.node;
        ch.dstIn = el.input;
        ch.latency = el.latency;
        ch.capacity = std::max(el.latency, 1);
        slot = static_cast<int>(channels.size());
        channels.push_back(ch);
        hasChannels = true;
    }
}

} // namespace pipestitch::sim
