/**
 * @file
 * Mapping DFGs onto the fabric: class-constrained placement plus
 * dimension-ordered routing with link-capacity checking.
 *
 * The paper uses RipTide's SAT-based mapper; we substitute a
 * portfolio of simulated anneals over a congestion-aware wirelength
 * objective with a post-route capacity check (see DESIGN.md
 * "Substitutions"). The evaluation only depends on the mapping
 * through (a) "does the kernel fit", (b) operator counts (Fig. 21),
 * and (c) NoC hop counts feeding the energy model — all of which
 * this mapper provides.
 *
 * The anneal maintains per-node cached partial costs and applies
 * O(degree) deltas per move; `portfolioSeeds` independently-seeded
 * anneals run in lockstep chunks (optionally on a thread pool) and
 * share a best-cost bound for early exit. The winner is chosen by
 * (lowest cost, lowest seed index), so the emitted mapping is
 * bit-identical for any `jobs` value.
 */

#ifndef PIPESTITCH_MAPPER_MAPPER_HH
#define PIPESTITCH_MAPPER_MAPPER_HH

#include <string>
#include <vector>

#include "dfg/graph.hh"
#include "fabric/fabric.hh"

namespace pipestitch::mapper {

struct MapperOptions
{
    /** Base RNG seed; every stochastic choice derives from it. */
    uint64_t rngSeed = 1;

    /** Total anneal budget, split evenly across the portfolio. */
    int annealIterations = 20000;

    double startTemperature = 4.0;

    /** Number of independently-seeded anneal restarts. */
    int portfolioSeeds = 4;

    /** Worker threads for the portfolio (1 = run in-line; clamped
     *  to the host's cores; negative = force that many workers,
     *  bypassing the clamp — for tests). Does not affect the
     *  result, only wall-clock; never part of cache keys. */
    int jobs = 1;

    /** Weight of the link-overload term in the anneal objective. */
    double congestionWeight = 8.0;

    /** Fraction of each anneal's schedule (the cooling tail) that
     *  includes the congestion term; the hotter head optimizes pure
     *  wirelength, which is cheaper per move. */
    double congestionPhase = 0.3;

    /** Max targeted restarts (perturbing only nodes on overloaded
     *  links) before giving up with a structured error. */
    int maxTargetedRestarts = 4;

    /** Cross-check every incremental delta against a from-scratch
     *  recompute (slow; for tests). Never part of cache keys. */
    bool verifyIncremental = false;

    /** Time-multiplexing groups: members share one PE (the first
     *  member is the placement representative). */
    std::vector<std::vector<dfg::NodeId>> shareGroups;

    /**
     * Certified throughput floor in cycles (analysis::computeBound),
     * or 0 when unknown. A DSE driver (runner::Sweep::runPruned)
     * sets this to tell the mapper the graph cannot retire faster
     * than this floor no matter where nodes land: the portfolio
     * trims to a single seed, because polishing wirelength cannot
     * buy cycles the recurrence/dispatch structure already forbids.
     * Default off — standalone mapping quality and the CI mapper
     * cost baseline are unchanged.
     */
    int64_t boundPruneCycles = 0;
};

struct Mapping
{
    bool success = false;
    std::string error;

    /** On failure: the nodes implicated (oversubscribed class or
     *  endpoints of over-capacity links). Empty on success. */
    std::vector<dfg::NodeId> failedNodes;

    /** Node → PE index; -1 for CF-in-NoC nodes and the trigger. */
    std::vector<int> peOf;

    /** CF-in-NoC node → hosting router (PE-grid index); -1 else. */
    std::vector<int> routerOf;

    /** Per (consumer node, input port): route length in mesh hops. */
    std::vector<std::vector<int>> hopsOf;

    int64_t totalWireLength = 0;
    double avgHops = 0;
    int maxLinkLoad = 0;

    /** Anneal objective of the emitted placement:
     *  wirelength + congestionWeight * total link overload. */
    double cost = 0;

    /** Total routed wires above link capacity (0 on success). */
    int64_t congestionOverflow = 0;

    /** Portfolio member that produced the placement (-1 = the
     *  greedy-init incumbent). */
    int winningSeed = -1;

    /** Portfolio members that early-exited because the shared
     *  best-cost bound proved they could not catch the incumbent
     *  in their remaining temperature budget. */
    int seedsEarlyExited = 0;

    /** Portfolio members cut by successive halving at a chunk
     *  barrier (budget reallocation to the leaders, not a
     *  bound-driven proof of hopelessness). */
    int seedsHalved = 0;

    /** Fabric position (grid index) used for a node's traffic. */
    int positionOf(dfg::NodeId id) const;
};

/**
 * Where one mapGraph() call spent its time, phase by phase. An
 * optional out-parameter, never stored in Mapping: the memo keys and
 * the memo disk format do not see it.
 */
struct MapStats
{
    /** Wall-clock per phase, ms. `init` builds the move structure
     *  and the portfolio members' starting placements; `probe` is
     *  the greedy member's basin descent; `anneal` the lockstep
     *  portfolio chunks; `polish` the winner's descent and kicks;
     *  `repair` the congestion check (and repair, when a route
     *  overflows) plus the final route. */
    double initMs = 0;
    double probeMs = 0;
    double annealMs = 0;
    double polishMs = 0;
    double repairMs = 0;

    /** Anneal steps run (portfolio members and repair restarts). */
    int64_t annealSteps = 0;

    /** Moves priced: anneal steps that reached pricing, descent
     *  scans and polish kicks. */
    int64_t movesPriced = 0;
};

/** Place and route @p graph on @p fabric. When @p stats is non-null
 *  it receives the call's per-phase times and move counts. */
Mapping mapGraph(const dfg::Graph &graph,
                 const fabric::Fabric &fabric,
                 const MapperOptions &options = MapperOptions{},
                 MapStats *stats = nullptr);

} // namespace pipestitch::mapper

#endif // PIPESTITCH_MAPPER_MAPPER_HH
