/**
 * @file
 * Spatial region partitioning for the ParallelRegions scheduler.
 *
 * A Program's fabric is split into K disjoint regions whose
 * select/census phases can execute independently each cycle. For
 * tiled programs (inter-tile channels present) the partition follows
 * the channel cut — regions are whole tiles, grouped to K bins — so
 * region boundaries coincide with the latency-N channels that
 * already decouple the tiles. Single-grid programs are layered with
 * the same BFS-order min-cut growth the tiled mapper uses to
 * partition units across tiles: atomic units (dispatch groups stay
 * whole so one region owns each SyncPlane) are laid out in BFS order
 * over the wire adjacency, cut into K balanced chunks, and refined
 * by moving boundary units toward the region they are most connected
 * to.
 *
 * The partition never affects simulation results — the engine's
 * coordinated commit keeps every job count bit-identical to the
 * DenseScan oracle — it only balances per-region work and, for
 * channel-cut partitions, bounds the lookahead window (see
 * sim/parallel.hh).
 */

#ifndef PIPESTITCH_SIM_REGIONS_HH
#define PIPESTITCH_SIM_REGIONS_HH

#include <string>
#include <vector>

#include "sim/program.hh"

namespace pipestitch::sim {

struct RegionPlan
{
    /** Number of regions (trailing regions may be empty). */
    int count = 1;
    /** Node id -> region index. */
    std::vector<int> regionOf;
    /** Per region: member node ids, ascending. */
    std::vector<std::vector<dfg::NodeId>> nodes;
    /** Partition follows tile/channel boundaries. */
    bool channelCut = false;
    /** Wire (non-channel) edges crossing region boundaries. */
    int cutWires = 0;
    /** Channel edges crossing region boundaries. */
    int cutChannels = 0;
};

/** Partition @p prog 's fabric into (at most) @p jobs regions. */
RegionPlan partitionRegions(const Program &prog, int jobs);

/** Verdict of verifyPartition: ok, or a structured diagnostic
 *  naming every violated invariant and the nodes implicated. */
struct PartitionVerdict
{
    bool ok = true;
    /** Human-readable list of violations, one per line. */
    std::string diagnostic;
    /** Nodes implicated in the violations (split dispatch groups,
     *  endpoints of bad cut edges), deduplicated and ascending. */
    std::vector<dfg::NodeId> violations;
};

/**
 * Check the invariants the ParallelRegions engine relies on:
 *
 *  - plan shape: regionOf covers every node with a region index in
 *    [0, count), and the per-region node lists agree with it;
 *  - dispatch groups are atomic — one region owns each SyncPlane,
 *    so census/select for a group never spans engines;
 *  - every cut channel has latency >= 1 and capacity >= 1, so the
 *    engine's decoupling window (ParallelEngine::windowBound) is
 *    always >= 1;
 *  - the plan's cutWires/cutChannels counters match a recount.
 *
 * partitionRegions output always passes; the check exists to fail
 * loudly (in the engine constructor) if a refactor breaks the
 * contract, and for tests to probe hand-corrupted plans.
 */
PartitionVerdict verifyPartition(const Program &prog,
                                 const RegionPlan &plan);

} // namespace pipestitch::sim

#endif // PIPESTITCH_SIM_REGIONS_HH
