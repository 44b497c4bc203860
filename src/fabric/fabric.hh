/**
 * @file
 * CGRA fabric description: the 8×8 grid of heterogeneous PEs with
 * the paper's PE mix (16 arith, 2 multiply, 28 control-flow,
 * 14 memory, 4 stream — Sec. 5.1), plus the NoC topology used by
 * the mapper.
 *
 * The fabric generalizes from one monolithic grid to a *grid of
 * tiles* (fabric::Topology): TX×TY identical tiles, each a
 * FabricConfig, stitched by inter-tile links with their own
 * capacity and latency. A 1×1 topology is exactly the legacy
 * single-grid fabric — same layout, same PE indices, same stats.
 */

#ifndef PIPESTITCH_FABRIC_FABRIC_HH
#define PIPESTITCH_FABRIC_FABRIC_HH

#include <cstdlib>
#include <string>
#include <vector>

#include "dfg/node.hh"

namespace pipestitch::fabric {

using dfg::PeClass;

/** Grid coordinates. */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord &other) const = default;
};

/** Manhattan distance (the NoC is a 2-D mesh). Inline: the
 *  mapper's move pricing calls it several times per anneal step. */
inline int
manhattan(Coord a, Coord b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

struct FabricConfig
{
    int width = 8;
    int height = 8;

    /** PE count per dfg::PeClass (Arith, Mult, CF, Mem, Stream). */
    std::vector<int> peMix = {16, 2, 28, 14, 4};

    /** Control-flow ops one router can absorb (CF-in-NoC). */
    int routerCfCapacity = 2;

    /** Wires per mesh link direction (routing capacity). The
     *  statically-routed NoC must fit all circuit-switched routes;
     *  8 channels absorb the CF-in-NoC hotspots of the largest
     *  kernels (SpMSpMd). */
    int linkCapacity = 8;

    /** Scratchpad size (bytes) and banking. */
    int64_t memBytes = 256 * 1024;
    int memBanks = 16;

    double clockMHz = 50.0;

    int numPes() const { return width * height; }

    /** Structural validation: positive dimensions/capacities and a
     *  peMix of exactly 5 entries summing to width*height. Returns
     *  false and fills @p error with a structured message on the
     *  first violation. */
    bool validate(std::string *error = nullptr) const;

    bool operator==(const FabricConfig &other) const = default;
};

/** Scale the default 8×8 PE mix to a w×h grid by largest-remainder
 *  apportionment (ties go to the lower class index). Exact for 8×8:
 *  returns the paper's {16, 2, 28, 14, 4}. */
std::vector<int> scaleMixFor(int width, int height);

/**
 * A grid of tiles: tilesX × tilesY replicas of one per-tile
 * FabricConfig, joined by inter-tile links. Inter-tile links are
 * wider-reach but slower — crossing a tile boundary costs
 * interTileLatency cycles and each boundary link carries at most
 * interTileCapacity circuit-switched routes.
 */
struct Topology
{
    FabricConfig tile;
    int tilesX = 1;
    int tilesY = 1;

    /** Cycles a token spends crossing a tile boundary. */
    int interTileLatency = 4;

    /** Circuit-switched routes one boundary link can carry. */
    int interTileCapacity = 4;

    int numTiles() const { return tilesX * tilesY; }
    bool singleTile() const { return numTiles() == 1; }

    int totalWidth() const { return tile.width * tilesX; }
    int totalHeight() const { return tile.height * tilesY; }

    /** The flattened whole-fabric config: one grid covering every
     *  tile (peMix/memBytes/memBanks scaled by numTiles). For a 1×1
     *  topology this is exactly the tile config. */
    FabricConfig globalConfig() const;

    /** Tile and global validation in one pass. */
    bool validate(std::string *error = nullptr) const;

    bool operator==(const Topology &other) const = default;
};

/**
 * Parse a fabric spec string shared by every pstool subcommand:
 *
 *   WxH[,tiles=TXxTY][,cap=N][,lat=N][,mix=a:m:c:me:s]
 *
 * e.g. "8x8", "4x4,tiles=2x2", "8x8,tiles=1x2,cap=2,lat=8",
 * "4x4,mix=4:1:7:3:1". Omitted peMix is scaled from the paper's 8×8
 * mix via scaleMixFor. Returns false with a structured @p error on
 * malformed input or failed validation.
 */
bool parseFabricSpec(const std::string &spec, Topology &out,
                     std::string *error);

/**
 * A concrete fabric: PE classes assigned to grid positions.
 *
 * Memory PEs sit on the left columns (near the SRAM macros), stream
 * and multiply PEs are distributed, and the rest of the grid
 * alternates arith and control-flow PEs — mirroring the floorplan
 * style of RipTide-class fabrics. A tiled fabric replicates the
 * single-tile layout into every tile, so each tile is floorplanned
 * identically.
 */
class Fabric
{
  public:
    explicit Fabric(const FabricConfig &config = FabricConfig{});
    explicit Fabric(const Topology &topology);

    /** The flattened whole-fabric config (tiles merged). */
    const FabricConfig &config() const { return cfg; }

    const Topology &topology() const { return topo; }

    int numPes() const { return cfg.numPes(); }

    PeClass classAt(int pe) const;
    Coord coordOf(int pe) const;
    int peAt(Coord c) const;

    /** Tile index (row-major over the tile grid) owning @p pe. */
    int tileOfPe(int pe) const;

    /** Grid coordinate of tile @p t's origin (lower-left PE). */
    Coord tileOrigin(int t) const;

    /** All PE indices of one class. */
    const std::vector<int> &pesOfClass(PeClass c) const;

    std::string describe() const;

  private:
    static std::vector<PeClass>
    layoutClasses(const FabricConfig &config);

    Topology topo;                              // tile structure
    FabricConfig cfg;                           // flattened grid
    std::vector<PeClass> classes;               // per PE
    std::vector<std::vector<int>> byClass;      // per PeClass
};

} // namespace pipestitch::fabric

#endif // PIPESTITCH_FABRIC_FABRIC_HH
