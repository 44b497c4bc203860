#include "fabric/fabric.hh"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "base/logging.hh"

namespace pipestitch::fabric {

namespace {

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

} // namespace

bool
FabricConfig::validate(std::string *error) const
{
    if (width < 1 || height < 1)
        return fail(error,
                    csprintf("fabric: grid %dx%d must be at least "
                             "1x1", width, height));
    if (peMix.size() != 5)
        return fail(error,
                    csprintf("fabric: peMix has %zu entries, "
                             "expected 5 (arith:mult:cf:mem:stream)",
                             peMix.size()));
    int total = 0;
    for (int c : peMix) {
        if (c < 0)
            return fail(error, "fabric: peMix entries must be "
                               "non-negative");
        total += c;
    }
    if (total != numPes())
        return fail(error,
                    csprintf("fabric: peMix sums to %d but the "
                             "%dx%d grid has %d positions",
                             total, width, height, numPes()));
    if (routerCfCapacity < 0)
        return fail(error, "fabric: routerCfCapacity must be >= 0");
    if (linkCapacity < 1)
        return fail(error, "fabric: linkCapacity must be >= 1");
    if (memBytes < 1)
        return fail(error, "fabric: memBytes must be >= 1");
    if (memBanks < 1)
        return fail(error, "fabric: memBanks must be >= 1");
    if (clockMHz <= 0.0)
        return fail(error, "fabric: clockMHz must be positive");
    return true;
}

std::vector<int>
scaleMixFor(int width, int height)
{
    const FabricConfig def;
    const int defPes = def.numPes();
    const int n = width * height;
    std::vector<int> mix(5, 0);
    std::vector<int> rem(5, 0);
    int placed = 0;
    for (size_t i = 0; i < 5; i++) {
        int num = def.peMix[i] * n;
        mix[i] = num / defPes;
        rem[i] = num % defPes;
        placed += mix[i];
    }
    // Largest-remainder apportionment; ties favor the lower class
    // index so the result is deterministic.
    for (int extra = n - placed; extra > 0; extra--) {
        size_t best = 0;
        for (size_t i = 1; i < 5; i++) {
            if (rem[i] > rem[best])
                best = i;
        }
        mix[best]++;
        rem[best] = -1;
    }
    return mix;
}

FabricConfig
Topology::globalConfig() const
{
    FabricConfig g = tile;
    g.width = totalWidth();
    g.height = totalHeight();
    for (int &c : g.peMix)
        c *= numTiles();
    g.memBytes = tile.memBytes * numTiles();
    g.memBanks = tile.memBanks * numTiles();
    return g;
}

bool
Topology::validate(std::string *error) const
{
    if (tilesX < 1 || tilesY < 1)
        return fail(error,
                    csprintf("fabric: tile grid %dx%d must be at "
                             "least 1x1", tilesX, tilesY));
    if (interTileLatency < 1)
        return fail(error, "fabric: interTileLatency must be >= 1");
    if (interTileCapacity < 1)
        return fail(error, "fabric: interTileCapacity must be >= 1");
    return tile.validate(error);
}

namespace {

bool
parseIntField(const std::string &s, const char *what, int &out,
              std::string *error)
{
    if (s.empty() ||
        s.find_first_not_of("0123456789") != std::string::npos) {
        fail(error, csprintf("fabric spec: bad %s '%s' (expected a "
                             "positive integer)", what, s.c_str()));
        return false;
    }
    out = std::atoi(s.c_str());
    return true;
}

bool
parseDims(const std::string &s, const char *what, int &w, int &h,
          std::string *error)
{
    size_t x = s.find('x');
    if (x == std::string::npos || x == 0 || x + 1 == s.size()) {
        fail(error, csprintf("fabric spec: bad %s '%s' (expected "
                             "WxH)", what, s.c_str()));
        return false;
    }
    return parseIntField(s.substr(0, x), what, w, error) &&
           parseIntField(s.substr(x + 1), what, h, error);
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    size_t start = 0;
    while (true) {
        size_t pos = s.find(sep, start);
        parts.push_back(s.substr(start, pos - start));
        if (pos == std::string::npos)
            break;
        start = pos + 1;
    }
    return parts;
}

} // namespace

bool
parseFabricSpec(const std::string &spec, Topology &out,
                std::string *error)
{
    std::vector<std::string> parts = splitOn(spec, ',');
    Topology topo;
    if (!parseDims(parts[0], "grid", topo.tile.width,
                   topo.tile.height, error))
        return false;
    bool mixGiven = false;
    for (size_t i = 1; i < parts.size(); i++) {
        const std::string &p = parts[i];
        size_t eq = p.find('=');
        if (eq == std::string::npos)
            return fail(error,
                        csprintf("fabric spec: expected key=value, "
                                 "got '%s'", p.c_str()));
        std::string key = p.substr(0, eq);
        std::string val = p.substr(eq + 1);
        if (key == "tiles") {
            if (!parseDims(val, "tiles", topo.tilesX, topo.tilesY,
                           error))
                return false;
        } else if (key == "cap") {
            if (!parseIntField(val, "cap", topo.interTileCapacity,
                               error))
                return false;
        } else if (key == "lat") {
            if (!parseIntField(val, "lat", topo.interTileLatency,
                               error))
                return false;
        } else if (key == "mix") {
            std::vector<std::string> fields = splitOn(val, ':');
            if (fields.size() != 5)
                return fail(error,
                            csprintf("fabric spec: mix '%s' has %zu "
                                     "fields, expected 5 "
                                     "(arith:mult:cf:mem:stream)",
                                     val.c_str(), fields.size()));
            topo.tile.peMix.assign(5, 0);
            for (size_t f = 0; f < 5; f++) {
                if (!parseIntField(fields[f], "mix",
                                   topo.tile.peMix[f], error))
                    return false;
            }
            mixGiven = true;
        } else {
            return fail(error,
                        csprintf("fabric spec: unknown key '%s' "
                                 "(expected tiles/cap/lat/mix)",
                                 key.c_str()));
        }
    }
    if (!mixGiven)
        topo.tile.peMix = scaleMixFor(topo.tile.width,
                                      topo.tile.height);
    if (!topo.validate(error))
        return false;
    out = topo;
    return true;
}

std::vector<PeClass>
Fabric::layoutClasses(const FabricConfig &config)
{
    int total = 0;
    for (int c : config.peMix)
        total += c;
    ps_assert(total == config.numPes(),
              "PE mix sums to %d but the grid has %d positions",
              total, config.numPes());

    // Lay out the fabric: memory PEs fill the left columns (adjacent
    // to the SRAM banks), stream PEs take the top-right corner, the
    // two multipliers sit centrally, and arith/CF interleave over
    // the remainder.
    std::vector<PeClass> classes(
        static_cast<size_t>(config.numPes()), PeClass::Arith);
    std::vector<bool> used(static_cast<size_t>(config.numPes()),
                           false);

    auto peAt = [&](Coord c) { return c.y * config.width + c.x; };
    auto place = [&](PeClass c, int pe) {
        classes[static_cast<size_t>(pe)] = c;
        used[static_cast<size_t>(pe)] = true;
    };

    int remainingMem =
        config.peMix[static_cast<size_t>(PeClass::Memory)];
    for (int x = 0; x < config.width && remainingMem > 0; x++) {
        for (int y = 0; y < config.height && remainingMem > 0; y++) {
            place(PeClass::Memory, peAt({x, y}));
            remainingMem--;
        }
    }
    int remainingStream =
        config.peMix[static_cast<size_t>(PeClass::Stream)];
    for (int y = 0; y < config.height && remainingStream > 0; y++) {
        int pe = peAt({config.width - 1, y});
        if (!used[static_cast<size_t>(pe)]) {
            place(PeClass::Stream, pe);
            remainingStream--;
        }
    }
    int remainingMul =
        config.peMix[static_cast<size_t>(PeClass::Multiplier)];
    for (int y = config.height / 2;
         y < config.height && remainingMul > 0; y++) {
        int pe = peAt({config.width / 2, y});
        if (!used[static_cast<size_t>(pe)]) {
            place(PeClass::Multiplier, pe);
            remainingMul--;
        }
    }
    // Interleave CF and arith over what is left, CF first (they are
    // the most numerous and benefit from even spread).
    int remainingCf =
        config.peMix[static_cast<size_t>(PeClass::ControlFlow)];
    int remainingArith =
        config.peMix[static_cast<size_t>(PeClass::Arith)];
    bool takeCf = true;
    for (int pe = 0; pe < config.numPes(); pe++) {
        if (used[static_cast<size_t>(pe)])
            continue;
        if ((takeCf && remainingCf > 0) || remainingArith == 0) {
            place(PeClass::ControlFlow, pe);
            remainingCf--;
        } else {
            place(PeClass::Arith, pe);
            remainingArith--;
        }
        takeCf = !takeCf;
    }
    // Dense corner fills can leave a class short on small or skewed
    // grids (e.g. more stream PEs than rows); fall back to any free
    // slot so every requested PE lands somewhere.
    for (int pe = 0;
         pe < config.numPes() &&
         (remainingMem > 0 || remainingStream > 0 ||
          remainingMul > 0);
         pe++) {
        if (used[static_cast<size_t>(pe)])
            continue;
        if (remainingMem > 0) {
            place(PeClass::Memory, pe);
            remainingMem--;
        } else if (remainingStream > 0) {
            place(PeClass::Stream, pe);
            remainingStream--;
        } else {
            place(PeClass::Multiplier, pe);
            remainingMul--;
        }
    }
    ps_assert(remainingCf == 0 && remainingArith == 0 &&
                  remainingMem == 0 && remainingStream == 0 &&
                  remainingMul == 0,
              "fabric layout failed to place all PEs");
    return classes;
}

Fabric::Fabric(const FabricConfig &config)
    : topo{config, 1, 1}, cfg(config),
      classes(layoutClasses(config))
{
    byClass.assign(5, {});
    for (int pe = 0; pe < cfg.numPes(); pe++) {
        byClass[static_cast<size_t>(classes[static_cast<size_t>(pe)])]
            .push_back(pe);
    }
}

Fabric::Fabric(const Topology &topology)
    : topo(topology), cfg(topo.globalConfig())
{
    std::vector<PeClass> tileClasses = layoutClasses(topo.tile);
    classes.resize(static_cast<size_t>(cfg.numPes()));
    for (int pe = 0; pe < cfg.numPes(); pe++) {
        Coord c = coordOf(pe);
        int local = (c.y % topo.tile.height) * topo.tile.width +
                    (c.x % topo.tile.width);
        classes[static_cast<size_t>(pe)] =
            tileClasses[static_cast<size_t>(local)];
    }
    byClass.assign(5, {});
    for (int pe = 0; pe < cfg.numPes(); pe++) {
        byClass[static_cast<size_t>(classes[static_cast<size_t>(pe)])]
            .push_back(pe);
    }
}

PeClass
Fabric::classAt(int pe) const
{
    return classes[static_cast<size_t>(pe)];
}

Coord
Fabric::coordOf(int pe) const
{
    return {pe % cfg.width, pe / cfg.width};
}

int
Fabric::peAt(Coord c) const
{
    return c.y * cfg.width + c.x;
}

int
Fabric::tileOfPe(int pe) const
{
    Coord c = coordOf(pe);
    return (c.y / topo.tile.height) * topo.tilesX +
           (c.x / topo.tile.width);
}

Coord
Fabric::tileOrigin(int t) const
{
    return {(t % topo.tilesX) * topo.tile.width,
            (t / topo.tilesX) * topo.tile.height};
}

const std::vector<int> &
Fabric::pesOfClass(PeClass c) const
{
    return byClass[static_cast<size_t>(c)];
}

std::string
Fabric::describe() const
{
    std::ostringstream out;
    for (int y = cfg.height - 1; y >= 0; y--) {
        for (int x = 0; x < cfg.width; x++) {
            switch (classAt(peAt({x, y}))) {
              case PeClass::Arith: out << 'A'; break;
              case PeClass::Multiplier: out << 'X'; break;
              case PeClass::ControlFlow: out << 'C'; break;
              case PeClass::Memory: out << 'M'; break;
              case PeClass::Stream: out << 'S'; break;
            }
            out << ' ';
        }
        out << '\n';
    }
    return out.str();
}

} // namespace pipestitch::fabric
