#include "base/random.hh"

#include "base/logging.hh"

namespace pipestitch {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    ps_assert(bound > 0, "nextBounded requires bound > 0");
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    ps_assert(lo <= hi, "nextRange requires lo <= hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(nextBounded(span));
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace pipestitch
