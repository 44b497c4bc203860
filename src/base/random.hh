/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic inputs in the repository (sparse matrices, synthetic
 * images, DNN weights) are drawn from this generator so that every
 * experiment is exactly reproducible from a seed.
 */

#ifndef PIPESTITCH_BASE_RANDOM_HH
#define PIPESTITCH_BASE_RANDOM_HH

#include <cstdint>

namespace pipestitch {

/**
 * SplitMix64-seeded xoshiro256** generator.
 *
 * Small, fast, and statistically solid for workload generation; not
 * for cryptographic use.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. Inline (with nextDouble): the
     *  mapper's anneal draws several values per move. */
    uint64_t
    next()
    {
        uint64_t result = rotl(s[1] * 5, 7) * 9;
        uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) ; bound must be > 0. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s[4];
};

} // namespace pipestitch

#endif // PIPESTITCH_BASE_RANDOM_HH
