/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * The simulator must be bit-for-bit reproducible across platforms and
 * standard-library versions, so we ship our own xorshift64* generator
 * instead of relying on std::mt19937 distributions (whose results are
 * implementation-defined for some adaptors).
 */

#ifndef VPR_COMMON_RANDOM_HH
#define VPR_COMMON_RANDOM_HH

#include <cstdint>

namespace vpr
{

/**
 * xorshift64* PRNG. Small, fast, and good enough for workload synthesis;
 * not cryptographic.
 */
class Random
{
  public:
    /** Seed must be non-zero; 0 is remapped to a fixed constant. */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next64()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next64() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw: true with probability @p permille / 1000. */
    bool
    chancePermille(unsigned permille)
    {
        return below(1000) < permille;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Reset the internal state. */
    void reseed(std::uint64_t seed) { state = seed ? seed : 1; }

  private:
    std::uint64_t state;
};

/**
 * Derive an independent, well-mixed seed for one named consumer of a
 * run's master seed (SimConfig::seed). Each stochastic component of a
 * simulation (kernel stream, wrong-path synthesis, ...) seeds its own
 * Random from deriveSeed(masterSeed, <component salt>), so components
 * never share a generator and parallel grid cells are reproducible
 * run-to-run. splitmix64 finalizer; never returns 0.
 */
std::uint64_t deriveSeed(std::uint64_t masterSeed, std::uint64_t salt);

} // namespace vpr

#endif // VPR_COMMON_RANDOM_HH
