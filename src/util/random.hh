/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator takes a Rng (or a seed)
 * explicitly so that experiments are exactly reproducible. The generator
 * is xoshiro256** seeded through SplitMix64, which is fast, has a 256-bit
 * state, and passes BigCrush.
 */

#ifndef GEO_UTIL_RANDOM_HH
#define GEO_UTIL_RANDOM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace geo {

/** SplitMix64 step: used to expand a 64-bit seed into generator state. */
uint64_t splitmix64(uint64_t &state);

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be used
 * with <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller (cached second value). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential with the given rate (lambda > 0). */
    double exponential(double rate);

    /** Log-normal with the given parameters of the underlying normal. */
    double logNormal(double mu, double sigma);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(
                uniformInt(0, static_cast<int64_t>(i) - 1));
            std::swap(items[i - 1], items[j]);
        }
    }

    /**
     * Complete serializable generator state.
     *
     * Restoring a saved State reproduces the exact output stream,
     * including the Box-Muller cached-normal half-step.
     */
    struct State
    {
        std::array<uint64_t, 4> s{};
        double cachedNormal = 0.0;
        bool hasCachedNormal = false;
    };

    State
    state() const
    {
        return {state_, cachedNormal_, hasCachedNormal_};
    }

    void
    setState(const State &state)
    {
        state_ = state.s;
        cachedNormal_ = state.cachedNormal;
        hasCachedNormal_ = state.hasCachedNormal;
    }

  private:
    std::array<uint64_t, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace geo

#endif // GEO_UTIL_RANDOM_HH
