#include "util/random.hh"

#include <cmath>
#include <numbers>

#include "util/logging.hh"

namespace geo {

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : state_)
        word = splitmix64(sm);
}

Rng::result_type
Rng::operator()()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    if (lo > hi)
        panic("uniformInt: lo (%lld) > hi (%lld)",
              static_cast<long long>(lo), static_cast<long long>(hi));
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<int64_t>((*this)());
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = (~0ULL) - ((~0ULL) % span);
    uint64_t draw;
    do {
        draw = (*this)();
    } while (draw >= limit && limit != 0);
    return lo + static_cast<int64_t>(draw % span);
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    double u2 = uniform();
    double radius = std::sqrt(-2.0 * std::log(u1));
    double angle = 2.0 * std::numbers::pi * u2;
    cachedNormal_ = radius * std::sin(angle);
    hasCachedNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double rate)
{
    if (rate <= 0.0)
        panic("exponential: rate must be positive, got %f", rate);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

} // namespace geo
