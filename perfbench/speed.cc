#include "speed.hh"

#include <algorithm>

namespace perfbench {

namespace {

constexpr size_t kDim = 64; ///< kDim^3 multiply-adds per kernel

} // namespace

SpeedProbe::SpeedProbe()
    : a_(kDim * kDim), b_(kDim * kDim), c_(kDim * kDim), at_(Clock::now())
{
    for (size_t i = 0; i < a_.size(); ++i) {
        a_[i] = 1.0 + static_cast<double>(i % 7) * 1e-3;
        b_[i] = 1.0 - static_cast<double>(i % 5) * 1e-3;
    }
}

double
SpeedProbe::kernel()
{
    Clock::time_point start = Clock::now();
    std::fill(c_.begin(), c_.end(), 0.0);
    for (size_t i = 0; i < kDim; ++i)
        for (size_t k = 0; k < kDim; ++k) {
            double x = a_[i * kDim + k];
            for (size_t j = 0; j < kDim; ++j)
                c_[i * kDim + j] += x * b_[k * kDim + j];
        }
    double ms = msSince(start);
    // Feed the result back so the work cannot be elided.
    a_[0] = 1.0 + (c_[kDim + 1] > 0.0 ? 1e-12 : 0.0);
    return ms;
}

double
SpeedProbe::measure()
{
    double best = kernel();
    for (int rep = 0; rep < 2; ++rep)
        best = std::min(best, kernel());
    at_ = Clock::now();
    history_.push_back(best);
    return best;
}

} // namespace perfbench
