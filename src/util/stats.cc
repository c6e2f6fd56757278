#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace geo {

void
StatAccumulator::add(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

void
StatAccumulator::merge(const StatAccumulator &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    double delta = other.mean_ - mean_;
    double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
StatAccumulator::reset()
{
    *this = StatAccumulator();
}

double
StatAccumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
StatAccumulator::sampleVariance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
StatAccumulator::stddev() const
{
    return std::sqrt(variance());
}

double
StatAccumulator::min() const
{
    return count_ ? min_ : 0.0;
}

double
StatAccumulator::max() const
{
    return count_ ? max_ : 0.0;
}

void
PercentileTracker::add(double value)
{
    samples_.push_back(value);
    sorted_ = false;
}

double
PercentileTracker::percentile(double p) const
{
    if (samples_.empty())
        panic("percentile of empty tracker");
    if (p < 0.0 || p > 100.0)
        panic("percentile %f out of [0, 100]", p);
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    if (samples_.size() == 1)
        return samples_.front();
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    if (xs.size() != ys.size())
        panic("pearson: size mismatch %zu vs %zu", xs.size(), ys.size());
    size_t n = xs.size();
    if (n < 2)
        return 0.0;
    double mx = mean(xs);
    double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double dx = xs[i] - mx;
        double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double total = 0.0;
    for (double x : xs)
        total += x;
    return total / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    StatAccumulator acc;
    for (double x : xs)
        acc.add(x);
    return acc.stddev();
}

namespace {

/** Collect per-sample absolute relative errors (%) above the floor. */
std::vector<double>
relativeErrors(const std::vector<double> &predictions,
               const std::vector<double> &targets, double floor,
               bool keep_sign)
{
    if (predictions.size() != targets.size())
        panic("relative error: size mismatch %zu vs %zu",
              predictions.size(), targets.size());
    std::vector<double> errors;
    errors.reserve(predictions.size());
    for (size_t i = 0; i < predictions.size(); ++i) {
        double target = targets[i];
        if (std::fabs(target) < floor)
            continue;
        double err = (predictions[i] - target) / std::fabs(target) * 100.0;
        errors.push_back(keep_sign ? err : std::fabs(err));
    }
    return errors;
}

} // namespace

double
meanAbsoluteRelativeError(const std::vector<double> &predictions,
                          const std::vector<double> &targets, double floor)
{
    return mean(relativeErrors(predictions, targets, floor, false));
}

double
stddevAbsoluteRelativeError(const std::vector<double> &predictions,
                            const std::vector<double> &targets, double floor)
{
    return stddev(relativeErrors(predictions, targets, floor, false));
}

double
meanSignedRelativeError(const std::vector<double> &predictions,
                        const std::vector<double> &targets, double floor)
{
    return mean(relativeErrors(predictions, targets, floor, true));
}

} // namespace geo
