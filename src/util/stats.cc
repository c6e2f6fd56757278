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

double
StatAccumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
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

void
RelativeErrorAccumulator::add(double prediction, double target)
{
    if (std::fabs(target) < floor_)
        return;
    double err = (prediction - target) / std::fabs(target) * 100.0;
    ++count_;
    signedSum_ += err;
    absoluteSum_ += std::fabs(err);
    absolute_.add(std::fabs(err));
}

double
RelativeErrorAccumulator::meanAbsolute() const
{
    return count_ ? absoluteSum_ / static_cast<double>(count_) : 0.0;
}

double
RelativeErrorAccumulator::meanSigned() const
{
    return count_ ? signedSum_ / static_cast<double>(count_) : 0.0;
}

namespace {

RelativeErrorAccumulator
relativeErrors(const std::vector<double> &predictions,
               const std::vector<double> &targets, double floor)
{
    if (predictions.size() != targets.size())
        panic("relative error: size mismatch %zu vs %zu",
              predictions.size(), targets.size());
    RelativeErrorAccumulator errors(floor);
    for (size_t i = 0; i < predictions.size(); ++i)
        errors.add(predictions[i], targets[i]);
    return errors;
}

} // namespace

double
meanAbsoluteRelativeError(const std::vector<double> &predictions,
                          const std::vector<double> &targets, double floor)
{
    return relativeErrors(predictions, targets, floor).meanAbsolute();
}

double
stddevAbsoluteRelativeError(const std::vector<double> &predictions,
                            const std::vector<double> &targets, double floor)
{
    return relativeErrors(predictions, targets, floor).stddevAbsolute();
}

double
meanSignedRelativeError(const std::vector<double> &predictions,
                        const std::vector<double> &targets, double floor)
{
    return relativeErrors(predictions, targets, floor).meanSigned();
}

} // namespace geo
