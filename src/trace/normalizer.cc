#include "trace/normalizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace geo {
namespace trace {

void
MinMaxNormalizer::fit(const nn::Matrix &data)
{
    mins_.clear();
    maxs_.clear();
    update(data);
}

void
MinMaxNormalizer::update(const nn::Matrix &data)
{
    if (data.rows() == 0)
        panic("MinMaxNormalizer: empty data");
    if (mins_.empty()) {
        // Seed with the fold identities so the first *finite* value of
        // each column establishes its range; folding the finite values
        // below then reproduces the plain min/max bit for bit. Seeding
        // from row 0 unconditionally (the old behavior) let a single
        // NaN poison the column range for the rest of the run: every
        // later min/max fold against NaN is NaN.
        mins_.assign(data.cols(),
                     std::numeric_limits<double>::infinity());
        maxs_.assign(data.cols(),
                     -std::numeric_limits<double>::infinity());
    } else if (mins_.size() != data.cols()) {
        panic("MinMaxNormalizer: %zu columns, fitted with %zu", data.cols(),
              mins_.size());
    }
    for (size_t r = 0; r < data.rows(); ++r) {
        for (size_t c = 0; c < data.cols(); ++c) {
            double v = data.at(r, c);
            if (!std::isfinite(v)) {
                ++rejectedNonFinite_;
                continue;
            }
            mins_[c] = std::min(mins_[c], v);
            maxs_[c] = std::max(maxs_[c], v);
        }
    }
}

nn::Matrix
MinMaxNormalizer::transform(const nn::Matrix &data) const
{
    if (!fitted())
        panic("MinMaxNormalizer::transform before fit");
    if (data.cols() != mins_.size())
        panic("MinMaxNormalizer::transform: %zu columns, fitted with %zu",
              data.cols(), mins_.size());
    nn::Matrix out = data;
    for (size_t r = 0; r < data.rows(); ++r)
        for (size_t c = 0; c < data.cols(); ++c)
            out.at(r, c) = value(data.at(r, c), c);
    return out;
}

double
MinMaxNormalizer::value(double raw, size_t col) const
{
    double lo = mins_.at(col);
    double hi = maxs_.at(col);
    if (hi <= lo)
        return 0.5;
    double v = (raw - lo) / (hi - lo);
    return std::clamp(v, 0.0, 1.0);
}

double
MinMaxNormalizer::inverseValue(double normalized, size_t col) const
{
    double lo = mins_.at(col);
    double hi = maxs_.at(col);
    if (hi <= lo)
        return lo;
    return lo + normalized * (hi - lo);
}

} // namespace trace
} // namespace geo
