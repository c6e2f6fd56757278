#include "util/smoothing.hh"

#include <algorithm>

#include "util/logging.hh"

namespace geo {

std::vector<double>
movingAverage(const std::vector<double> &series, size_t window)
{
    if (window == 0)
        panic("movingAverage: window must be >= 1");
    std::vector<double> out;
    out.reserve(series.size());
    double sum = 0.0;
    for (size_t i = 0; i < series.size(); ++i) {
        sum += series[i];
        if (i >= window)
            sum -= series[i - window];
        size_t denom = std::min(i + 1, window);
        out.push_back(sum / static_cast<double>(denom));
    }
    return out;
}

} // namespace geo
