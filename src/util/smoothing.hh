/**
 * @file
 * Series smoothing used by the Interface Daemon (paper Section V-E).
 *
 * The paper removes small variations from ReplayDB training data with a
 * moving average and rejects the cumulative average because it erases
 * the short-term dips that signal an incoming slowdown.
 */

#ifndef GEO_UTIL_SMOOTHING_HH
#define GEO_UTIL_SMOOTHING_HH

#include <cstddef>
#include <vector>

namespace geo {

/**
 * Trailing moving average over the last `window` samples.
 *
 * Output i is the mean of inputs max(0, i-window+1) .. i, so the series
 * keeps its length and early samples are averaged over a shorter prefix.
 */
std::vector<double> movingAverage(const std::vector<double> &series,
                                  size_t window);

} // namespace geo

#endif // GEO_UTIL_SMOOTHING_HH
