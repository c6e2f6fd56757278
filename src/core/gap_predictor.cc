#include "core/gap_predictor.hh"

#include <algorithm>

namespace geo {
namespace core {

namespace {

/** Observed gaps needed before predicting. */
constexpr size_t kMinGapSamples = 4;
/** Accesses of a file consulted per prediction. */
constexpr size_t kHistoryPerFile = 64;
/** EWMA smoothing factor over successive gaps (newest weighted). */
constexpr double kGapAlpha = 0.3;

} // namespace

GapPredictor::GapPredictor(const ReplayDb &db) : db_(db) {}

std::optional<GapPrediction>
GapPredictor::predict(storage::FileId file) const
{
    std::vector<PerfRecord> history =
        db_.recentAccessesForFile(file, kHistoryPerFile);
    if (history.size() < 2)
        return std::nullopt;

    GapPrediction prediction;
    double ewma = 0.0;
    bool first = true;
    for (size_t i = 1; i < history.size(); ++i) {
        double open_i = static_cast<double>(history[i].ots) +
                        static_cast<double>(history[i].otms) / 1000.0;
        double close_prev =
            static_cast<double>(history[i - 1].cts) +
            static_cast<double>(history[i - 1].ctms) / 1000.0;
        double gap = open_i - close_prev;
        if (gap < 0.0)
            gap = 0.0; // overlapping concurrent accesses
        if (first) {
            ewma = gap;
            prediction.shortestRecentGap = gap;
            first = false;
        } else {
            ewma = kGapAlpha * gap + (1.0 - kGapAlpha) * ewma;
            prediction.shortestRecentGap =
                std::min(prediction.shortestRecentGap, gap);
        }
        ++prediction.samples;
    }
    if (prediction.samples < kMinGapSamples)
        return std::nullopt;
    prediction.expectedGapSeconds = ewma;
    return prediction;
}

bool
GapPredictor::fitsInGap(storage::FileId file, double transfer_seconds) const
{
    std::optional<GapPrediction> prediction = predict(file);
    if (!prediction)
        return true; // unknown or idle file: moving cannot collide
    return prediction->expectedGapSeconds >=
           transfer_seconds * kGapSafetyFactor;
}

} // namespace core
} // namespace geo
