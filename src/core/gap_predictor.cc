#include "core/gap_predictor.hh"

#include <algorithm>

#include "util/logging.hh"

namespace geo {
namespace core {

namespace {

/** Observed gaps needed before predicting. */
constexpr size_t kMinGapSamples = 4;

} // namespace

GapPredictor::GapPredictor(const ReplayDb &db,
                           const GapPredictorConfig &config)
    : db_(db), config_(config)
{
    if (config_.alpha <= 0.0 || config_.alpha > 1.0)
        panic("GapPredictor: alpha %f out of (0, 1]", config_.alpha);
    if (config_.historyPerFile < 2)
        panic("GapPredictor: historyPerFile must be >= 2");
}

std::optional<GapPrediction>
GapPredictor::predict(storage::FileId file) const
{
    std::vector<PerfRecord> history =
        db_.recentAccessesForFile(file, config_.historyPerFile);
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
            ewma = config_.alpha * gap + (1.0 - config_.alpha) * ewma;
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
GapPredictor::fitsInGap(storage::FileId file, double transfer_seconds,
                        double safety) const
{
    std::optional<GapPrediction> prediction = predict(file);
    if (!prediction)
        return true; // unknown or idle file: moving cannot collide
    return prediction->expectedGapSeconds >= transfer_seconds * safety;
}

} // namespace core
} // namespace geo
