/**
 * @file
 * Access-gap prediction (paper Section X, future work).
 *
 * The paper's planned extension is a second model that predicts, for
 * every file, the gaps between its accesses — periods long enough to
 * move the file without colliding with a client. Files that are
 * "always accessed and never released" are excluded from movement.
 *
 * This implementation estimates the next idle gap per file from the
 * ReplayDB history with an exponentially weighted average of observed
 * inter-access gaps (recent behavior dominates, matching how the DRL
 * engine itself is retrained on recent windows).
 */

#ifndef GEO_CORE_GAP_PREDICTOR_HH
#define GEO_CORE_GAP_PREDICTOR_HH

#include <optional>

#include "core/replay_db.hh"

namespace geo {
namespace core {

/** Gap-predictor configuration. */
struct GapPredictorConfig
{
    /** Accesses of a file consulted per prediction. */
    size_t historyPerFile = 64;
    /** EWMA smoothing factor over successive gaps (newest weighted). */
    double alpha = 0.3;
};

/** A predicted access gap for one file. */
struct GapPrediction
{
    double expectedGapSeconds = 0.0; ///< EWMA of inter-access gaps
    double shortestRecentGap = 0.0;  ///< pessimistic bound
    size_t samples = 0;              ///< gaps observed
};

/**
 * Predicts per-file idle gaps from ReplayDB history.
 */
class GapPredictor
{
  public:
    explicit GapPredictor(const ReplayDb &db,
                          const GapPredictorConfig &config = {});

    /**
     * Predict the next idle gap of `file`.
     *
     * @return nullopt when the file has too little history (fewer than
     *         four gaps) to say anything.
     */
    std::optional<GapPrediction> predict(storage::FileId file) const;

    /**
     * Whether moving `file` is expected to fit into its next idle gap.
     *
     * @param transfer_seconds the expected move duration.
     * @param safety multiplier on the transfer time (>= 1).
     * @retval true also when the file has no history at all (a file
     *         nobody touches can always be moved).
     */
    bool fitsInGap(storage::FileId file, double transfer_seconds,
                   double safety = 1.5) const;

    const GapPredictorConfig &config() const { return config_; }

  private:
    const ReplayDb &db_;
    GapPredictorConfig config_;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_GAP_PREDICTOR_HH
