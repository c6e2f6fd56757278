/**
 * @file
 * The DRL engine (paper Sections V-B, V-C, V-G).
 *
 * Wraps one of the Table I neural networks in a reinforcement loop:
 * the measured throughput of each access is the reward signal, the
 * engine retrains on the most recent ReplayDB window, and predictions
 * are made per candidate location by cloning the file's latest access
 * features with only the device column varying (Section V-C). The
 * validation mean-absolute-error is used to bias-correct predictions
 * (AdjustedPrediction = prediction +/- MAE * prediction, Section V-G).
 */

#ifndef GEO_CORE_DRL_ENGINE_HH
#define GEO_CORE_DRL_ENGINE_HH

#include <vector>

#include "core/interface_daemon.hh"
#include "core/perf_record.hh"
#include "nn/model_zoo.hh"
#include "nn/optimizer.hh"
#include "nn/sequential.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {

/** DRL engine configuration. The paper fixes the architecture, the
 *  optimizer and the split; those are static members, so code that
 *  reads them through a config keeps compiling. */
struct DrlConfig
{
    static constexpr int modelNumber = 1; ///< Table I model (paper's pick)
    static constexpr size_t featureCount = kLiveFeatureCount; ///< Z
    static constexpr size_t batchSize = 64;
    static constexpr double learningRate = 0.05;
    static constexpr double clipNorm = 5.0; ///< gradient clipping
    static constexpr double trainFraction = 0.6; ///< paper: 60/20/20
    static constexpr double valFraction = 0.2;
    size_t epochs = 40;    ///< retraining epochs per cycle
    bool adjustWithMae = true; ///< Section V-G bias correction
    uint64_t seed = 2024;
};

/** Outcome of one retraining cycle. */
struct RetrainStats
{
    bool trained = false;       ///< false when the batch was too small
    bool diverged = false;
    /** Always false: retraining is never cut short. Kept because the
     *  perf harness counts it as a failed decision and the
     *  geo-ledger-1 cycle row carries it as `cancelled`. */
    bool cancelled = false;
    double seconds = 0.0;       ///< wall-clock training time
    double meanAbsRelError = 0.0; ///< % on the validation set
    double signedRelError = 0.0;  ///< % (sign drives the adjustment)
    size_t samples = 0;
};

/** Predicted throughput of a file at one candidate location. */
struct CandidateScore
{
    storage::DeviceId device = 0;
    double predictedThroughput = 0.0; ///< denormalized, bytes/s
};

/**
 * Neural-network throughput predictor with per-location scoring.
 */
class DrlEngine
{
  public:
    explicit DrlEngine(const DrlConfig &config = {});

    /**
     * Retrain on a normalized training batch (keeps the batch's
     * scalers for subsequent predictions). Once the batch shape stops
     * growing, a retrain acquires no Matrix buffer.
     */
    RetrainStats retrain(const TrainingBatch &batch);

    /** True once at least one successful retrain has happened. */
    bool ready() const { return ready_; }

    /**
     * Section V-C scoring, batched: one feature matrix with
     * records.size() * devices.size() rows — a row per (file,
     * candidate) pair, cloning the file's latest access with only the
     * location column varying, the current location included ("the
     * possibility that moving the data will not improve performance")
     * — and a single forward pass. Each prediction is denormalized,
     * MAE-adjusted when configured (Sec. V-G) and clamped at 0;
     * result[f][d] scores records[f] on devices[d].
     */
    std::vector<std::vector<CandidateScore>> scoreLocations(
        const std::vector<PerfRecord> &records,
        const std::vector<storage::DeviceId> &devices);

    /** Validation MAE as a fraction of the target (Sec. V-G). */
    double maeFraction() const { return maeFraction_; }

    /** Direction of the Sec. V-G adjustment (+1, -1, or 0 = off). */
    double adjustSign() const { return adjustSign_; }

    const DrlConfig &config() const { return config_; }
    nn::Sequential &model() { return model_; }

    /**
     * Serialize weights, optimizer moments, RNG, batch scalers and the
     * Section V-G adjustment state. Non-const because weight export
     * walks the mutable parameter list.
     */
    void saveState(util::StateWriter &w);

    /** Restore state saved by an identically-configured engine. A
     *  non-empty `drl.last_good` must equal `drl.weights` (saveState
     *  writes them so); otherwise the reader fails and the engine is
     *  left untouched. */
    void loadState(util::StateReader &r);

  private:
    /** False when any weight went NaN/Inf. */
    bool weightsFinite();

    DrlConfig config_;
    Rng rng_;
    nn::Sequential model_;
    nn::SgdOptimizer optimizer_;
    /** The latest retrain's feature and target scalers; its dataset
     *  stays empty (predictions and snapshots read only the scalers). */
    TrainingBatch scalers_;
    bool ready_ = false;
    double maeFraction_ = 0.0;  ///< validation MAE as fraction of target
    double adjustSign_ = 0.0;   ///< +1 raise, -1 lower, 0 no adjustment
    /** A retrain has succeeded since construction (or the snapshot
     *  loaded says one had). While set, the weights between retrains
     *  are the last good ones: a successful retrain keeps what it
     *  trained, a diverged one rolls back. */
    bool hasLastGood_ = false;
    /** Raw copy of the weights a retrain started from, in
     *  parameters() order: the rollback target when training poisons
     *  the model. Sized once, reused by every retrain. */
    std::vector<double> preRetrainWeights_;
    /** The retrain's chronological split, refilled in place. */
    nn::DataSplit split_;

    // Preallocated batch buffers, reused across prediction calls.
    nn::Matrix featureScratch_; ///< (F * D) x Z normalized batch
    nn::Matrix outputScratch_;  ///< model predictions (reused per call)

    // Registry handles (resolved once; recording is lock-free).
    util::Counter *trainStepsMetric_;
    util::Counter *trainDivergedMetric_;
    util::Counter *rollbackMetric_;
    util::Histogram *trainMsMetric_;
    util::Histogram *trainRowsMetric_;
    util::Histogram *predictMsMetric_;
    util::Histogram *scoreRowsMetric_;
    util::Gauge *valMaeMetric_;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_DRL_ENGINE_HH
