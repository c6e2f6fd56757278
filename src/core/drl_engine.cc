#include "core/drl_engine.hh"

#include <chrono>
#include <cmath>
#include <sstream>

#include "nn/serialize.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/trace_event.hh"

namespace geo {
namespace core {

DrlEngine::DrlEngine(const DrlConfig &config)
    : config_(config), rng_(config.seed),
      model_(nn::buildModel(config.modelNumber, config.featureCount, rng_)),
      optimizer_(config.learningRate, config.clipNorm)
{
    if (nn::modelSpec(config.modelNumber, config.featureCount).recurrent)
        panic("DrlEngine: live engine requires a dense model "
              "(model %d is recurrent); windowed inputs are only wired "
              "into the offline model search", config.modelNumber);
    auto &registry = util::MetricRegistry::global();
    trainStepsMetric_ = &registry.counter("drl.train_steps");
    divergedMetric_ = &registry.counter("drl.diverged");
    trainDivergedMetric_ = &registry.counter("drl.train.diverged");
    trainCancelledMetric_ = &registry.counter("drl.train.cancelled");
    rollbackMetric_ = &registry.counter("drl.train.rollbacks");
    trainMsMetric_ = &registry.histogram("drl.train_ms");
    trainRowsMetric_ = &registry.histogram("drl.train_rows");
    predictMsMetric_ = &registry.histogram("drl.predict_ms");
    scoreRowsMetric_ = &registry.histogram("drl.score_rows");
    valMaeMetric_ = &registry.gauge("drl.val_mae_pct");
}

RetrainStats
DrlEngine::retrain(const TrainingBatch &batch)
{
    GEO_SPAN("drl", "retrain");
    RetrainStats stats;
    stats.samples = batch.dataset.size();
    // Need enough rows for a meaningful 60/20/20 split.
    if (batch.dataset.size() < 16)
        return stats;

    batch_ = batch;
    targetKind_ = batch.target;
    nn::DataSplit split = nn::chronologicalSplit(
        batch.dataset, config_.trainFraction, config_.valFraction);

    nn::TrainOptions options;
    options.epochs = config_.epochs;
    options.batchSize = config_.batchSize;
    options.cancel = cancelToken_;
    nn::TrainResult result =
        model_.train(split.train, split.validation, optimizer_, options);
    stats.trained = true;
    stats.seconds = result.seconds;
    if (result.cancelled) {
        // The watchdog cut training short: a half-trained model is not
        // trustworthy, so roll back exactly like a divergence and let
        // the next healthy cycle retrain from the last good weights.
        stats.cancelled = true;
        trainCancelledMetric_->inc();
        util::FlightRecorder::global().record(
            util::FlightKind::TrainCancelled, 0.0, config_.epochs);
        ready_ = false;
        if (!lastGoodWeights_.empty()) {
            std::istringstream is(lastGoodWeights_);
            if (nn::loadWeights(model_, is)) {
                rollbackMetric_->inc();
                warn("DrlEngine: retrain cancelled by the watchdog; "
                     "rolled weights back to the last good cycle");
                return stats;
            }
        }
        warn("DrlEngine: retrain cancelled by the watchdog; predictions "
             "disabled until a successful cycle");
        return stats;
    }
    // Guard against numerical poison: a non-finite loss, a probe set
    // the model mangles, or NaN/Inf in the weights themselves.
    stats.diverged = result.diverged ||
                     model_.looksDiverged(split.test) || !weightsFinite();
    trainStepsMetric_->inc();
    trainMsMetric_->record(result.seconds * 1e3);
    trainRowsMetric_->record(static_cast<double>(split.train.size()));
    if (stats.diverged) {
        divergedMetric_->inc();
        trainDivergedMetric_->inc();
        util::FlightRecorder::global().record(
            util::FlightKind::TrainDiverged, 0.0, config_.epochs);
        ready_ = false;
        if (!lastGoodWeights_.empty()) {
            // Roll back to the last finite weights so the poison does
            // not compound across retrains or leak into proposeMoves.
            std::istringstream is(lastGoodWeights_);
            if (nn::loadWeights(model_, is)) {
                rollbackMetric_->inc();
                warn("DrlEngine: retrain diverged; rolled weights back "
                     "to the last good cycle");
                return stats;
            }
        }
        warn("DrlEngine: model diverged during retrain; predictions "
             "disabled until a successful cycle");
        return stats;
    }

    // Validation relative error drives the Section V-G adjustment.
    const nn::Dataset &probe =
        split.validation.empty() ? split.train : split.validation;
    model_.predictInto(probe.inputs, outputScratch_);
    const nn::Matrix &predictions = outputScratch_;
    std::vector<double> pred_raw, target_raw;
    pred_raw.reserve(probe.size());
    target_raw.reserve(probe.size());
    for (size_t r = 0; r < probe.size(); ++r) {
        pred_raw.push_back(
            batch_.denormalizeTarget(predictions.at(r, 0)));
        target_raw.push_back(
            batch_.denormalizeTarget(probe.targets.at(r, 0)));
    }
    stats.meanAbsRelError =
        meanAbsoluteRelativeError(pred_raw, target_raw);
    stats.signedRelError = meanSignedRelativeError(pred_raw, target_raw);

    valMaeMetric_->set(stats.meanAbsRelError);
    maeFraction_ = stats.meanAbsRelError / 100.0;
    if (config_.adjustWithMae && maeFraction_ > 0.0) {
        // Over-predicting on average -> lower predictions, and vice
        // versa (sign of the mean signed relative error).
        adjustSign_ = stats.signedRelError > 0.0 ? -1.0 : 1.0;
    } else {
        adjustSign_ = 0.0;
    }
    {
        std::ostringstream os;
        if (nn::saveWeights(model_, os))
            lastGoodWeights_ = os.str();
    }
    ready_ = true;
    return stats;
}

bool
DrlEngine::weightsFinite()
{
    for (const nn::Matrix *p : model_.parameters())
        for (double v : p->data())
            if (!std::isfinite(v))
                return false;
    return true;
}

std::vector<std::vector<CandidateScore>>
DrlEngine::scoreLocations(const std::vector<PerfRecord> &records,
                          const std::vector<storage::DeviceId> &devices)
{
    if (!ready_)
        panic("DrlEngine::scoreLocations before a successful retrain");
    GEO_SPAN("drl", "predict");
    auto start = std::chrono::steady_clock::now();

    // One batch across all files: a row per (file, candidate) pair
    // with only the location column varying per file (Section V-C).
    const size_t z = config_.featureCount;
    featureScratch_.reshape(records.size() * devices.size(), z);
    size_t row = 0;
    for (const PerfRecord &rec : records) {
        for (storage::DeviceId device : devices) {
            const auto raw = rec.featuresAt(device);
            batch_.normalizeFeaturesInto(
                raw.data(), raw.size(),
                featureScratch_.data().data() + row * z);
            ++row;
        }
    }
    model_.predictInto(featureScratch_, outputScratch_);

    std::vector<std::vector<CandidateScore>> all(records.size());
    row = 0;
    for (std::vector<CandidateScore> &scores : all) {
        scores.reserve(devices.size());
        for (storage::DeviceId device : devices) {
            double value =
                batch_.denormalizeTarget(outputScratch_.at(row++, 0));
            if (adjustSign_ != 0.0)
                value += adjustSign_ * maeFraction_ * value;
            scores.push_back({device, value < 0.0 ? 0.0 : value});
        }
    }

    auto elapsed = std::chrono::steady_clock::now() - start;
    lastPredictMs_ =
        std::chrono::duration<double, std::milli>(elapsed).count();
    predictMsMetric_->record(lastPredictMs_);
    scoreRowsMetric_->record(
        static_cast<double>(records.size() * devices.size()));
    return all;
}

namespace {

/** The learned column ranges of a fitted normalizer. */
void
normalizerRanges(const trace::MinMaxNormalizer &n,
                 std::vector<double> &mins, std::vector<double> &maxs)
{
    mins.clear();
    maxs.clear();
    for (size_t c = 0; c < n.columns(); ++c) {
        mins.push_back(n.columnMin(c));
        maxs.push_back(n.columnMax(c));
    }
}

} // namespace

void
DrlEngine::saveState(util::StateWriter &w)
{
    w.rng("drl.rng", rng_);
    std::ostringstream weights;
    nn::saveWeights(model_, weights);
    w.str("drl.weights", weights.str());
    std::ostringstream opt;
    util::StateWriter ow(opt);
    optimizer_.saveState(ow);
    w.str("drl.optimizer", opt.str());
    w.boolean("drl.ready", ready_);
    w.f64("drl.mae_fraction", maeFraction_);
    w.f64("drl.adjust_sign", adjustSign_);
    w.u64("drl.target", static_cast<uint64_t>(targetKind_));
    w.str("drl.last_good", lastGoodWeights_);
    // Batch scalers only: the dataset itself is transient retrain
    // input, but predictions between retrains need the normalizers.
    std::vector<double> mins, maxs;
    normalizerRanges(batch_.featureNorm, mins, maxs);
    w.f64Vec("drl.feat_mins", mins);
    w.f64Vec("drl.feat_maxs", maxs);
    normalizerRanges(batch_.targetNorm, mins, maxs);
    w.f64Vec("drl.target_mins", mins);
    w.f64Vec("drl.target_maxs", maxs);
}

void
DrlEngine::loadState(util::StateReader &r)
{
    Rng::State rng = r.rng("drl.rng");
    std::string weights = r.str("drl.weights");
    std::string opt = r.str("drl.optimizer");
    bool ready = r.boolean("drl.ready");
    double mae = r.f64("drl.mae_fraction");
    double sign = r.f64("drl.adjust_sign");
    auto target = static_cast<ModelTarget>(r.u64("drl.target"));
    std::string last_good = r.str("drl.last_good");
    std::vector<double> feat_mins = r.f64Vec("drl.feat_mins");
    std::vector<double> feat_maxs = r.f64Vec("drl.feat_maxs");
    std::vector<double> target_mins = r.f64Vec("drl.target_mins");
    std::vector<double> target_maxs = r.f64Vec("drl.target_maxs");
    if (!r.ok())
        return;
    {
        std::istringstream is(weights);
        if (!nn::loadWeights(model_, is)) {
            r.fail("drl: checkpointed weights do not fit the model");
            return;
        }
    }
    {
        std::istringstream is(opt);
        util::StateReader orr(is);
        optimizer_.loadState(orr);
        if (!orr.ok()) {
            r.fail("drl: bad optimizer state: " + orr.error());
            return;
        }
    }
    rng_.setState(rng);
    ready_ = ready;
    maeFraction_ = mae;
    adjustSign_ = sign;
    targetKind_ = target;
    lastGoodWeights_ = last_good;
    batch_ = TrainingBatch{};
    batch_.target = target;
    batch_.featureNorm.restore(std::move(feat_mins),
                               std::move(feat_maxs));
    batch_.targetNorm.restore(std::move(target_mins),
                              std::move(target_maxs));
}

} // namespace core
} // namespace geo
