#include "core/drl_engine.hh"

#include <algorithm>
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
    auto &registry = util::MetricRegistry::global();
    trainStepsMetric_ = &registry.counter("drl.train_steps");
    trainDivergedMetric_ = &registry.counter("drl.train.diverged");
    rollbackMetric_ = &registry.counter("drl.train.rollbacks");
    trainMsMetric_ = &registry.histogram("drl.train_ms");
    trainRowsMetric_ = &registry.histogram("drl.train_rows");
    predictMsMetric_ = &registry.histogram("drl.predict_ms");
    scoreRowsMetric_ = &registry.histogram("drl.score_rows");
    valMaeMetric_ = &registry.gauge("drl.val_mae_pct");
}

namespace {

/** Every parameter of `model`, concatenated in parameters() order. */
void
copyWeightsOut(nn::Sequential &model, std::vector<double> &out)
{
    out.clear();
    for (const nn::Matrix *p : model.parameters())
        out.insert(out.end(), p->data().begin(), p->data().end());
}

/** Inverse of copyWeightsOut. */
void
copyWeightsIn(const std::vector<double> &in, nn::Sequential &model)
{
    const double *at = in.data();
    for (nn::Matrix *p : model.parameters()) {
        std::copy_n(at, p->size(), p->data().begin());
        at += p->size();
    }
}

} // namespace

RetrainStats
DrlEngine::retrain(const TrainingBatch &batch)
{
    GEO_SPAN("drl", "retrain");
    RetrainStats stats;
    stats.samples = batch.dataset.size();
    // Need enough rows for a meaningful 60/20/20 split.
    if (batch.dataset.size() < 16)
        return stats;

    scalers_.featureNorm = batch.featureNorm;
    scalers_.targetNorm = batch.targetNorm;
    nn::chronologicalSplitInto(batch.dataset, config_.trainFraction,
                               config_.valFraction, split_);
    if (hasLastGood_)
        copyWeightsOut(model_, preRetrainWeights_);

    nn::TrainOptions options;
    options.epochs = config_.epochs;
    options.batchSize = config_.batchSize;
    nn::TrainResult result =
        model_.train(split_.train, split_.validation, optimizer_, options);
    stats.trained = true;
    stats.seconds = result.seconds;
    // Guard against numerical poison: a non-finite loss, a probe set
    // the model mangles, or NaN/Inf in the weights themselves.
    stats.diverged = result.diverged ||
                     model_.looksDiverged(split_.test) || !weightsFinite();
    trainStepsMetric_->inc();
    trainMsMetric_->record(result.seconds * 1e3);
    trainRowsMetric_->record(static_cast<double>(split_.train.size()));
    if (stats.diverged) {
        trainDivergedMetric_->inc();
        util::FlightRecorder::global().record(
            util::FlightKind::TrainDiverged, 0.0, config_.epochs);
        ready_ = false;
        if (hasLastGood_) {
            // Roll back to the last finite weights so the poison does
            // not compound across retrains or leak into proposeMoves.
            copyWeightsIn(preRetrainWeights_, model_);
            rollbackMetric_->inc();
            warn("DrlEngine: retrain diverged; rolled weights back to "
                 "the last good cycle");
            return stats;
        }
        warn("DrlEngine: model diverged during retrain; predictions "
             "disabled until a successful cycle");
        return stats;
    }

    // Validation relative error drives the Section V-G adjustment.
    const nn::Dataset &probe =
        split_.validation.empty() ? split_.train : split_.validation;
    RelativeErrorAccumulator errors;
    for (size_t begin = 0; begin < probe.size();
         begin += nn::Sequential::kForwardChunk) {
        const size_t end =
            std::min(probe.size(), begin + nn::Sequential::kForwardChunk);
        const nn::Matrix &predictions =
            model_.predictRows(probe.inputs, begin, end);
        for (size_t r = begin; r < end; ++r)
            errors.add(
                scalers_.denormalizeTarget(predictions.at(r - begin, 0)),
                scalers_.denormalizeTarget(probe.targets.at(r, 0)));
    }
    stats.meanAbsRelError = errors.meanAbsolute();
    stats.signedRelError = errors.meanSigned();

    valMaeMetric_->set(stats.meanAbsRelError);
    maeFraction_ = stats.meanAbsRelError / 100.0;
    if (config_.adjustWithMae && maeFraction_ > 0.0) {
        // Over-predicting on average -> lower predictions, and vice
        // versa (sign of the mean signed relative error).
        adjustSign_ = stats.signedRelError > 0.0 ? -1.0 : 1.0;
    } else {
        adjustSign_ = 0.0;
    }
    hasLastGood_ = true;
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
            scalers_.normalizeFeaturesInto(
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
                scalers_.denormalizeTarget(outputScratch_.at(row++, 0));
            if (adjustSign_ != 0.0)
                value += adjustSign_ * maeFraction_ * value;
            scores.push_back({device, value < 0.0 ? 0.0 : value});
        }
    }

    auto elapsed = std::chrono::steady_clock::now() - start;
    predictMsMetric_->record(
        std::chrono::duration<double, std::milli>(elapsed).count());
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
    std::ostringstream os;
    nn::saveWeights(model_, os);
    const std::string weights = os.str();
    w.str("drl.weights", weights);
    std::ostringstream opt;
    util::StateWriter ow(opt);
    optimizer_.saveState(ow);
    w.str("drl.optimizer", opt.str());
    w.boolean("drl.ready", ready_);
    w.f64("drl.mae_fraction", maeFraction_);
    w.f64("drl.adjust_sign", adjustSign_);
    // geo-ckpt-1 still carries the retired model-target key; 0 is
    // throughput, the only target.
    w.u64("drl.target", 0);
    // Last-good weights always equal the current ones (see
    // hasLastGood_), so the same text goes under both keys.
    w.str("drl.last_good", hasLastGood_ ? weights : std::string());
    // Batch scalers only: the dataset itself is transient retrain
    // input, but predictions between retrains need the normalizers.
    std::vector<double> mins, maxs;
    normalizerRanges(scalers_.featureNorm, mins, maxs);
    w.f64Vec("drl.feat_mins", mins);
    w.f64Vec("drl.feat_maxs", maxs);
    normalizerRanges(scalers_.targetNorm, mins, maxs);
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
    uint64_t target = r.u64("drl.target");
    std::string last_good = r.str("drl.last_good");
    std::vector<double> feat_mins = r.f64Vec("drl.feat_mins");
    std::vector<double> feat_maxs = r.f64Vec("drl.feat_maxs");
    std::vector<double> target_mins = r.f64Vec("drl.target_mins");
    std::vector<double> target_maxs = r.f64Vec("drl.target_maxs");
    if (!r.ok())
        return;
    if (target != 0) {
        r.fail("drl: checkpoint models target " + std::to_string(target) +
               "; only throughput (0) is supported");
        return;
    }
    if (!last_good.empty() && last_good != weights) {
        r.fail("drl: last-good weights differ from the weights");
        return;
    }
    // Scalers that scoring can apply: a range per live feature and one
    // for the target, or none before the first retrain. Anything else
    // would panic or throw at the next decision, not here.
    auto fits = [](const std::vector<double> &mins,
                   const std::vector<double> &maxs, size_t width) {
        return mins.size() == maxs.size() &&
               (mins.empty() || mins.size() == width);
    };
    if (!fits(feat_mins, feat_maxs, kLiveFeatureCount) ||
        !fits(target_mins, target_maxs, 1)) {
        r.fail("drl: checkpointed scalers do not fit the features");
        return;
    }
    // Nothing changes unless every part loads: the optimizer loads
    // into a copy, and loadWeights stores nothing on failure.
    nn::SgdOptimizer optimizer = optimizer_;
    {
        std::istringstream is(opt);
        util::StateReader orr(is);
        optimizer.loadState(orr);
        if (!orr.ok()) {
            r.fail("drl: bad optimizer state: " + orr.error());
            return;
        }
    }
    {
        std::istringstream is(weights);
        if (!nn::loadWeights(model_, is)) {
            r.fail("drl: checkpointed weights do not fit the model");
            return;
        }
    }
    optimizer_ = optimizer;
    rng_.setState(rng);
    ready_ = ready;
    maeFraction_ = mae;
    adjustSign_ = sign;
    hasLastGood_ = !last_good.empty();
    scalers_ = TrainingBatch{};
    scalers_.featureNorm.restore(std::move(feat_mins),
                                 std::move(feat_maxs));
    scalers_.targetNorm.restore(std::move(target_mins),
                                std::move(target_maxs));
}

} // namespace core
} // namespace geo
