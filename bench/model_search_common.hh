/**
 * @file
 * Shared machinery for the Table I/II/III model-search harnesses:
 * telemetry collection from the simulated Bluesky node and the
 * train/evaluate loop used to score each architecture.
 */

#ifndef GEO_BENCH_MODEL_SEARCH_COMMON_HH
#define GEO_BENCH_MODEL_SEARCH_COMMON_HH

#include <chrono>
#include <future>
#include <map>
#include <vector>

#include "core/perf_record.hh"
#include "nn/model_zoo.hh"
#include "storage/bluesky.hh"
#include "trace/normalizer.hh"
#include "util/smoothing.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "workload/belle2.hh"

namespace geo {
namespace bench {

/** Telemetry: per-device performance records from a live-like run. */
struct Telemetry
{
    std::map<storage::DeviceId, std::vector<core::PerfRecord>> perDevice;
    std::vector<std::string> deviceNames;
};

/**
 * Run the BELLE II workload on a fresh Bluesky system, shuffling the
 * layout periodically so every (file, device) combination appears in
 * the telemetry, and collect one record stream per mount.
 */
inline Telemetry
collectTelemetry(size_t runs, uint64_t seed = 7)
{
    Telemetry telemetry;
    auto system = storage::makeBlueskySystem(seed);
    for (storage::DeviceId id : system->deviceIds())
        telemetry.deviceNames.push_back(system->device(id).name());

    workload::Belle2Workload workload(*system);
    system->onAccess([&](const storage::AccessObservation &obs) {
        telemetry.perDevice[obs.device].push_back(
            core::PerfRecord::fromObservation(obs));
    });

    Rng rng(seed * 13 + 1);
    for (size_t run = 0; run < runs; ++run) {
        workload.executeRun();
        if ((run + 1) % 5 == 0) {
            // Random reshuffle (the paper trains Geomancy static from
            // ~10,000 random-dynamic samples).
            for (storage::FileId file : workload.files()) {
                storage::DeviceId target =
                    static_cast<storage::DeviceId>(rng.uniformInt(
                        0,
                        static_cast<int64_t>(system->deviceCount()) - 1));
                system->moveFile(file, target);
            }
        }
    }
    return telemetry;
}

/** A normalized, optionally windowed dataset built from records. */
inline nn::Dataset
buildMountDataset(const std::vector<core::PerfRecord> &records,
                  size_t window, size_t smoothing,
                  trace::MinMaxNormalizer &target_norm)
{
    nn::Matrix features(records.size(), core::kLiveFeatureCount);
    for (size_t r = 0; r < records.size(); ++r) {
        const auto row = records[r].features();
        for (size_t c = 0; c < row.size(); ++c)
            features.at(r, c) = row[c];
    }
    // The paper smooths the ReplayDB data, not just the reward: apply
    // the same moving average to the continuous feature columns
    // (rb, wb, timestamps) so per-row correspondence is preserved.
    if (smoothing > 1) {
        for (size_t c = 0; c < 4; ++c) {
            std::vector<double> column(records.size());
            for (size_t r = 0; r < records.size(); ++r)
                column[r] = features.at(r, c);
            column = movingAverage(column, smoothing);
            for (size_t r = 0; r < records.size(); ++r)
                features.at(r, c) = column[r];
        }
    }
    std::vector<double> tp;
    tp.reserve(records.size());
    for (const core::PerfRecord &rec : records)
        tp.push_back(rec.throughput);
    if (smoothing > 1)
        tp = movingAverage(tp, smoothing);
    nn::Matrix targets(records.size(), 1);
    for (size_t r = 0; r < records.size(); ++r)
        targets.at(r, 0) = tp[r];

    trace::MinMaxNormalizer feature_norm;
    feature_norm.fit(features);
    features = feature_norm.transform(features);
    target_norm.fit(targets);
    targets = target_norm.transform(targets);

    size_t rows = records.size() - window + 1;
    nn::Dataset data;
    data.inputs = nn::Matrix(rows, core::kLiveFeatureCount * window);
    data.targets = nn::Matrix(rows, 1);
    for (size_t r = 0; r < rows; ++r) {
        for (size_t t = 0; t < window; ++t)
            data.inputs.setBlock(r, t * core::kLiveFeatureCount,
                                 features.row(r + t));
        data.targets.at(r, 0) = targets.at(r + window - 1, 0);
    }
    return data;
}

/** Result of scoring one architecture on one mount. */
struct ModelScore
{
    bool diverged = false;
    double meanAbsRelError = 0.0;   ///< % on the test set
    double stddevAbsRelError = 0.0; ///< % on the test set
    double trainSeconds = 0.0;
    double predictMillis = 0.0;     ///< full test-set prediction
};

/**
 * Average scoreModel() over several seeds: individual SGD runs on
 * this data are noisy, and the paper's ranking claims are about the
 * architecture, not one initialization. Seed trials run as tasks on
 * the global thread pool and are combined in seed order, so the
 * averages are worker-count independent. `smoothing` is the ReplayDB
 * moving-average window (1 = none).
 */
ModelScore scoreModelAveraged(int number,
                              const std::vector<core::PerfRecord> &records,
                              size_t epochs, uint64_t seed, size_t seeds,
                              size_t smoothing = 32);

/**
 * Train Table I model `number` on `records` and score it on the
 * held-out test split (chronological 60/20/20, as in the paper),
 * smoothing the data with a `smoothing`-row moving average first.
 */
inline ModelScore
scoreModel(int number, const std::vector<core::PerfRecord> &records,
           size_t epochs, uint64_t seed, size_t smoothing = 32)
{
    const size_t window = nn::modelSpec(number, core::kLiveFeatureCount)
                                  .recurrent
                              ? nn::kDefaultTimesteps
                              : 1;
    trace::MinMaxNormalizer target_norm;
    nn::Dataset data =
        buildMountDataset(records, window, smoothing, target_norm);
    nn::DataSplit split = nn::chronologicalSplit(data);

    Rng rng(seed);
    nn::Sequential model =
        nn::buildModel(number, core::kLiveFeatureCount, rng);
    // Plain SGD, as in the paper (Adam performed worse there).
    nn::SgdOptimizer optimizer(0.05, /*clip_norm=*/5.0);
    nn::TrainOptions options;
    options.epochs = epochs;
    options.batchSize = 64;
    options.shuffle = true;
    options.shuffleSeed = seed;

    ModelScore score;
    nn::TrainResult result =
        model.train(split.train, split.validation, optimizer, options);
    score.trainSeconds = result.seconds;
    if (result.diverged || model.looksDiverged(split.test)) {
        score.diverged = true;
        return score;
    }

    auto t0 = std::chrono::steady_clock::now();
    nn::Matrix predictions = model.predict(split.test.inputs);
    auto t1 = std::chrono::steady_clock::now();
    score.predictMillis =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    std::vector<double> pred, target;
    for (size_t r = 0; r < split.test.size(); ++r) {
        pred.push_back(target_norm.inverseValue(predictions.at(r, 0), 0));
        target.push_back(
            target_norm.inverseValue(split.test.targets.at(r, 0), 0));
    }
    score.meanAbsRelError = meanAbsoluteRelativeError(pred, target);
    score.stddevAbsRelError = stddevAbsoluteRelativeError(pred, target);
    return score;
}

inline ModelScore
scoreModelAveraged(int number,
                   const std::vector<core::PerfRecord> &records,
                   size_t epochs, uint64_t seed, size_t seeds,
                   size_t smoothing)
{
    util::ThreadPool &workers = util::ThreadPool::global();
    std::vector<std::future<ModelScore>> trials;
    trials.reserve(seeds);
    for (size_t s = 0; s < seeds; ++s) {
        trials.push_back(workers.submit([number, &records, epochs, seed,
                                         s, smoothing]() -> ModelScore {
            return scoreModel(number, records, epochs, seed + s * 7919,
                              smoothing);
        }));
    }
    ModelScore averaged;
    size_t healthy = 0;
    for (size_t s = 0; s < seeds; ++s) {
        ModelScore one = trials[s].get();
        averaged.trainSeconds += one.trainSeconds / seeds;
        if (one.diverged)
            continue;
        ++healthy;
        averaged.meanAbsRelError += one.meanAbsRelError;
        averaged.stddevAbsRelError += one.stddevAbsRelError;
        averaged.predictMillis += one.predictMillis;
    }
    // Majority divergence marks the architecture as diverged, as the
    // paper's Table II does.
    if (healthy * 2 <= seeds) {
        averaged.diverged = true;
        return averaged;
    }
    averaged.meanAbsRelError /= static_cast<double>(healthy);
    averaged.stddevAbsRelError /= static_cast<double>(healthy);
    averaged.predictMillis /= static_cast<double>(healthy);
    return averaged;
}

} // namespace bench
} // namespace geo

#endif // GEO_BENCH_MODEL_SEARCH_COMMON_HH
