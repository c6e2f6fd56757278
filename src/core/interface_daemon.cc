#include "core/interface_daemon.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/smoothing.hh"

namespace geo {
namespace core {

void
TrainingBatch::normalizeFeaturesInto(const double *raw, size_t count,
                                     double *out) const
{
    if (!featureNorm.fitted()) {
        std::copy(raw, raw + count, out);
        return;
    }
    if (count != featureNorm.columns())
        panic("normalizeFeaturesInto: %zu values, scaler has %zu columns",
              count, featureNorm.columns());
    for (size_t c = 0; c < count; ++c)
        out[c] = featureNorm.value(raw[c], c);
}

double
TrainingBatch::denormalizeTarget(double normalized) const
{
    if (!targetNorm.fitted())
        return normalized;
    return targetNorm.inverseValue(normalized, 0);
}

InterfaceDaemon::InterfaceDaemon(ReplayDb &db, const DaemonConfig &config)
    : db_(db), config_(config)
{
    if (config_.windowPerDevice == 0)
        panic("InterfaceDaemon: windowPerDevice must be >= 1");
    if (config_.smoothingWindow == 0)
        panic("InterfaceDaemon: smoothingWindow must be >= 1");
}

void
InterfaceDaemon::receiveBatch(const std::vector<PerfRecord> &records)
{
    if (records.empty())
        return;
    db_.insertAccesses(records);
    transferOverhead_ += config_.batchTransferSeconds;
    ++batchesReceived_;
}

void
InterfaceDaemon::saveState(util::StateWriter &w) const
{
    w.f64("daemon.overhead", transferOverhead_);
    w.u64("daemon.batches", batchesReceived_);
}

void
InterfaceDaemon::loadState(util::StateReader &r)
{
    double overhead = r.f64("daemon.overhead");
    uint64_t batches = r.u64("daemon.batches");
    if (!r.ok())
        return;
    transferOverhead_ = overhead;
    batchesReceived_ = batches;
}

TrainingBatch
InterfaceDaemon::buildTrainingBatch(
    const std::vector<storage::DeviceId> &devices) const
{
    // The X most recent accesses for each storage device...
    std::vector<PerfRecord> merged;
    for (storage::DeviceId device : devices) {
        std::vector<PerfRecord> recent =
            db_.recentAccessesForDevice(device, config_.windowPerDevice);
        merged.insert(merged.end(), recent.begin(), recent.end());
    }
    // ...merged chronologically (row id order = insertion order).
    std::sort(merged.begin(), merged.end(),
              [](const PerfRecord &a, const PerfRecord &b) {
                  return a.id < b.id;
              });

    TrainingBatch batch;
    batch.target = config_.target;
    if (merged.empty())
        return batch;

    nn::Matrix inputs(merged.size(), kLiveFeatureCount);
    for (size_t r = 0; r < merged.size(); ++r) {
        const auto row = merged[r].features();
        for (size_t c = 0; c < row.size(); ++c)
            inputs.at(r, c) = row[c];
    }

    std::vector<double> tp;
    tp.reserve(merged.size());
    for (const PerfRecord &rec : merged) {
        if (config_.target == ModelTarget::Latency) {
            double open_time = static_cast<double>(rec.ots) +
                               static_cast<double>(rec.otms) / 1000.0;
            double close_time = static_cast<double>(rec.cts) +
                                static_cast<double>(rec.ctms) / 1000.0;
            tp.push_back(std::max(0.0, close_time - open_time));
        } else {
            tp.push_back(rec.throughput);
        }
    }
    if (config_.smoothingWindow > 1)
        tp = movingAverage(tp, config_.smoothingWindow);
    nn::Matrix targets(merged.size(), 1);
    for (size_t r = 0; r < merged.size(); ++r)
        targets.at(r, 0) = tp[r];

    batch.featureNorm.fit(inputs);
    batch.targetNorm.fit(targets);
    batch.dataset.inputs = batch.featureNorm.transform(inputs);
    batch.dataset.targets = batch.targetNorm.transform(targets);
    return batch;
}

} // namespace core
} // namespace geo
