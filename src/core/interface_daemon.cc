#include "core/interface_daemon.hh"

#include <algorithm>
#include <limits>

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
    transferOverhead_ += kBatchTransferSeconds;
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
    std::vector<AccessWindow> windows;
    windows.reserve(devices.size());
    size_t rows = 0;
    for (storage::DeviceId device : devices) {
        windows.push_back(db_.deviceWindow(device, config_.windowPerDevice));
        rows += windows.back().size();
    }

    TrainingBatch batch;
    if (rows == 0)
        return batch;

    // ...merged chronologically (row id order = insertion order): take
    // the window holding the oldest unread row and copy its rows until
    // another window holds an older one.
    nn::Matrix inputs(rows, kLiveFeatureCount);
    std::vector<double> tp(rows);
    std::vector<size_t> next(windows.size(), 0);
    std::vector<int64_t> head(windows.size(), 0); ///< oldest unread id
    for (size_t w = 0; w < windows.size(); ++w)
        if (windows[w].size() > 0)
            head[w] = windows[w].id(0);
    for (size_t r = 0; r < rows;) {
        size_t pick = windows.size();
        int64_t until = std::numeric_limits<int64_t>::max();
        for (size_t w = 0; w < windows.size(); ++w) {
            if (next[w] == windows[w].size())
                continue;
            if (pick == windows.size()) {
                pick = w;
            } else if (head[w] < head[pick]) {
                until = head[pick];
                pick = w;
            } else {
                until = std::min(until, head[w]);
            }
        }
        const AccessWindow &from = windows[pick];
        size_t i = next[pick];
        do {
            const auto &row = from.features(i);
            std::copy(row.begin(), row.end(), &inputs.at(r, 0));
            tp[r++] = from.throughput(i++);
        } while (i < from.size() && from.id(i) < until);
        next[pick] = i;
        if (i < from.size())
            head[pick] = from.id(i);
    }

    if (config_.smoothingWindow > 1)
        tp = movingAverage(tp, config_.smoothingWindow);
    nn::Matrix targets(rows, 1);
    std::copy(tp.begin(), tp.end(), targets.data().begin());

    batch.featureNorm.fit(inputs);
    batch.targetNorm.fit(targets);
    batch.dataset.inputs = batch.featureNorm.transform(inputs);
    batch.dataset.targets = batch.targetNorm.transform(targets);
    return batch;
}

} // namespace core
} // namespace geo
