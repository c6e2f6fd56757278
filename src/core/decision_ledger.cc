#include "core/decision_ledger.hh"

#include <cmath>

#include "util/fs_atomic.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace geo {
namespace core {

namespace {

// Ledger numbers must reproduce the in-process values bit-for-bit
// when a tool reads them back (the Table 3 consistency check depends
// on it).
using util::jsonNumber;

const char *
jsonBool(bool v)
{
    return v ? "true" : "false";
}

} // namespace

DecisionLedger::DecisionLedger(std::string path)
    : path_(std::move(path)),
      metricPrefix_(util::MetricRegistry::global().scopePrefix())
{
    content_ = "{\"t\":\"ledger\",\"schema\":\"geo-ledger-1\"}\n";
}

void
DecisionLedger::appendRow(const std::string &body)
{
    ++seq_;
    pendingText_ += "{\"t\":" + body + ",\"seq\":" +
                    std::to_string(seq_) + "}\n";
}

void
DecisionLedger::flush()
{
    // Steady state appends only the rows added since the last flush:
    // the on-disk prefix is immutable history, and rewriting it every
    // cycle would make the per-cycle cost grow with the run.  The
    // append is refused (and we fall back to a full atomic rewrite)
    // whenever the disk file is not byte-for-byte our flushed prefix —
    // first flush, post-restore truncation, external interference.
    if (flushedBytes_ == content_.size() && flushedBytes_ > 0)
        return;
    if (flushedBytes_ > 0 && flushedBytes_ < content_.size() &&
        util::appendFileDurable(path_, content_.data() + flushedBytes_,
                                content_.size() - flushedBytes_,
                                flushedBytes_)) {
        flushedBytes_ = content_.size();
        return;
    }
    if (!util::writeFileAtomic(path_, content_)) {
        warn("DecisionLedger: cannot flush %s", path_.c_str());
        flushedBytes_ = 0; // disk state unknown: rewrite next time
        return;
    }
    flushedBytes_ = content_.size();
}

util::Gauge &
DecisionLedger::deviceGauge(storage::DeviceId device, const char *suffix)
{
    return util::MetricRegistry::global().gauge(
        metricPrefix_ +
        strprintf("ledger.dev%llu.%s",
                  static_cast<unsigned long long>(device), suffix));
}

void
DecisionLedger::beginCycle(uint64_t cycle, double sim, bool safe_mode,
                           bool probe)
{
    cycle_ = cycle;
    sim_ = sim;
    inCycle_ = true;
    appendRow("\"cycle_start\",\"cycle\":" + std::to_string(cycle) +
              ",\"sim\":" + jsonNumber(sim) +
              ",\"safe_mode\":" + jsonBool(safe_mode) +
              ",\"probe\":" + jsonBool(probe));
}

void
DecisionLedger::recordPhase(const char *phase, double seconds,
                            double budget)
{
    if (!inCycle_)
        return;
    double frac = budget > 0.0 ? seconds / budget : 0.0;
    appendRow("\"phase\",\"cycle\":" + std::to_string(cycle_) +
              ",\"name\":\"" + phase +
              "\",\"seconds\":" + jsonNumber(seconds) +
              ",\"budget\":" + jsonNumber(budget) +
              ",\"frac\":" + jsonNumber(frac));
}

void
DecisionLedger::recordCandidate(storage::FileId file,
                                storage::DeviceId from,
                                const std::array<double, kLiveFeatureCount>
                                    &features,
                                const std::vector<LedgerScore> &scores,
                                const std::string &verdict,
                                storage::DeviceId to, double gain,
                                bool random, bool moved)
{
    if (!inCycle_)
        return;
    std::string body = "\"candidate\",\"cycle\":" +
                       std::to_string(cycle_) +
                       ",\"file\":" + std::to_string(file) +
                       ",\"from\":" + std::to_string(from) +
                       ",\"features\":[";
    for (size_t i = 0; i < features.size(); ++i) {
        if (i)
            body += ",";
        body += jsonNumber(features[i]);
    }
    body += "],\"scores\":[";
    for (size_t i = 0; i < scores.size(); ++i) {
        if (i)
            body += ",";
        body += "{\"device\":" + std::to_string(scores[i].device) +
                ",\"predicted\":" + jsonNumber(scores[i].predicted) +
                ",\"rank\":" + std::to_string(scores[i].rank) + "}";
    }
    body += "],\"verdict\":\"" + verdict + "\"";
    if (moved) {
        body += ",\"to\":" + std::to_string(to) +
                ",\"gain\":" + jsonNumber(gain) +
                ",\"random\":" + jsonBool(random);
    }
    appendRow(body);
}

void
DecisionLedger::recordExploration(storage::FileId file,
                                  storage::DeviceId from,
                                  storage::DeviceId to)
{
    if (!inCycle_)
        return;
    appendRow("\"candidate\",\"cycle\":" + std::to_string(cycle_) +
              ",\"file\":" + std::to_string(file) +
              ",\"from\":" + std::to_string(from) +
              ",\"verdict\":\"exploration\",\"to\":" +
              std::to_string(to) + ",\"random\":true");
}

void
DecisionLedger::recordPrediction(
    int64_t watermark,
    const std::vector<std::pair<storage::DeviceId,
                                std::pair<double, uint64_t>>> &by_device)
{
    if (!inCycle_ || by_device.empty())
        return;
    std::string body = "\"prediction\",\"cycle\":" +
                       std::to_string(cycle_) +
                       ",\"watermark\":" + std::to_string(watermark) +
                       ",\"devices\":[";
    for (size_t i = 0; i < by_device.size(); ++i) {
        if (i)
            body += ",";
        body += "{\"device\":" + std::to_string(by_device[i].first) +
                ",\"predicted\":" +
                jsonNumber(by_device[i].second.first) +
                ",\"candidates\":" +
                std::to_string(by_device[i].second.second) + "}";
    }
    body += "]";
    appendRow(body);

    PendingPrediction pending;
    pending.cycle = cycle_;
    pending.watermark = watermark;
    pending.byDevice = by_device;
    pending_.push_back(std::move(pending));
}

void
DecisionLedger::resolveRealized(ReplayDb &db)
{
    if (!inCycle_)
        return;
    while (!pending_.empty()) {
        const PendingPrediction &p = pending_.front();
        std::vector<std::tuple<storage::DeviceId, double, int64_t>>
            realized = db.deviceThroughputSince(p.watermark);
        for (const auto &[device, mean, samples] : realized) {
            double predicted = 0.0;
            bool have = false;
            for (const auto &[dev, stat] : p.byDevice) {
                if (dev == device) {
                    predicted = stat.first;
                    have = true;
                    break;
                }
            }
            if (!have || samples <= 0 || mean <= 0.0)
                continue; // nothing predicted / nothing measured
            double signed_err = (predicted - mean) / mean;
            double abs_err = std::fabs(signed_err);
            appendRow("\"realized\",\"cycle\":" +
                      std::to_string(cycle_) + ",\"predicted_cycle\":" +
                      std::to_string(p.cycle) + ",\"device\":" +
                      std::to_string(device) + ",\"predicted\":" +
                      jsonNumber(predicted) + ",\"realized\":" +
                      jsonNumber(mean) + ",\"samples\":" +
                      std::to_string(samples) + ",\"signed_err\":" +
                      jsonNumber(signed_err) + ",\"abs_err\":" +
                      jsonNumber(abs_err));
            MountErrorStat &stat = mountErrors_[device];
            ++stat.samples;
            stat.sumAbs += abs_err;
            stat.sumSigned += signed_err;
            deviceGauge(device, "abs_err")
                .set(stat.sumAbs / static_cast<double>(stat.samples));
            deviceGauge(device, "signed_err")
                .set(stat.sumSigned / static_cast<double>(stat.samples));
            deviceGauge(device, "samples")
                .set(static_cast<double>(stat.samples));
        }
        pending_.pop_front();
    }
}

void
DecisionLedger::recordOutcome(const AppliedMove &move)
{
    if (!inCycle_)
        return;
    appendRow("\"outcome\",\"cycle\":" + std::to_string(cycle_) +
              ",\"file\":" + std::to_string(move.file) +
              ",\"from\":" + std::to_string(move.from) +
              ",\"to\":" + std::to_string(move.to) +
              ",\"outcome\":\"" + attemptOutcomeName(move.outcome) +
              "\",\"reason\":\"" + storage::moveFailName(move.reason) +
              "\",\"attempt\":" + std::to_string(move.attempt));
}

void
DecisionLedger::recordTransition(const char *event)
{
    if (!inCycle_)
        return;
    appendRow("\"transition\",\"cycle\":" + std::to_string(cycle_) +
              ",\"event\":\"" + std::string(event) + "\"");
}

void
DecisionLedger::endCycle(const LedgerCycleSummary &summary)
{
    if (!inCycle_)
        return;
    appendRow(
        "\"cycle\",\"cycle\":" + std::to_string(cycle_) +
        ",\"acted\":" + jsonBool(summary.acted) +
        ",\"explored\":" + jsonBool(summary.explored) +
        ",\"skipped\":" + jsonBool(summary.skipped) +
        ",\"held\":" + jsonBool(summary.held) +
        ",\"safe_mode\":" + jsonBool(summary.safeMode) +
        ",\"probe\":" + jsonBool(summary.probe) +
        ",\"trained\":" + jsonBool(summary.trained) +
        ",\"diverged\":" + jsonBool(summary.diverged) +
        ",\"cancelled\":" + jsonBool(summary.cancelled) +
        ",\"mae_frac\":" + jsonNumber(summary.maeFraction) +
        ",\"proposed\":" + std::to_string(summary.proposed) +
        ",\"applied\":" + std::to_string(summary.applied) +
        ",\"failed\":" + std::to_string(summary.failed) +
        ",\"abandoned\":" + std::to_string(summary.abandoned) +
        ",\"cancelled_moves\":" +
        std::to_string(summary.cancelledMoves) +
        ",\"admitted\":" + std::to_string(summary.admitted) +
        ",\"quarantined\":" + std::to_string(summary.quarantined) +
        ",\"overrun\":" + jsonBool(summary.overrun));
    content_ += pendingText_;
    pendingText_.clear();
    inCycle_ = false;
    flush();
}

void
DecisionLedger::saveState(util::StateWriter &w) const
{
    // The open cycle's rows are never part of a cut: checkpoints are
    // written after endCycle() spliced them in.
    w.u64("ldg.seq", seq_);
    w.u64("ldg.bytes", static_cast<uint64_t>(content_.size()));
    w.u64("ldg.pending", static_cast<uint64_t>(pending_.size()));
    for (const PendingPrediction &p : pending_) {
        w.u64("ldg.p.cycle", p.cycle);
        w.i64("ldg.p.watermark", p.watermark);
        w.u64("ldg.p.devices", static_cast<uint64_t>(p.byDevice.size()));
        for (const auto &[device, stat] : p.byDevice) {
            w.u64("ldg.p.device", device);
            w.f64("ldg.p.predicted", stat.first);
            w.u64("ldg.p.candidates", stat.second);
        }
    }
    w.u64("ldg.mounts", static_cast<uint64_t>(mountErrors_.size()));
    for (const auto &[device, stat] : mountErrors_) {
        w.u64("ldg.m.device", device);
        w.u64("ldg.m.samples", stat.samples);
        w.f64("ldg.m.sum_abs", stat.sumAbs);
        w.f64("ldg.m.sum_signed", stat.sumSigned);
    }
    w.u64("ldg.cum_admitted", cumulative_[0]);
    w.u64("ldg.cum_quarantined", cumulative_[1]);
}

uint64_t
DecisionLedger::advanceCumulative(int slot, uint64_t cumulative)
{
    uint64_t delta =
        cumulative >= cumulative_[slot] ? cumulative - cumulative_[slot]
                                        : 0;
    cumulative_[slot] = cumulative;
    return delta;
}

void
DecisionLedger::loadState(util::StateReader &r)
{
    uint64_t seq = r.u64("ldg.seq");
    uint64_t bytes = r.u64("ldg.bytes");
    uint64_t pending_count = r.u64("ldg.pending");
    std::deque<PendingPrediction> pending;
    for (uint64_t i = 0; r.ok() && i < pending_count; ++i) {
        PendingPrediction p;
        p.cycle = r.u64("ldg.p.cycle");
        p.watermark = r.i64("ldg.p.watermark");
        uint64_t devices = r.u64("ldg.p.devices");
        for (uint64_t d = 0; r.ok() && d < devices; ++d) {
            storage::DeviceId device =
                static_cast<storage::DeviceId>(r.u64("ldg.p.device"));
            double predicted = r.f64("ldg.p.predicted");
            uint64_t candidates = r.u64("ldg.p.candidates");
            p.byDevice.emplace_back(
                device, std::make_pair(predicted, candidates));
        }
        pending.push_back(std::move(p));
    }
    uint64_t mounts = r.u64("ldg.mounts");
    std::map<storage::DeviceId, MountErrorStat> errors;
    for (uint64_t i = 0; r.ok() && i < mounts; ++i) {
        storage::DeviceId device =
            static_cast<storage::DeviceId>(r.u64("ldg.m.device"));
        MountErrorStat stat;
        stat.samples = r.u64("ldg.m.samples");
        stat.sumAbs = r.f64("ldg.m.sum_abs");
        stat.sumSigned = r.f64("ldg.m.sum_signed");
        errors[device] = stat;
    }
    uint64_t cum_admitted = r.u64("ldg.cum_admitted");
    uint64_t cum_quarantined = r.u64("ldg.cum_quarantined");
    if (!r.ok())
        return;

    cumulative_[0] = cum_admitted;
    cumulative_[1] = cum_quarantined;
    seq_ = seq;
    pending_ = std::move(pending);
    mountErrors_ = std::move(errors);
    pendingText_.clear();
    inCycle_ = false;
    for (const auto &[device, stat] : mountErrors_) {
        if (stat.samples == 0)
            continue;
        deviceGauge(device, "abs_err")
            .set(stat.sumAbs / static_cast<double>(stat.samples));
        deviceGauge(device, "signed_err")
            .set(stat.sumSigned / static_cast<double>(stat.samples));
        deviceGauge(device, "samples")
            .set(static_cast<double>(stat.samples));
    }

    // Truncate the ledger back to the cut. The on-disk file is always
    // at least `bytes` long (flushes precede checkpoints); a shorter
    // or missing file means someone removed it underneath us — start
    // over from the schema header rather than fabricate history.
    std::string disk;
    if (util::readFileAll(path_, disk) && disk.size() >= bytes) {
        content_ = disk.substr(0, bytes);
    } else {
        warn("DecisionLedger: %s shorter than the checkpoint cursor "
             "(%llu bytes); restarting the ledger",
             path_.c_str(), static_cast<unsigned long long>(bytes));
        content_ = "{\"t\":\"ledger\",\"schema\":\"geo-ledger-1\"}\n";
    }
    // The disk file may hold rows past the cut (crash after flush,
    // rewind before checkpoint): force a full rewrite so it shrinks
    // back to exactly the restored prefix.
    flushedBytes_ = 0;
    flush();
}

} // namespace core
} // namespace geo
