#include "core/perf_record.hh"

#include "util/sim_clock.hh"

namespace geo {
namespace core {

std::array<double, kLiveFeatureCount>
PerfRecord::features() const
{
    return featuresAt(device);
}

std::array<double, kLiveFeatureCount>
PerfRecord::featuresAt(storage::DeviceId candidate) const
{
    return {
        static_cast<double>(rb),
        static_cast<double>(wb),
        static_cast<double>(ots) + static_cast<double>(otms) / 1000.0,
        static_cast<double>(cts) + static_cast<double>(ctms) / 1000.0,
        static_cast<double>(file),
        static_cast<double>(candidate),
    };
}

PerfRecord
PerfRecord::fromObservation(const storage::AccessObservation &obs)
{
    PerfRecord rec;
    rec.file = obs.file;
    rec.device = obs.device;
    rec.rb = obs.readBytes;
    rec.wb = obs.writtenBytes;
    SplitTime open_ts = splitSeconds(obs.startTime);
    SplitTime close_ts = splitSeconds(obs.endTime);
    rec.ots = open_ts.seconds;
    rec.otms = open_ts.millis;
    rec.cts = close_ts.seconds;
    rec.ctms = close_ts.millis;
    rec.throughput = obs.throughput;
    rec.failed = obs.failed;
    return rec;
}

} // namespace core
} // namespace geo
