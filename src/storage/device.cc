#include "storage/device.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace geo {
namespace storage {

StorageDevice::StorageDevice(DeviceId id, const DeviceConfig &config)
    : id_(id), config_(config), traffic_(config.traffic)
{
    if (config_.readBandwidth <= 0.0 || config_.writeBandwidth <= 0.0)
        panic("StorageDevice %s: non-positive bandwidth",
              config_.name.c_str());
    if (config_.accessLatency < 0.0)
        panic("StorageDevice %s: negative latency", config_.name.c_str());
    if (config_.selfLoadTau <= 0.0)
        panic("StorageDevice %s: non-positive selfLoadTau",
              config_.name.c_str());
    if (config_.errorLatency < 0.0)
        panic("StorageDevice %s: negative error latency",
              config_.name.c_str());
}

void
StorageDevice::setHealthFactor(double factor)
{
    if (factor <= 0.0 || factor > 1.0)
        panic("StorageDevice %s: health factor %f out of (0, 1]",
              config_.name.c_str(), factor);
    healthFactor_ = factor;
}

uint64_t
StorageDevice::freeBytes() const
{
    return usedBytes_ >= config_.capacityBytes
               ? 0
               : config_.capacityBytes - usedBytes_;
}

double
StorageDevice::externalLoad(double at) const
{
    return traffic_.load(at);
}

void
StorageDevice::decayTo(double at)
{
    if (at <= lastBusyUpdate_)
        return;
    double dt = at - lastBusyUpdate_;
    busyLoad_ *= std::exp(-dt / config_.selfLoadTau);
    lastBusyUpdate_ = at;
}

double
StorageDevice::selfLoad(double at) const
{
    if (at <= lastBusyUpdate_)
        return busyLoad_;
    double dt = at - lastBusyUpdate_;
    return busyLoad_ * std::exp(-dt / config_.selfLoadTau);
}

double
StorageDevice::effectiveBandwidth(bool is_read, double at) const
{
    double base = is_read ? config_.readBandwidth : config_.writeBandwidth;
    double divisor = 1.0 + externalLoad(at) +
                     config_.selfLoadWeight * selfLoad(at);
    return base * healthFactor_ / divisor;
}

DeviceAccess
StorageDevice::access(uint64_t bytes, bool is_read, double at)
{
    decayTo(at);
    double bw = effectiveBandwidth(is_read, at);
    double transfer = static_cast<double>(bytes) / bw;
    DeviceAccess result;
    result.duration = config_.accessLatency + transfer;
    result.throughput = static_cast<double>(bytes) / result.duration;
    result.loadFactor = externalLoad(at) +
                        config_.selfLoadWeight * selfLoad(at);

    // The access occupies the device: feed its duration into the
    // self-contention accumulator (normalized by the time constant so
    // sustained saturation converges to a load factor near 1).
    busyLoad_ += result.duration / config_.selfLoadTau;

    throughputStats_.add(result.throughput);
    ++accessCount_;
    return result;
}

DeviceAccess
StorageDevice::failAccess(double at)
{
    decayTo(at);
    DeviceAccess result;
    result.duration = config_.errorLatency;
    result.throughput = 0.0;
    result.loadFactor = externalLoad(at) +
                        config_.selfLoadWeight * selfLoad(at);
    result.failed = true;

    // A zero-throughput sample: the measured mean of a failing device
    // collapses, which is the signal placement logic adapts to.
    throughputStats_.add(0.0);
    ++accessCount_;
    ++failedAccessCount_;
    return result;
}

void
StorageDevice::addBusyTime(double at, double seconds)
{
    if (seconds <= 0.0)
        return;
    decayTo(at);
    busyLoad_ += seconds / config_.selfLoadTau;
}

bool
StorageDevice::reserve(uint64_t bytes)
{
    if (bytes > freeBytes())
        return false;
    usedBytes_ += bytes;
    return true;
}

void
StorageDevice::release(uint64_t bytes)
{
    usedBytes_ -= std::min(usedBytes_, bytes);
}

void
StorageDevice::saveState(util::StateWriter &w) const
{
    w.u64("dev.used_bytes", usedBytes_);
    w.f64("dev.busy_load", busyLoad_);
    w.f64("dev.last_busy_update", lastBusyUpdate_);
    w.stat("dev.throughput", throughputStats_);
    w.u64("dev.accesses", accessCount_);
    w.u64("dev.failed_accesses", failedAccessCount_);
    w.boolean("dev.offline", offline_);
    w.f64("dev.health", healthFactor_);
    w.boolean("dev.writable", config_.writable);
}

void
StorageDevice::loadState(util::StateReader &r)
{
    uint64_t used = r.u64("dev.used_bytes");
    double busy = r.f64("dev.busy_load");
    double last_busy = r.f64("dev.last_busy_update");
    StatAccumulator::State stats = r.stat("dev.throughput");
    uint64_t accesses = r.u64("dev.accesses");
    uint64_t failed = r.u64("dev.failed_accesses");
    bool offline = r.boolean("dev.offline");
    double health = r.f64("dev.health");
    bool writable = r.boolean("dev.writable");
    if (!r.ok())
        return;
    usedBytes_ = used;
    busyLoad_ = busy;
    lastBusyUpdate_ = last_busy;
    throughputStats_.restore(stats);
    accessCount_ = accesses;
    failedAccessCount_ = failed;
    offline_ = offline;
    healthFactor_ = health;
    config_.writable = writable;
}

} // namespace storage
} // namespace geo
