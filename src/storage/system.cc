#include "storage/system.hh"

#include <algorithm>

#include "storage/fault_injector.hh"
#include "util/logging.hh"

namespace geo {
namespace storage {

const char *
moveFailName(MoveFail reason)
{
    switch (reason) {
      case MoveFail::None:
        return "none";
      case MoveFail::SameDevice:
        return "same-device";
      case MoveFail::NoSuchDevice:
        return "no-such-device";
      case MoveFail::NotWritable:
        return "not-writable";
      case MoveFail::CapacityFull:
        return "capacity-full";
      case MoveFail::SourceOffline:
        return "source-offline";
      case MoveFail::TargetOffline:
        return "target-offline";
      case MoveFail::TransientFault:
        return "transient-fault";
    }
    return "unknown";
}

bool
moveFailRetryable(MoveFail reason)
{
    return reason == MoveFail::SourceOffline ||
           reason == MoveFail::TargetOffline ||
           reason == MoveFail::TransientFault;
}

StorageSystem::StorageSystem(SystemConfig config) : config_(config)
{
    if (config_.networkBandwidth <= 0.0)
        panic("StorageSystem: non-positive network bandwidth");
}

void
StorageSystem::attachFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    if (injector_)
        injector_->advanceTo(clock_.now());
}

DeviceId
StorageSystem::addDevice(const DeviceConfig &config)
{
    DeviceId id = static_cast<DeviceId>(devices_.size());
    devices_.emplace_back(id, config);
    return id;
}

StorageDevice &
StorageSystem::device(DeviceId id)
{
    if (id >= devices_.size())
        panic("device %u out of range (%zu devices)", id, devices_.size());
    return devices_[id];
}

const StorageDevice &
StorageSystem::device(DeviceId id) const
{
    if (id >= devices_.size())
        panic("device %u out of range (%zu devices)", id, devices_.size());
    return devices_[id];
}

DeviceId
StorageSystem::deviceByName(const std::string &name) const
{
    for (const StorageDevice &dev : devices_)
        if (dev.name() == name)
            return dev.id();
    panic("no device named '%s'", name.c_str());
}

std::vector<DeviceId>
StorageSystem::deviceIds() const
{
    std::vector<DeviceId> ids(devices_.size());
    for (size_t i = 0; i < devices_.size(); ++i)
        ids[i] = static_cast<DeviceId>(i);
    return ids;
}

FileId
StorageSystem::addFile(const std::string &name, uint64_t size_bytes,
                       DeviceId location)
{
    StorageDevice &dev = device(location);
    if (!dev.reserve(size_bytes))
        panic("addFile: device %s cannot hold %llu bytes",
              dev.name().c_str(),
              static_cast<unsigned long long>(size_bytes));
    FileObject file;
    file.id = files_.size();
    file.name = name;
    file.sizeBytes = size_bytes;
    file.location = location;
    files_.push_back(std::move(file));
    return files_.back().id;
}

const FileObject &
StorageSystem::file(FileId id) const
{
    if (id >= files_.size())
        panic("file %llu out of range (%zu files)",
              static_cast<unsigned long long>(id), files_.size());
    return files_[id];
}

std::vector<FileId>
StorageSystem::fileIds() const
{
    std::vector<FileId> ids(files_.size());
    for (size_t i = 0; i < files_.size(); ++i)
        ids[i] = i;
    return ids;
}

DeviceId
StorageSystem::location(FileId id) const
{
    return file(id).location;
}

AccessObservation
StorageSystem::access(FileId id, uint64_t bytes, bool is_read)
{
    return serve(id, bytes, is_read, /*advance_clock=*/true);
}

AccessObservation
StorageSystem::accessConcurrent(FileId id, uint64_t bytes, bool is_read)
{
    return serve(id, bytes, is_read, /*advance_clock=*/false);
}

AccessObservation
StorageSystem::serve(FileId id, uint64_t bytes, bool is_read,
                     bool advance_clock)
{
    const FileObject &f = file(id);
    StorageDevice &dev = device(f.location);

    double start = clock_.now();
    if (injector_)
        injector_->advanceTo(start);
    DeviceAccess result;
    if (!dev.available() ||
        (injector_ && injector_->shouldFailAccess(dev.id()))) {
        result = dev.failAccess(start);
    } else {
        result = dev.access(bytes, is_read, start);
    }

    AccessObservation obs;
    obs.file = id;
    obs.device = f.location;
    obs.readBytes = is_read ? bytes : 0;
    obs.writtenBytes = is_read ? 0 : bytes;
    obs.startTime = start;
    if (advance_clock) {
        clock_.advance(result.duration);
        obs.endTime = clock_.now();
    } else {
        // Overlapping client: the device pays, the global clock does not.
        obs.endTime = start + result.duration;
    }
    obs.throughput = result.throughput;
    obs.failed = result.failed;

    for (const auto &observer : accessObservers_)
        observer(obs);
    return obs;
}

MoveResult
StorageSystem::moveFile(FileId id, DeviceId target)
{
    return moveFileChunked(id, target, UINT64_MAX);
}

MoveResult
StorageSystem::moveFileChunked(FileId id, DeviceId target,
                               uint64_t chunk_bytes)
{
    if (chunk_bytes == 0)
        panic("moveFileChunked: chunk_bytes must be >= 1");
    FileObject &f = files_.at(id);
    MoveResult result;
    result.from = f.location;
    result.to = target;
    result.bytes = f.sizeBytes;

    if (injector_)
        injector_->advanceTo(clock_.now());
    if (target >= devices_.size()) {
        warn("moveFileChunked: target device %u does not exist", target);
        result.reason = MoveFail::NoSuchDevice;
        return result;
    }
    if (target == f.location) {
        result.reason = MoveFail::SameDevice;
        return result;
    }

    StorageDevice &src = device(f.location);
    StorageDevice &dst = device(target);
    if (!src.available() || !dst.available()) {
        result.failed = true;
        result.reason = src.available() ? MoveFail::TargetOffline
                                        : MoveFail::SourceOffline;
        ++abortedMoves_;
        return result;
    }
    if (!dst.writable()) {
        warn("moveFileChunked: device %s is not writable",
             dst.name().c_str());
        result.reason = MoveFail::NotWritable;
        return result;
    }
    if (!dst.reserve(f.sizeBytes)) {
        result.reason = MoveFail::CapacityFull;
        return result;
    }

    // Each chunk is priced at the effective bandwidth when it begins,
    // so a contention episode arriving mid-move lengthens only the
    // remaining chunks — and a fault arriving mid-move aborts the
    // transfer partway, with the bytes already copied wasted (busy
    // time on both devices is still paid).
    uint64_t remaining = f.sizeBytes;
    double chunk_start = clock_.now();
    while (remaining > 0) {
        if (injector_)
            injector_->advanceTo(chunk_start);
        MoveFail abort = MoveFail::None;
        if (!src.available())
            abort = MoveFail::SourceOffline;
        else if (!dst.available())
            abort = MoveFail::TargetOffline;
        else if (injector_ && (injector_->shouldFailAccess(src.id()) ||
                               injector_->shouldFailAccess(dst.id())))
            abort = MoveFail::TransientFault;
        if (abort != MoveFail::None) {
            dst.release(f.sizeBytes);
            result.failed = true;
            result.reason = abort;
            result.bytesCopied = f.sizeBytes - remaining;
            ++abortedMoves_;
            abortedBytes_ += result.bytesCopied;
            if (!config_.backgroundMoves)
                clock_.advance(result.seconds);
            warn("moveFileChunked: move of file %llu to %s aborted "
                 "after %llu/%llu bytes (%s)",
                 static_cast<unsigned long long>(id),
                 dst.name().c_str(),
                 static_cast<unsigned long long>(result.bytesCopied),
                 static_cast<unsigned long long>(f.sizeBytes),
                 moveFailName(abort));
            return result;
        }
        uint64_t chunk = std::min(remaining, chunk_bytes);
        double bw = std::min({src.effectiveBandwidth(true, chunk_start),
                              dst.effectiveBandwidth(false, chunk_start),
                              config_.networkBandwidth});
        double seconds = static_cast<double>(chunk) / bw;
        src.addBusyTime(chunk_start, seconds);
        dst.addBusyTime(chunk_start, seconds);
        result.seconds += seconds;
        chunk_start += seconds; // chunks are sequential in time
        remaining -= chunk;
        // Kill point: die with the transfer part-done — capacity
        // reserved on the target, busy time paid, nothing logged.
        if (injector_)
            injector_->maybeCrash(CrashPoint::MidMigration);
    }
    if (!config_.backgroundMoves)
        clock_.advance(result.seconds);

    src.release(f.sizeBytes);
    f.location = target;
    result.moved = true;
    result.bytesCopied = f.sizeBytes;
    migratedBytes_ += f.sizeBytes;
    ++migrationCount_;

    for (const auto &observer : moveObservers_)
        observer(result);
    return result;
}

void
StorageSystem::onAccess(
    std::function<void(const AccessObservation &)> observer)
{
    accessObservers_.push_back(std::move(observer));
}

void
StorageSystem::onMove(std::function<void(const MoveResult &)> observer)
{
    moveObservers_.push_back(std::move(observer));
}

std::map<FileId, DeviceId>
StorageSystem::layout() const
{
    std::map<FileId, DeviceId> out;
    for (const FileObject &f : files_)
        out[f.id] = f.location;
    return out;
}

std::vector<size_t>
StorageSystem::filesPerDevice() const
{
    std::vector<size_t> counts(devices_.size(), 0);
    for (const FileObject &f : files_)
        ++counts[f.location];
    return counts;
}

void
StorageSystem::saveState(util::StateWriter &w) const
{
    w.f64("sys.clock", clock_.now());
    w.u64("sys.migrated_bytes", migratedBytes_);
    w.u64("sys.migrations", migrationCount_);
    w.u64("sys.aborted_moves", abortedMoves_);
    w.u64("sys.aborted_bytes", abortedBytes_);
    w.u64("sys.files", files_.size());
    for (const FileObject &f : files_)
        w.u64("file.location", f.location);
    w.u64("sys.devices", devices_.size());
    for (const StorageDevice &dev : devices_)
        dev.saveState(w);
}

void
StorageSystem::loadState(util::StateReader &r)
{
    double now = r.f64("sys.clock");
    uint64_t migrated = r.u64("sys.migrated_bytes");
    uint64_t migrations = r.u64("sys.migrations");
    uint64_t aborted_moves = r.u64("sys.aborted_moves");
    uint64_t aborted_bytes = r.u64("sys.aborted_bytes");
    if (r.u64("sys.files") != files_.size()) {
        r.fail("system: file count changed since the checkpoint");
        return;
    }
    std::vector<DeviceId> locations;
    locations.reserve(files_.size());
    for (size_t i = 0; i < files_.size() && r.ok(); ++i)
        locations.push_back(
            static_cast<DeviceId>(r.u64("file.location")));
    if (r.u64("sys.devices") != devices_.size()) {
        r.fail("system: device count changed since the checkpoint");
        return;
    }
    if (!r.ok())
        return;
    // Device states carry the used-bytes accounting, so restore the
    // layout first and let the device snapshots overwrite usage.
    for (size_t i = 0; i < files_.size(); ++i)
        files_[i].location = locations[i];
    for (StorageDevice &dev : devices_)
        dev.loadState(r);
    if (!r.ok())
        return;
    clock_.reset();
    clock_.advanceTo(now);
    migratedBytes_ = migrated;
    migrationCount_ = migrations;
    abortedMoves_ = aborted_moves;
    abortedBytes_ = aborted_bytes;
}

} // namespace storage
} // namespace geo
