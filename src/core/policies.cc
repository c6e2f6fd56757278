#include "core/policies.hh"

#include <algorithm>

#include "util/logging.hh"

namespace geo {
namespace core {

namespace {

/** Usage of a file, defaulting to "never used". */
FileUsage
usageOf(const PolicyContext &context, storage::FileId file)
{
    auto it = context.usage.find(file);
    return it == context.usage.end() ? FileUsage{} : it->second;
}

/**
 * Devices a baseline may target right now, mirroring the Action
 * Checker's validity rules for Geomancy: offline, read-only or
 * degraded below kMinHealthFactor are skipped (per-file capacity stays
 * with moveFile itself). Without this the fastest-first grouping
 * keeps assigning files to a mount the fault injector took down,
 * wasting every one of those moves.
 */
std::vector<storage::DeviceId>
usableDevices(const PolicyContext &context,
              const std::vector<storage::DeviceId> &devices)
{
    std::vector<storage::DeviceId> usable;
    usable.reserve(devices.size());
    for (storage::DeviceId id : devices) {
        const storage::StorageDevice &dev = context.system.device(id);
        if (!dev.available() || !dev.writable() ||
            dev.healthFactor() < kMinHealthFactor)
            continue;
        usable.push_back(id);
    }
    return usable;
}

} // namespace

size_t
GroupedHeuristicPolicy::rebalance(PolicyContext &context)
{
    if (context.files.empty() || context.devicesFastestFirst.empty())
        return 0;

    std::vector<storage::FileId> files = context.files;
    std::vector<storage::DeviceId> devices =
        usableDevices(context, context.devicesFastestFirst);
    if (devices.empty())
        return 0; // every device offline/degraded: hold the layout
    orderFiles(files, devices, context);

    // Even group boundaries: files that do not divide evenly land on
    // the slowest device, as in the paper's setup.
    std::vector<size_t> group_end(devices.size(), 0);
    size_t group_size = files.size() / devices.size();
    for (size_t g = 0; g < devices.size(); ++g)
        group_end[g] = group_size == 0 ? 0 : (g + 1) * group_size;
    group_end.back() = files.size();

    size_t moved = 0;
    size_t group = 0;
    for (size_t i = 0; i < files.size(); ++i) {
        while (group + 1 < devices.size() && i >= group_end[group])
            ++group;
        storage::DeviceId target = devices[group];
        if (context.system.location(files[i]) != target) {
            if (context.system.moveFile(files[i], target).moved)
                ++moved;
        }
    }
    return moved;
}

void
LruPolicy::orderFiles(std::vector<storage::FileId> &files,
                      std::vector<storage::DeviceId> &devices,
                      const PolicyContext &context)
{
    (void)devices; // fastest-first order already correct
    std::sort(files.begin(), files.end(),
              [&](storage::FileId a, storage::FileId b) {
                  return usageOf(context, a).lastAccessIndex >
                         usageOf(context, b).lastAccessIndex;
              });
}

void
MruPolicy::orderFiles(std::vector<storage::FileId> &files,
                      std::vector<storage::DeviceId> &devices,
                      const PolicyContext &context)
{
    // Most recently used files go to the *slowest* devices.
    std::sort(files.begin(), files.end(),
              [&](storage::FileId a, storage::FileId b) {
                  return usageOf(context, a).lastAccessIndex >
                         usageOf(context, b).lastAccessIndex;
              });
    std::reverse(devices.begin(), devices.end());
}

void
LfuPolicy::orderFiles(std::vector<storage::FileId> &files,
                      std::vector<storage::DeviceId> &devices,
                      const PolicyContext &context)
{
    (void)devices;
    std::sort(files.begin(), files.end(),
              [&](storage::FileId a, storage::FileId b) {
                  return usageOf(context, a).accessCount >
                         usageOf(context, b).accessCount;
              });
}

RandomPolicy::RandomPolicy(bool dynamic) : dynamic_(dynamic) {}

std::string
RandomPolicy::name() const
{
    return dynamic_ ? "random dynamic" : "random static";
}

size_t
RandomPolicy::rebalance(PolicyContext &context)
{
    if (!dynamic_ && placed_)
        return 0;
    placed_ = true;
    size_t moved = 0;
    // Draw over the usable devices only; with every device healthy the
    // list equals the full set, so fault-free runs consume the RNG
    // stream exactly as before.
    std::vector<storage::DeviceId> usable =
        usableDevices(context, context.system.deviceIds());
    if (usable.empty())
        return 0;
    for (storage::FileId file : context.files) {
        storage::DeviceId target = usable[static_cast<size_t>(
            context.rng.uniformInt(
                0, static_cast<int64_t>(usable.size()) - 1))];
        if (context.system.location(file) != target) {
            if (context.system.moveFile(file, target).moved)
                ++moved;
        }
    }
    return moved;
}

SingleMountPolicy::SingleMountPolicy(storage::DeviceId device)
    : device_(device)
{
}

std::string
SingleMountPolicy::name() const
{
    return strprintf("single-mount(%u)", device_);
}

size_t
SingleMountPolicy::rebalance(PolicyContext &context)
{
    if (placed_)
        return 0;
    placed_ = true;
    size_t moved = 0;
    for (storage::FileId file : context.files) {
        if (context.system.location(file) != device_) {
            if (context.system.moveFile(file, device_).moved)
                ++moved;
            else
                warn("SingleMountPolicy: could not move file %llu to %u",
                     static_cast<unsigned long long>(file), device_);
        }
    }
    return moved;
}

GeomancyDynamicPolicy::GeomancyDynamicPolicy(Geomancy &geomancy)
    : geomancy_(geomancy)
{
}

size_t
GeomancyDynamicPolicy::rebalance(PolicyContext &context)
{
    (void)context; // Geomancy consults its own ReplayDB
    lastReport_ = geomancy_.runCycle();
    return lastReport_.moves.applied;
}

ShardedGeomancyPolicy::ShardedGeomancyPolicy(ShardCoordinator &coordinator)
    : coordinator_(coordinator)
{
}

std::string
ShardedGeomancyPolicy::name() const
{
    return strprintf("Geomancy x%zu shards", coordinator_.shardCount());
}

size_t
ShardedGeomancyPolicy::rebalance(PolicyContext &context)
{
    (void)context; // every shard consults its own ReplayDB
    lastReports_ = coordinator_.runRound();
    size_t applied = 0;
    for (const CycleReport &report : lastReports_)
        applied += report.moves.applied;
    return applied;
}

GeomancyStaticPolicy::GeomancyStaticPolicy(Geomancy &geomancy)
    : geomancy_(geomancy)
{
}

size_t
GeomancyStaticPolicy::rebalance(PolicyContext &context)
{
    if (placed_)
        return 0;
    placed_ = true;
    std::vector<MoveRequest> layout = geomancy_.predictLayout();
    size_t moved = 0;
    for (const MoveRequest &req : layout) {
        if (context.system.moveFile(req.file, req.target).moved)
            ++moved;
    }
    return moved;
}

} // namespace core
} // namespace geo
