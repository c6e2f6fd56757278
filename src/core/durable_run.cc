#include "core/durable_run.hh"

#include <chrono>
#include <filesystem>
#include <sstream>

#include "core/geomancy.hh"
#include "core/shard_coordinator.hh"
#include "util/logging.hh"

namespace geo {
namespace core {

DurableRun::DurableRun(const std::string &dir, bool resume,
                       const std::vector<std::string> &ledgers,
                       size_t shards)
    : manager_({dir}), dbPath_(dir + "/replay.db")
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create %s: %s", dir.c_str(), ec.message().c_str());
    if (resume)
        return;
    manager_.clear();
    ReplayDb::removeFiles(dbPath_);
    for (size_t s = 0; s < shards; ++s)
        ReplayDb::removeFiles(ShardCoordinator::dbPath(dbPath_, s));
    for (const std::string &path : ledgers)
        std::filesystem::remove(path, ec);
}

void
DurableRun::armKillPoint(storage::FaultInjector &injector,
                         storage::CrashPoint point, uint64_t cycle,
                         int attempt, bool resume)
{
    if (point != storage::CrashPoint::None && attempt == 0 && !resume)
        injector.armCrash(point, cycle);
}

DurableRun::Restored
DurableRun::restore(const std::function<void(util::StateReader &)> &load,
                    const std::vector<Geomancy *> &units)
{
    auto started = std::chrono::steady_clock::now();
    Restored out;
    std::string payload;
    if (!manager_.loadLatest(out.header, payload, &out.path)) {
        // The DBs are already open, so they rewind instead of going.
        manager_.clear();
        for (Geomancy *unit : units)
            unit->replayDb().rewindTo({});
        return out;
    }
    std::istringstream is(payload);
    util::StateReader r(is);
    load(r);
    if (!r.ok())
        fatal("checkpoint %s does not match this configuration: %s",
              out.path.c_str(), r.error().c_str());
    for (Geomancy *unit : units)
        unit->controlAgent().restorePending();
    out.loaded = true;
    out.ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - started)
                 .count();
    return out;
}

bool
DurableRun::commit(uint64_t cycle, const std::string &payload,
                   storage::FaultInjector &injector)
{
    if (!manager_.write(cycle, payload))
        return false;
    injector.maybeCrash(storage::CrashPoint::AfterCommit);
    return true;
}

} // namespace core
} // namespace geo
