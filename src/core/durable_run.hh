/**
 * @file
 * One checkpointed run, end to end: the one place the protocol lives
 * that makes a crashed and restarted run byte-identical to an
 * uninterrupted one (DESIGN.md §8).
 */

#ifndef GEO_CORE_DURABLE_RUN_HH
#define GEO_CORE_DURABLE_RUN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "storage/fault_injector.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {

class Geomancy;

/**
 * The run directory of one attempt: the snapshots, the file-backed
 * ReplayDB they point into and the ledgers the caller names.
 */
class DurableRun
{
  public:
    /**
     * Open `dir` (created if missing; fatal if it cannot be). Unless
     * `resume`, start fresh: delete every snapshot, `replay.db` and the
     * DBs of `shards` shards with their SQLite side files, and
     * `ledgers`. A resume keeps them all.
     */
    DurableRun(const std::string &dir, bool resume,
               const std::vector<std::string> &ledgers = {},
               size_t shards = 0);

    /** `<dir>/replay.db`; a ShardCoordinator derives its shards' DBs
     *  from it. */
    const std::string &dbPath() const { return dbPath_; }

    /** Arm `point` at `cycle` on attempt 0 of a fresh start only, so a
     *  restarted attempt runs disarmed and a supervised run ends. */
    static void armKillPoint(storage::FaultInjector &injector,
                             storage::CrashPoint point, uint64_t cycle,
                             int attempt, bool resume);

    /** What restore() found. */
    struct Restored
    {
        bool loaded = false; ///< a snapshot validated and loaded
        std::string path;    ///< its file
        CheckpointHeader header;
        double ms = 0.0; ///< load, rewind and reconcile
    };

    /**
     * Hand the newest snapshot that validates to `load`, which reads
     * every section in snapshot order, then rebuild each unit's
     * pending retries. A snapshot that passed its CRC but fails to
     * load is fatal, naming the file: a partial restore diverges
     * silently. When nothing validates, `load` is not called; the
     * snapshots go and each unit's ReplayDB rewinds to empty, so the
     * attempt goes on as a fresh start.
     */
    Restored restore(const std::function<void(util::StateReader &)> &load,
                     const std::vector<Geomancy *> &units);

    /**
     * Commit `payload`, a cut the caller already serialized, as the
     * snapshot for `cycle`; then pass the after-commit kill point, but
     * only if the write succeeded. @return false when it failed.
     */
    bool commit(uint64_t cycle, const std::string &payload,
                storage::FaultInjector &injector);

  private:
    CheckpointManager manager_;
    std::string dbPath_;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_DURABLE_RUN_HH
