/**
 * @file
 * The ReplayDB: Geomancy's SQLite-backed performance history.
 *
 * As in the paper (Section V-A), the ReplayDB lives outside the target
 * system, stores every performance sample the monitoring agents
 * collect, and records each layout action with a timestamp so the
 * evolution of layout vs. performance can be replayed. Training batches
 * are windows of the most recent accesses.
 */

#ifndef GEO_CORE_REPLAY_DB_HH
#define GEO_CORE_REPLAY_DB_HH

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/perf_record.hh"

struct sqlite3;
struct sqlite3_stmt;

namespace geo {
namespace util {
class Counter;
} // namespace util
} // namespace geo

namespace geo {
namespace core {

/** A recorded layout action (file movement). */
struct MovementRecord
{
    int64_t id = 0;
    double timestamp = 0.0;
    storage::FileId file = 0;
    storage::DeviceId fromDevice = 0;
    storage::DeviceId toDevice = 0;
    uint64_t bytes = 0;
    double seconds = 0.0; ///< transfer duration
};

/** Outcome of one recorded migration attempt. */
enum class AttemptOutcome {
    Applied = 0,   ///< the move completed
    Skipped = 1,   ///< invalid request, not executed (with reason)
    Failed = 2,    ///< fault aborted the attempt; a retry is pending
    Abandoned = 3, ///< fault aborted and the retry budget/deadline ran out
    Superseded = 4, ///< a newer request for the file replaced the retry
};

/** Printable name of an attempt outcome. */
const char *attemptOutcomeName(AttemptOutcome outcome);

/**
 * One migration attempt (including retries), logged so the full
 * retry history of every move survives a crash and can be replayed.
 */
struct MoveAttemptRecord
{
    int64_t id = 0;
    double timestamp = 0.0;
    storage::FileId file = 0;
    storage::DeviceId fromDevice = 0;
    storage::DeviceId toDevice = 0;
    int attempt = 1; ///< 1-based attempt number for this move
    AttemptOutcome outcome = AttemptOutcome::Applied;
    storage::MoveFail reason = storage::MoveFail::None;
    uint64_t bytesCopied = 0; ///< bytes landed before the abort
};

/** A fault-schedule transition (episode begins or ends). */
struct FaultEventRecord
{
    int64_t id = 0;
    double timestamp = 0.0;
    storage::DeviceId device = 0;
    int kind = 0;           ///< storage::FaultKind as int
    bool active = false;    ///< episode begins (true) or ends (false)
    double magnitude = 0.0; ///< error probability / bandwidth factor
};

/**
 * Per-table high-water row ids: a consistent cut of the database.
 *
 * A checkpoint records the watermark at the end of a decision cycle;
 * rewindTo() discards everything a crashed process appended after that
 * cut so the resumed run replays it identically.
 */
struct ReplayDbWatermark
{
    int64_t accesses = 0;
    int64_t movements = 0;
    int64_t moveAttempts = 0;
    int64_t faultEvents = 0;
};

/**
 * SQLite-backed store of performance and movement history.
 */
class ReplayDb
{
  public:
    /**
     * Open (creating schema if needed).
     * @param path file path, or ":memory:" for an in-memory database.
     */
    explicit ReplayDb(const std::string &path = ":memory:");
    ~ReplayDb();

    ReplayDb(const ReplayDb &) = delete;
    ReplayDb &operator=(const ReplayDb &) = delete;

    /** Insert one access sample; returns its row id. */
    int64_t insertAccess(const PerfRecord &record);

    /** Insert many samples in one transaction. */
    void insertAccesses(const std::vector<PerfRecord> &records);

    /** Total stored access samples. */
    int64_t accessCount() const;

    /** Most recent `limit` accesses observed on one device. */
    std::vector<PerfRecord> recentAccessesForDevice(
        storage::DeviceId device, size_t limit) const;

    /** Most recent `limit` accesses of one file. */
    std::vector<PerfRecord> recentAccessesForFile(storage::FileId file,
                                                  size_t limit) const;

    /** The single most recent access of a file, if any. */
    bool latestAccessForFile(storage::FileId file, PerfRecord &out) const;

    /** Mean measured throughput per device over the last `limit`
     *  samples (devices with no samples are absent). */
    std::vector<std::pair<storage::DeviceId, double>>
    deviceThroughput(size_t limit) const;

    /**
     * Mean measured throughput and sample count per device over every
     * access with row id > `min_id`, ordered by device. The decision
     * ledger joins these realized windows against its recorded
     * predictions (a watermark pins the window start).
     */
    std::vector<std::tuple<storage::DeviceId, double, int64_t>>
    deviceThroughputSince(int64_t min_id) const;

    /** Record a layout action. */
    int64_t insertMovement(const MovementRecord &movement);

    int64_t movementCount() const;

    /** Most recent `limit` movements, oldest first. */
    std::vector<MovementRecord> recentMovements(size_t limit) const;

    /** Record one migration attempt (success, skip, failure, ...). */
    int64_t insertMoveAttempt(const MoveAttemptRecord &attempt);

    int64_t moveAttemptCount() const;

    /** Most recent `limit` attempts, oldest first. */
    std::vector<MoveAttemptRecord> recentMoveAttempts(size_t limit) const;

    /** Record a fault-schedule transition. */
    int64_t insertFaultEvent(const FaultEventRecord &event);

    int64_t faultEventCount() const;

    /** Current high-water row id of every table. */
    ReplayDbWatermark watermark() const;

    /**
     * Discard every row appended after `wm` and reset the
     * AUTOINCREMENT sequences, so rows inserted after the rewind get
     * the same ids an uninterrupted run would have assigned.
     */
    void rewindTo(const ReplayDbWatermark &wm);

    /**
     * Whether the constructor fell back to an empty in-memory database
     * because `path` could not be opened or failed its integrity check.
     */
    bool openedCorrupt() const { return openedCorrupt_; }

    /**
     * Delete a file-backed database at `path` together with its SQLite
     * side files (rollback journal, WAL, shared memory), so a fresh
     * run does not reopen — or replay a hot journal into — old state.
     * Missing files are fine.
     */
    static void removeFiles(const std::string &path);

  private:
    sqlite3 *db_ = nullptr;
    sqlite3_stmt *insertAccessStmt_ = nullptr;
    sqlite3_stmt *insertMovementStmt_ = nullptr;
    sqlite3_stmt *insertAttemptStmt_ = nullptr;
    sqlite3_stmt *insertFaultStmt_ = nullptr;
    bool openedCorrupt_ = false;
    util::Counter *readCorruptMetric_ = nullptr;

    void exec(const std::string &sql);
    std::vector<PerfRecord> queryAccesses(const std::string &sql,
                                          int64_t bind0, size_t limit) const;
    /** MAX(id) of one table (0 when empty). */
    int64_t maxRowId(const char *table) const;
    /** Log and count a SELECT loop that ended in an error, not DONE. */
    void noteReadCorrupt(const char *where) const;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_REPLAY_DB_HH
