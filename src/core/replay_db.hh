/**
 * @file
 * The ReplayDB: Geomancy's SQLite-backed performance history.
 *
 * As in the paper (Section V-A), the ReplayDB lives outside the target
 * system, stores every performance sample the monitoring agents
 * collect, and records each layout action with a timestamp so the
 * evolution of layout vs. performance can be replayed. Training batches
 * are windows of the most recent accesses.
 *
 * SQLite is the system of record. In front of it sit two caches of
 * rows this instance read or wrote itself: per device, a ring of the
 * newest accesses stored as columns (row id, the six features, the
 * throughput), which serves the training window; and per file, its
 * newest access. Each fills from SQLite on first use, insertAccesses()
 * keeps both current after its COMMIT, and rewindTo() drops them. They
 * hold exactly what SQLite would return, so a decision reads the same
 * rows, in the same order, with the same bits.
 */

#ifndef GEO_CORE_REPLAY_DB_HH
#define GEO_CORE_REPLAY_DB_HH

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
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
 * The newest accesses of one device, oldest first, as a view into
 * ReplayDb's ring for that device. Valid until the next insert or
 * rewind, or until a window request refills this device's ring.
 */
class AccessWindow
{
  public:
    size_t size() const { return size_; }
    int64_t id(size_t i) const { return ids_[slot(i)]; }
    /** The row's PerfRecord::features(). */
    const std::array<double, kLiveFeatureCount> &
    features(size_t i) const
    {
        return features_[slot(i)];
    }
    double throughput(size_t i) const { return throughput_[slot(i)]; }

  private:
    friend class ReplayDb;
    const int64_t *ids_ = nullptr;
    const std::array<double, kLiveFeatureCount> *features_ = nullptr;
    const double *throughput_ = nullptr;
    size_t slots_ = 0; ///< slots in use; the window wraps at this
    size_t first_ = 0; ///< slot of the window's oldest row
    size_t size_ = 0;

    size_t
    slot(size_t i) const
    {
        size_t s = first_ + i;
        return s < slots_ ? s : s - slots_;
    }
};

/**
 * SQLite-backed store of performance and movement history.
 *
 * One thread per instance: the reads fill the caches, so even const
 * calls write; like the SQLite connection itself, an instance stays on
 * the thread that uses it (DESIGN.md §12).
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

    /**
     * Insert samples in one transaction, each full block of
     * kInsertBlockRows through one multi-row INSERT and the rest one
     * by one; then bring the caches up to date. Row ids follow the
     * order of `records`.
     */
    void insertAccesses(const std::vector<PerfRecord> &records);

    /** Rows per multi-row INSERT: one monitoring batch. */
    static constexpr size_t kInsertBlockRows = 32;

    /** Total stored access samples. */
    int64_t accessCount() const;

    /**
     * The most recent `limit` accesses observed on one device, from
     * the device's ring. The ring fills from SQLite when first asked,
     * and again when asked for more rows than it was filled for.
     */
    AccessWindow deviceWindow(storage::DeviceId device,
                              size_t limit) const;

    /** Most recent `limit` accesses of one file. */
    std::vector<PerfRecord> recentAccessesForFile(storage::FileId file,
                                                  size_t limit) const;

    /** The single most recent access of a file, if any (cached). */
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
     * the same ids an uninterrupted run would have assigned. Drops the
     * caches; the next read refills them.
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
    /** A device's newest rows as columns: a ring once it is full. */
    struct DeviceRing
    {
        size_t capacity = 0; ///< rows the fill asked SQLite for
        size_t head = 0;     ///< slot of the oldest row once full
        std::vector<int64_t> ids;
        std::vector<std::array<double, kLiveFeatureCount>> features;
        std::vector<double> throughput;

        void push(const PerfRecord &record);
    };

    sqlite3 *db_ = nullptr;
    sqlite3_stmt *insertAccessStmt_ = nullptr;
    sqlite3_stmt *insertBlockStmt_ = nullptr;
    sqlite3_stmt *beginStmt_ = nullptr;
    sqlite3_stmt *commitStmt_ = nullptr;
    sqlite3_stmt *insertMovementStmt_ = nullptr;
    sqlite3_stmt *insertAttemptStmt_ = nullptr;
    sqlite3_stmt *insertFaultStmt_ = nullptr;
    bool openedCorrupt_ = false;
    util::Counter *readCorruptMetric_ = nullptr;
    util::Counter *cacheFillsMetric_ = nullptr;

    mutable std::unordered_map<storage::DeviceId, DeviceRing> rings_;
    /** Each file's newest row; id 0 marks a file with no rows. */
    mutable std::unordered_map<storage::FileId, PerfRecord> latest_;

    /** Insert one access sample outside any transaction of its own;
     *  returns its row id. Caches are the caller's to update. */
    int64_t insertAccess(const PerfRecord &record);

    /** Most recent `limit` accesses observed on one device: the ring
     *  fill. */
    std::vector<PerfRecord> recentAccessesForDevice(
        storage::DeviceId device, size_t limit, bool *complete) const;

    void exec(const std::string &sql);
    /** Step a prepared statement that returns no rows, then reset it. */
    void stepDone(sqlite3_stmt *stmt, const char *what);
    /** The newest `limit` access rows whose `key_column` equals
     *  `key`, oldest first; `complete` (if given) says whether the
     *  read ran to its end. */
    std::vector<PerfRecord> queryAccesses(const char *key_column,
                                          int64_t key, size_t limit,
                                          bool *complete = nullptr) const;
    /** MAX(id) of one table (0 when empty). */
    int64_t maxRowId(const char *table) const;
    /** Log and count a SELECT loop that ended in an error, not DONE. */
    void noteReadCorrupt(const char *where) const;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_REPLAY_DB_HH
