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
 * SQLite is the system of record, and the row id is each table's only
 * index: a monitoring batch pays one B-tree insert per row. In front
 * of SQLite sit rings of the newest rows this instance read or wrote
 * itself, one kind of cache under two keys: per device, the newest
 * accesses as training rows (row id, the six features, the
 * throughput), which serve the training window; and per file, its
 * newest accesses, which serve its latest row and the gap predictor's
 * history. A device's ring fills on a miss from a read of that
 * device's rows, the file rings from one backward pass over the table
 * that fills every file ring it passes; insertAccesses() keeps them
 * current after its COMMIT, and rewindTo() drops them. The rings hold
 * exactly what SQLite would return, so a decision reads the same rows,
 * in the same order, with the same bits.
 *
 * The constructor prepares every statement once, and the destructor
 * finalizes them all. Every SELECT steps through one row loop, which
 * resets its statement and, when a read ends early on an error, warns
 * and counts replaydb.read.corrupt; a failed insert is fatal.
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
 * rewind, or until a window request asks for more rows than any
 * request before it.
 */
class AccessWindow
{
  public:
    size_t size() const { return size_; }
    int64_t id(size_t i) const { return row(i).id; }
    /** The row's PerfRecord::features(). */
    const std::array<double, kLiveFeatureCount> &
    features(size_t i) const
    {
        return row(i).features;
    }
    double throughput(size_t i) const { return row(i).throughput; }

  private:
    friend class ReplayDb;

    /** What a training row reads of one access. */
    struct Row
    {
        Row() = default;
        explicit Row(const PerfRecord &record)
            : id(record.id), features(record.features()),
              throughput(record.throughput)
        {
        }
        int64_t id = 0;
        std::array<double, kLiveFeatureCount> features{};
        double throughput = 0.0;
    };

    const Row *rows_ = nullptr;
    size_t slots_ = 0; ///< the ring's slots; the window wraps at this
    size_t first_ = 0; ///< slot of the window's oldest row
    size_t size_ = 0;

    const Row &
    row(size_t i) const
    {
        size_t s = first_ + i;
        return rows_[s < slots_ ? s : s - slots_];
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
     * by one; then bring the rings up to date. Row ids follow the
     * order of `records`.
     */
    void insertAccesses(const std::vector<PerfRecord> &records);

    /** Rows per multi-row INSERT: one monitoring batch. */
    static constexpr size_t kInsertBlockRows = 32;

    /** Total stored access samples. */
    int64_t accessCount() const;

    /**
     * The most recent `limit` accesses observed on one device, from
     * the device's ring. The ring fills from SQLite when first asked;
     * a limit larger than any before refills every device's ring.
     */
    AccessWindow deviceWindow(storage::DeviceId device,
                              size_t limit) const;

    /**
     * The most recent `limit` accesses of one file, oldest first, from
     * the file's ring, which the file rings' shared backward pass
     * fills.
     */
    std::vector<PerfRecord> recentAccessesForFile(storage::FileId file,
                                                  size_t limit) const;

    /** The single most recent access of a file, if any (its ring). */
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
     * rings; the next read refills them.
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
    /**
     * One key's newest rows, oldest first from slot `begin` on, in a
     * circular buffer of `capacity` slots. A fill adds older rows in
     * front and insertAccesses() newer ones behind; once
     * every slot holds a row, a newer row replaces the oldest and an
     * older one is not kept. The slots never move, so a window stays
     * valid while a fill adds older rows.
     */
    template <typename Row>
    struct Ring
    {
        explicit Ring(size_t capacity) : slots(capacity) {}

        size_t begin = 0; ///< slot of the oldest row held
        size_t count = 0; ///< rows held
        std::vector<Row> slots;

        void pushOlder(const PerfRecord &record);
        void pushNewer(const PerfRecord &record);
        /** Slot of the oldest of the newest `limit` rows held. */
        size_t first(size_t limit) const;
    };

    /**
     * The rings of one key (a device or a file) and how a miss fills
     * them. Without an index, SQLite walks the table back from the
     * newest row either way; it skips a row of another key about five
     * times faster than it returns one.
     *
     * By key (devices: a few keys, each asked for thousands of rows),
     * a miss reads the asked key's newest `capacity` rows and nothing
     * else, and a ring, once filled, holds all of its key's rows or
     * its newest `capacity`. Inserts extend the filled rings only.
     *
     * By the pass (files: many keys, each asked for a few rows), a
     * miss goes on with one backward pass that offers each row,
     * newest first, to the ring of its key, so every ring holds its
     * key's newest rows among those at or above `below`: all of them,
     * or `capacity` of them. The pass stops when the asked ring has
     * enough, or at the first row (`below` 0). Inserts extend every
     * ring, starting one for a key the pass has not met.
     */
    template <typename Key, typename Row>
    struct RingSet
    {
        RingSet(Key PerfRecord::*field, int col, bool by_key)
            : key(field), column(col), byKey(by_key)
        {
        }

        Key PerfRecord::*key; ///< the field that keys the rings
        int column;           ///< ... and its column in a pass's row
        bool byKey;
        sqlite3_stmt *fill = nullptr; ///< the miss's read
        /** The largest limit asked so far, the most rows a ring
         *  holds (0: no read yet, so no rings); a larger limit drops
         *  the rings and starts over. */
        size_t capacity = 0;
        /** By the pass: the rings have seen every row at or above
         *  this id, the pass the older ones and inserts the newer. */
        int64_t below = 0;
        std::unordered_map<Key, Ring<Row>> rings;
        /** A by-key fill whose read ended early: served, not kept. */
        Ring<Row> unkept{0};

        /** After an insert: `record` is its key's newest row. */
        void pushNewer(const PerfRecord &record);
        /** Empty the rings; the pass starts over below `next`, one
         *  past the newest row. */
        void drop(int64_t next);
    };

    sqlite3 *db_ = nullptr;
    /** Every statement, prepared once by the constructor and
     *  finalized by the destructor. */
    std::vector<sqlite3_stmt *> statements_;
    sqlite3_stmt *insertAccessStmt_ = nullptr;
    sqlite3_stmt *insertBlockStmt_ = nullptr;
    sqlite3_stmt *beginStmt_ = nullptr;
    sqlite3_stmt *commitStmt_ = nullptr;
    sqlite3_stmt *insertMovementStmt_ = nullptr;
    sqlite3_stmt *insertAttemptStmt_ = nullptr;
    sqlite3_stmt *insertFaultStmt_ = nullptr;
    sqlite3_stmt *countAccessesStmt_ = nullptr;
    sqlite3_stmt *countAttemptsStmt_ = nullptr;
    sqlite3_stmt *countFaultsStmt_ = nullptr;
    sqlite3_stmt *deviceThroughputStmt_ = nullptr;
    sqlite3_stmt *throughputSinceStmt_ = nullptr;
    sqlite3_stmt *recentMovementsStmt_ = nullptr;
    sqlite3_stmt *recentAttemptsStmt_ = nullptr;
    sqlite3_stmt *watermarkStmt_ = nullptr;
    bool openedCorrupt_ = false;
    util::Counter *readCorruptMetric_ = nullptr;
    util::Counter *cacheFillsMetric_ = nullptr;
    /** Id of the newest access row; the next insert's is higher. */
    int64_t newestAccess_ = 0;

    mutable RingSet<storage::DeviceId, AccessWindow::Row> devices_{
        &PerfRecord::device, 2, /*by_key=*/true};
    mutable RingSet<storage::FileId, PerfRecord> files_{
        &PerfRecord::file, 1, /*by_key=*/false};

    /** Insert one access sample outside any transaction of its own;
     *  returns its row id. Rings are the caller's to update. */
    int64_t insertAccess(const PerfRecord &record);

    void exec(const std::string &sql);
    /** Prepare `sql` into statements_ (fatal on failure). */
    sqlite3_stmt *prepare(const std::string &sql);
    /** Step a prepared statement that returns no rows, then reset it. */
    void stepDone(sqlite3_stmt *stmt, const char *what);
    /**
     * The one row loop: step a bound SELECT, hand each row to
     * `row(stmt)`, then reset the statement. A `row` that returns a
     * bool stops the read when it returns false. A read that ends in
     * an error instead of DONE is logged and counted in
     * replaydb.read.corrupt. Returns whether the read ran to its end.
     */
    template <typename RowFn>
    bool forEachRow(sqlite3_stmt *stmt, const char *what,
                    RowFn &&row) const;
    /**
     * The ring of `key` in `set`, holding at least `limit` rows or
     * every row of the key, filled first if needed (an empty ring for
     * a key with no rows). A fill that ends on a read error serves
     * what it read; a pass keeps it and the next read goes on from
     * there, a by-key fill is not kept.
     */
    template <typename Key, typename Row>
    const Ring<Row> &ringFor(RingSet<Key, Row> &set, Key key,
                             size_t limit) const;
    /** The single value of a COUNT(*) statement. */
    int64_t countOf(sqlite3_stmt *stmt, const char *what) const;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_REPLAY_DB_HH
