#include "core/replay_db.hh"

#include <sqlite3.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "util/logging.hh"
#include "util/metrics.hh"

namespace geo {
namespace core {

namespace {

/** Read one PerfRecord from the current row of a SELECT * statement. */
PerfRecord
readAccessRow(sqlite3_stmt *stmt)
{
    PerfRecord rec;
    rec.id = sqlite3_column_int64(stmt, 0);
    rec.file =
        static_cast<storage::FileId>(sqlite3_column_int64(stmt, 1));
    rec.device =
        static_cast<storage::DeviceId>(sqlite3_column_int64(stmt, 2));
    rec.rb = static_cast<uint64_t>(sqlite3_column_int64(stmt, 3));
    rec.wb = static_cast<uint64_t>(sqlite3_column_int64(stmt, 4));
    rec.ots = sqlite3_column_int64(stmt, 5);
    rec.otms = sqlite3_column_int64(stmt, 6);
    rec.cts = sqlite3_column_int64(stmt, 7);
    rec.ctms = sqlite3_column_int64(stmt, 8);
    rec.throughput = sqlite3_column_double(stmt, 9);
    rec.failed = sqlite3_column_int64(stmt, 10) != 0;
    return rec;
}

constexpr const char *kAccessColumns =
    "id, file_id, device_id, rb, wb, ots, otms, cts, ctms, throughput,"
    " failed";

} // namespace

const char *
attemptOutcomeName(AttemptOutcome outcome)
{
    switch (outcome) {
      case AttemptOutcome::Applied:
        return "applied";
      case AttemptOutcome::Skipped:
        return "skipped";
      case AttemptOutcome::Failed:
        return "failed";
      case AttemptOutcome::Abandoned:
        return "abandoned";
      case AttemptOutcome::Superseded:
        return "superseded";
    }
    return "unknown";
}

namespace {

/** Run PRAGMA quick_check and report whether the file is sound. */
bool
quickCheckOk(sqlite3 *db)
{
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db, "PRAGMA quick_check;", -1, &stmt,
                           nullptr) != SQLITE_OK)
        return false;
    bool ok = false;
    if (sqlite3_step(stmt) == SQLITE_ROW) {
        const unsigned char *text = sqlite3_column_text(stmt, 0);
        ok = text &&
             std::string(reinterpret_cast<const char *>(text)) == "ok";
    }
    sqlite3_finalize(stmt);
    return ok;
}

} // namespace

ReplayDb::ReplayDb(const std::string &path)
{
    readCorruptMetric_ =
        &util::MetricRegistry::global().counter("replaydb.read.corrupt");

    // A corrupt or truncated on-disk database must not take the whole
    // daemon down: the ReplayDB is a history cache that can be rebuilt
    // from live traffic, so degrade to an empty in-memory store.
    if (sqlite3_open(path.c_str(), &db_) != SQLITE_OK) {
        warn("ReplayDb: cannot open '%s': %s", path.c_str(),
             db_ ? sqlite3_errmsg(db_) : "out of memory");
        openedCorrupt_ = true;
    } else if (path != ":memory:" && !quickCheckOk(db_)) {
        warn("ReplayDb: '%s' failed its integrity check (corrupt or "
             "truncated file)", path.c_str());
        openedCorrupt_ = true;
    }
    if (openedCorrupt_) {
        util::MetricRegistry::global().counter("replaydb.open.corrupt")
            .inc();
        if (db_) {
            sqlite3_close(db_);
            db_ = nullptr;
        }
        warn("ReplayDb: falling back to an empty in-memory database");
        if (sqlite3_open(":memory:", &db_) != SQLITE_OK)
            fatal("ReplayDb: cannot open in-memory fallback: %s",
                  db_ ? sqlite3_errmsg(db_) : "out of memory");
    }

    exec("PRAGMA journal_mode = MEMORY;");
    exec("PRAGMA synchronous = OFF;");
    exec("CREATE TABLE IF NOT EXISTS accesses ("
         "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
         "  file_id INTEGER NOT NULL,"
         "  device_id INTEGER NOT NULL,"
         "  rb INTEGER NOT NULL,"
         "  wb INTEGER NOT NULL,"
         "  ots INTEGER NOT NULL,"
         "  otms INTEGER NOT NULL,"
         "  cts INTEGER NOT NULL,"
         "  ctms INTEGER NOT NULL,"
         "  throughput REAL NOT NULL,"
         "  failed INTEGER NOT NULL DEFAULT 0"
         ");");
    {
        // On-disk databases written before the fault model predate the
        // failed column; add it in place (a no-op error otherwise).
        char *err = nullptr;
        if (sqlite3_exec(db_,
                         "ALTER TABLE accesses ADD COLUMN failed"
                         " INTEGER NOT NULL DEFAULT 0;",
                         nullptr, nullptr, &err) != SQLITE_OK)
            sqlite3_free(err);
    }
    exec("CREATE INDEX IF NOT EXISTS idx_accesses_device"
         " ON accesses(device_id, id);");
    exec("CREATE INDEX IF NOT EXISTS idx_accesses_file"
         " ON accesses(file_id, id);");
    exec("CREATE TABLE IF NOT EXISTS movements ("
         "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
         "  timestamp REAL NOT NULL,"
         "  file_id INTEGER NOT NULL,"
         "  from_device INTEGER NOT NULL,"
         "  to_device INTEGER NOT NULL,"
         "  bytes INTEGER NOT NULL,"
         "  seconds REAL NOT NULL"
         ");");
    exec("CREATE TABLE IF NOT EXISTS move_attempts ("
         "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
         "  timestamp REAL NOT NULL,"
         "  file_id INTEGER NOT NULL,"
         "  from_device INTEGER NOT NULL,"
         "  to_device INTEGER NOT NULL,"
         "  attempt INTEGER NOT NULL,"
         "  outcome INTEGER NOT NULL,"
         "  reason INTEGER NOT NULL,"
         "  bytes_copied INTEGER NOT NULL"
         ");");
    exec("CREATE INDEX IF NOT EXISTS idx_attempts_file"
         " ON move_attempts(file_id, id);");
    exec("CREATE TABLE IF NOT EXISTS fault_events ("
         "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
         "  timestamp REAL NOT NULL,"
         "  device_id INTEGER NOT NULL,"
         "  kind INTEGER NOT NULL,"
         "  active INTEGER NOT NULL,"
         "  magnitude REAL NOT NULL"
         ");");

    const char *insert_access =
        "INSERT INTO accesses (file_id, device_id, rb, wb, ots, otms, cts,"
        " ctms, throughput, failed)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?);";
    if (sqlite3_prepare_v2(db_, insert_access, -1, &insertAccessStmt_,
                           nullptr) != SQLITE_OK)
        fatal("ReplayDb: prepare insertAccess: %s", sqlite3_errmsg(db_));

    const char *insert_movement =
        "INSERT INTO movements (timestamp, file_id, from_device, to_device,"
        " bytes, seconds) VALUES (?, ?, ?, ?, ?, ?);";
    if (sqlite3_prepare_v2(db_, insert_movement, -1, &insertMovementStmt_,
                           nullptr) != SQLITE_OK)
        fatal("ReplayDb: prepare insertMovement: %s", sqlite3_errmsg(db_));

    const char *insert_attempt =
        "INSERT INTO move_attempts (timestamp, file_id, from_device,"
        " to_device, attempt, outcome, reason, bytes_copied)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?);";
    if (sqlite3_prepare_v2(db_, insert_attempt, -1, &insertAttemptStmt_,
                           nullptr) != SQLITE_OK)
        fatal("ReplayDb: prepare insertMoveAttempt: %s",
              sqlite3_errmsg(db_));

    const char *insert_fault =
        "INSERT INTO fault_events (timestamp, device_id, kind, active,"
        " magnitude) VALUES (?, ?, ?, ?, ?);";
    if (sqlite3_prepare_v2(db_, insert_fault, -1, &insertFaultStmt_,
                           nullptr) != SQLITE_OK)
        fatal("ReplayDb: prepare insertFaultEvent: %s",
              sqlite3_errmsg(db_));
}

ReplayDb::~ReplayDb()
{
    sqlite3_finalize(insertAccessStmt_);
    sqlite3_finalize(insertMovementStmt_);
    sqlite3_finalize(insertAttemptStmt_);
    sqlite3_finalize(insertFaultStmt_);
    sqlite3_close(db_);
}

void
ReplayDb::exec(const std::string &sql)
{
    char *err = nullptr;
    if (sqlite3_exec(db_, sql.c_str(), nullptr, nullptr, &err) !=
        SQLITE_OK) {
        std::string message = err ? err : "unknown error";
        sqlite3_free(err);
        fatal("ReplayDb: exec failed: %s (%s)", message.c_str(),
              sql.c_str());
    }
}

int64_t
ReplayDb::insertAccess(const PerfRecord &record)
{
    sqlite3_reset(insertAccessStmt_);
    sqlite3_bind_int64(insertAccessStmt_, 1,
                       static_cast<int64_t>(record.file));
    sqlite3_bind_int64(insertAccessStmt_, 2,
                       static_cast<int64_t>(record.device));
    sqlite3_bind_int64(insertAccessStmt_, 3,
                       static_cast<int64_t>(record.rb));
    sqlite3_bind_int64(insertAccessStmt_, 4,
                       static_cast<int64_t>(record.wb));
    sqlite3_bind_int64(insertAccessStmt_, 5, record.ots);
    sqlite3_bind_int64(insertAccessStmt_, 6, record.otms);
    sqlite3_bind_int64(insertAccessStmt_, 7, record.cts);
    sqlite3_bind_int64(insertAccessStmt_, 8, record.ctms);
    sqlite3_bind_double(insertAccessStmt_, 9, record.throughput);
    sqlite3_bind_int64(insertAccessStmt_, 10, record.failed ? 1 : 0);
    if (sqlite3_step(insertAccessStmt_) != SQLITE_DONE)
        fatal("ReplayDb: insertAccess: %s", sqlite3_errmsg(db_));
    return sqlite3_last_insert_rowid(db_);
}

void
ReplayDb::insertAccesses(const std::vector<PerfRecord> &records)
{
    exec("BEGIN TRANSACTION;");
    for (const PerfRecord &rec : records)
        insertAccess(rec);
    exec("COMMIT;");
}

int64_t
ReplayDb::accessCount() const
{
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, "SELECT COUNT(*) FROM accesses;", -1, &stmt,
                           nullptr) != SQLITE_OK)
        fatal("ReplayDb: accessCount: %s", sqlite3_errmsg(db_));
    int64_t count = 0;
    if (sqlite3_step(stmt) == SQLITE_ROW)
        count = sqlite3_column_int64(stmt, 0);
    sqlite3_finalize(stmt);
    return count;
}

std::vector<PerfRecord>
ReplayDb::queryAccesses(const std::string &sql, int64_t bind0,
                        size_t limit) const
{
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK)
        fatal("ReplayDb: query: %s", sqlite3_errmsg(db_));
    int index = 1;
    if (bind0 >= 0)
        sqlite3_bind_int64(stmt, index++, bind0);
    sqlite3_bind_int64(stmt, index, static_cast<int64_t>(limit));
    std::vector<PerfRecord> records;
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW)
        records.push_back(readAccessRow(stmt));
    if (rc != SQLITE_DONE)
        noteReadCorrupt("queryAccesses");
    sqlite3_finalize(stmt);
    // Queries select newest-first for the LIMIT; return oldest-first.
    std::reverse(records.begin(), records.end());
    return records;
}

std::vector<PerfRecord>
ReplayDb::recentAccessesForDevice(storage::DeviceId device,
                                  size_t limit) const
{
    return queryAccesses(
        strprintf("SELECT %s FROM accesses WHERE device_id = ?"
                  " ORDER BY id DESC LIMIT ?;",
                  kAccessColumns),
        static_cast<int64_t>(device), limit);
}

std::vector<PerfRecord>
ReplayDb::recentAccessesForFile(storage::FileId file, size_t limit) const
{
    return queryAccesses(
        strprintf("SELECT %s FROM accesses WHERE file_id = ?"
                  " ORDER BY id DESC LIMIT ?;",
                  kAccessColumns),
        static_cast<int64_t>(file), limit);
}

bool
ReplayDb::latestAccessForFile(storage::FileId file, PerfRecord &out) const
{
    std::vector<PerfRecord> records = recentAccessesForFile(file, 1);
    if (records.empty())
        return false;
    out = records.front();
    return true;
}

std::vector<std::pair<storage::DeviceId, double>>
ReplayDb::deviceThroughput(size_t limit) const
{
    const char *sql =
        "SELECT device_id, AVG(throughput) FROM"
        " (SELECT device_id, throughput FROM accesses"
        "  ORDER BY id DESC LIMIT ?)"
        " GROUP BY device_id;";
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql, -1, &stmt, nullptr) != SQLITE_OK)
        fatal("ReplayDb: deviceThroughput: %s", sqlite3_errmsg(db_));
    sqlite3_bind_int64(stmt, 1, static_cast<int64_t>(limit));
    std::vector<std::pair<storage::DeviceId, double>> result;
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
        result.emplace_back(
            static_cast<storage::DeviceId>(sqlite3_column_int64(stmt, 0)),
            sqlite3_column_double(stmt, 1));
    }
    if (rc != SQLITE_DONE)
        noteReadCorrupt("deviceThroughput");
    sqlite3_finalize(stmt);
    return result;
}

std::vector<std::tuple<storage::DeviceId, double, int64_t>>
ReplayDb::deviceThroughputSince(int64_t min_id) const
{
    // A GROUP BY device_id would tempt the planner onto the
    // (device_id, id) index — a full-index walk that grows with the
    // table, not the tail.  Range-scan the rowid tail and aggregate
    // here instead; the tail is one monitoring window (~1k rows).
    const char *sql =
        "SELECT device_id, throughput FROM accesses WHERE id > ?;";
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql, -1, &stmt, nullptr) != SQLITE_OK)
        fatal("ReplayDb: deviceThroughputSince: %s", sqlite3_errmsg(db_));
    sqlite3_bind_int64(stmt, 1, min_id);
    std::map<storage::DeviceId, std::pair<double, int64_t>> acc;
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
        auto &slot = acc[static_cast<storage::DeviceId>(
            sqlite3_column_int64(stmt, 0))];
        slot.first += sqlite3_column_double(stmt, 1);
        ++slot.second;
    }
    if (rc != SQLITE_DONE)
        noteReadCorrupt("deviceThroughputSince");
    sqlite3_finalize(stmt);
    std::vector<std::tuple<storage::DeviceId, double, int64_t>> result;
    result.reserve(acc.size());
    for (const auto &[device, slot] : acc)
        result.emplace_back(device,
                            slot.first / static_cast<double>(slot.second),
                            slot.second);
    return result;
}

int64_t
ReplayDb::insertMovement(const MovementRecord &movement)
{
    sqlite3_reset(insertMovementStmt_);
    sqlite3_bind_double(insertMovementStmt_, 1, movement.timestamp);
    sqlite3_bind_int64(insertMovementStmt_, 2,
                       static_cast<int64_t>(movement.file));
    sqlite3_bind_int64(insertMovementStmt_, 3,
                       static_cast<int64_t>(movement.fromDevice));
    sqlite3_bind_int64(insertMovementStmt_, 4,
                       static_cast<int64_t>(movement.toDevice));
    sqlite3_bind_int64(insertMovementStmt_, 5,
                       static_cast<int64_t>(movement.bytes));
    sqlite3_bind_double(insertMovementStmt_, 6, movement.seconds);
    if (sqlite3_step(insertMovementStmt_) != SQLITE_DONE)
        fatal("ReplayDb: insertMovement: %s", sqlite3_errmsg(db_));
    return sqlite3_last_insert_rowid(db_);
}

namespace {

MovementRecord
readMovementRow(sqlite3_stmt *stmt)
{
    MovementRecord rec;
    rec.id = sqlite3_column_int64(stmt, 0);
    rec.timestamp = sqlite3_column_double(stmt, 1);
    rec.file =
        static_cast<storage::FileId>(sqlite3_column_int64(stmt, 2));
    rec.fromDevice =
        static_cast<storage::DeviceId>(sqlite3_column_int64(stmt, 3));
    rec.toDevice =
        static_cast<storage::DeviceId>(sqlite3_column_int64(stmt, 4));
    rec.bytes = static_cast<uint64_t>(sqlite3_column_int64(stmt, 5));
    rec.seconds = sqlite3_column_double(stmt, 6);
    return rec;
}

} // namespace

std::vector<MovementRecord>
ReplayDb::recentMovements(size_t limit) const
{
    const char *sql =
        "SELECT id, timestamp, file_id, from_device, to_device, bytes,"
        " seconds FROM movements ORDER BY id DESC LIMIT ?;";
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql, -1, &stmt, nullptr) != SQLITE_OK)
        fatal("ReplayDb: recentMovements: %s", sqlite3_errmsg(db_));
    sqlite3_bind_int64(stmt, 1, static_cast<int64_t>(limit));
    std::vector<MovementRecord> records;
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW)
        records.push_back(readMovementRow(stmt));
    if (rc != SQLITE_DONE)
        noteReadCorrupt("recentMovements");
    sqlite3_finalize(stmt);
    std::reverse(records.begin(), records.end());
    return records;
}

namespace {

MoveAttemptRecord
readAttemptRow(sqlite3_stmt *stmt)
{
    MoveAttemptRecord rec;
    rec.id = sqlite3_column_int64(stmt, 0);
    rec.timestamp = sqlite3_column_double(stmt, 1);
    rec.file =
        static_cast<storage::FileId>(sqlite3_column_int64(stmt, 2));
    rec.fromDevice =
        static_cast<storage::DeviceId>(sqlite3_column_int64(stmt, 3));
    rec.toDevice =
        static_cast<storage::DeviceId>(sqlite3_column_int64(stmt, 4));
    rec.attempt = static_cast<int>(sqlite3_column_int64(stmt, 5));
    rec.outcome =
        static_cast<AttemptOutcome>(sqlite3_column_int64(stmt, 6));
    rec.reason =
        static_cast<storage::MoveFail>(sqlite3_column_int64(stmt, 7));
    rec.bytesCopied =
        static_cast<uint64_t>(sqlite3_column_int64(stmt, 8));
    return rec;
}

constexpr const char *kAttemptColumns =
    "id, timestamp, file_id, from_device, to_device, attempt, outcome,"
    " reason, bytes_copied";

} // namespace

int64_t
ReplayDb::insertMoveAttempt(const MoveAttemptRecord &attempt)
{
    sqlite3_reset(insertAttemptStmt_);
    sqlite3_bind_double(insertAttemptStmt_, 1, attempt.timestamp);
    sqlite3_bind_int64(insertAttemptStmt_, 2,
                       static_cast<int64_t>(attempt.file));
    sqlite3_bind_int64(insertAttemptStmt_, 3,
                       static_cast<int64_t>(attempt.fromDevice));
    sqlite3_bind_int64(insertAttemptStmt_, 4,
                       static_cast<int64_t>(attempt.toDevice));
    sqlite3_bind_int64(insertAttemptStmt_, 5, attempt.attempt);
    sqlite3_bind_int64(insertAttemptStmt_, 6,
                       static_cast<int64_t>(attempt.outcome));
    sqlite3_bind_int64(insertAttemptStmt_, 7,
                       static_cast<int64_t>(attempt.reason));
    sqlite3_bind_int64(insertAttemptStmt_, 8,
                       static_cast<int64_t>(attempt.bytesCopied));
    if (sqlite3_step(insertAttemptStmt_) != SQLITE_DONE)
        fatal("ReplayDb: insertMoveAttempt: %s", sqlite3_errmsg(db_));
    return sqlite3_last_insert_rowid(db_);
}

int64_t
ReplayDb::moveAttemptCount() const
{
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, "SELECT COUNT(*) FROM move_attempts;", -1,
                           &stmt, nullptr) != SQLITE_OK)
        fatal("ReplayDb: moveAttemptCount: %s", sqlite3_errmsg(db_));
    int64_t count = 0;
    if (sqlite3_step(stmt) == SQLITE_ROW)
        count = sqlite3_column_int64(stmt, 0);
    sqlite3_finalize(stmt);
    return count;
}

std::vector<MoveAttemptRecord>
ReplayDb::recentMoveAttempts(size_t limit) const
{
    std::string sql = strprintf(
        "SELECT %s FROM move_attempts ORDER BY id DESC LIMIT ?;",
        kAttemptColumns);
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK)
        fatal("ReplayDb: recentMoveAttempts: %s", sqlite3_errmsg(db_));
    sqlite3_bind_int64(stmt, 1, static_cast<int64_t>(limit));
    std::vector<MoveAttemptRecord> records;
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW)
        records.push_back(readAttemptRow(stmt));
    if (rc != SQLITE_DONE)
        noteReadCorrupt("recentMoveAttempts");
    sqlite3_finalize(stmt);
    std::reverse(records.begin(), records.end());
    return records;
}

int64_t
ReplayDb::insertFaultEvent(const FaultEventRecord &event)
{
    sqlite3_reset(insertFaultStmt_);
    sqlite3_bind_double(insertFaultStmt_, 1, event.timestamp);
    sqlite3_bind_int64(insertFaultStmt_, 2,
                       static_cast<int64_t>(event.device));
    sqlite3_bind_int64(insertFaultStmt_, 3, event.kind);
    sqlite3_bind_int64(insertFaultStmt_, 4, event.active ? 1 : 0);
    sqlite3_bind_double(insertFaultStmt_, 5, event.magnitude);
    if (sqlite3_step(insertFaultStmt_) != SQLITE_DONE)
        fatal("ReplayDb: insertFaultEvent: %s", sqlite3_errmsg(db_));
    return sqlite3_last_insert_rowid(db_);
}

int64_t
ReplayDb::faultEventCount() const
{
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, "SELECT COUNT(*) FROM fault_events;", -1,
                           &stmt, nullptr) != SQLITE_OK)
        fatal("ReplayDb: faultEventCount: %s", sqlite3_errmsg(db_));
    int64_t count = 0;
    if (sqlite3_step(stmt) == SQLITE_ROW)
        count = sqlite3_column_int64(stmt, 0);
    sqlite3_finalize(stmt);
    return count;
}

void
ReplayDb::removeFiles(const std::string &path)
{
    // The hot journal must go with the database: a stale rollback
    // journal next to a fresh file would be replayed into it on open.
    std::error_code ec;
    for (const char *suffix : {"", "-journal", "-wal", "-shm"})
        std::filesystem::remove(path + suffix, ec);
}

void
ReplayDb::noteReadCorrupt(const char *where) const
{
    warn("ReplayDb: %s: read ended early: %s (corrupt database?)", where,
         sqlite3_errmsg(db_));
    readCorruptMetric_->inc();
}

int64_t
ReplayDb::maxRowId(const char *table) const
{
    std::string sql =
        strprintf("SELECT COALESCE(MAX(id), 0) FROM %s;", table);
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK)
        fatal("ReplayDb: maxRowId(%s): %s", table, sqlite3_errmsg(db_));
    int64_t id = 0;
    if (sqlite3_step(stmt) == SQLITE_ROW)
        id = sqlite3_column_int64(stmt, 0);
    sqlite3_finalize(stmt);
    return id;
}

ReplayDbWatermark
ReplayDb::watermark() const
{
    ReplayDbWatermark wm;
    wm.accesses = maxRowId("accesses");
    wm.movements = maxRowId("movements");
    wm.moveAttempts = maxRowId("move_attempts");
    wm.faultEvents = maxRowId("fault_events");
    return wm;
}

void
ReplayDb::rewindTo(const ReplayDbWatermark &wm)
{
    struct { const char *table; int64_t id; } cuts[] = {
        {"accesses", wm.accesses},
        {"movements", wm.movements},
        {"move_attempts", wm.moveAttempts},
        {"fault_events", wm.faultEvents},
    };
    exec("BEGIN TRANSACTION;");
    for (const auto &cut : cuts) {
        exec(strprintf("DELETE FROM %s WHERE id > %lld;", cut.table,
                       static_cast<long long>(cut.id)));
        // Reset the AUTOINCREMENT sequence so re-inserted rows get the
        // same ids an uninterrupted run would have assigned.
        exec(strprintf("UPDATE sqlite_sequence SET seq = %lld"
                       " WHERE name = '%s';",
                       static_cast<long long>(cut.id), cut.table));
    }
    exec("COMMIT;");
}

} // namespace core
} // namespace geo
