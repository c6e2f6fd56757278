#include "core/replay_db.hh"

#include <sqlite3.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <type_traits>

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

/** Bound parameters per access row. */
constexpr int kAccessParams = 10;

/** Bind one access row to parameters first+1 .. first+kAccessParams. */
void
bindAccess(sqlite3_stmt *stmt, int first, const PerfRecord &record)
{
    sqlite3_bind_int64(stmt, first + 1, static_cast<int64_t>(record.file));
    sqlite3_bind_int64(stmt, first + 2,
                       static_cast<int64_t>(record.device));
    sqlite3_bind_int64(stmt, first + 3, static_cast<int64_t>(record.rb));
    sqlite3_bind_int64(stmt, first + 4, static_cast<int64_t>(record.wb));
    sqlite3_bind_int64(stmt, first + 5, record.ots);
    sqlite3_bind_int64(stmt, first + 6, record.otms);
    sqlite3_bind_int64(stmt, first + 7, record.cts);
    sqlite3_bind_int64(stmt, first + 8, record.ctms);
    sqlite3_bind_double(stmt, first + 9, record.throughput);
    sqlite3_bind_int64(stmt, first + 10, record.failed ? 1 : 0);
}

/**
 * `record` as a SELECT would read it back after insertion as row `id`.
 * The integer columns round-trip through int64 unchanged; a REAL
 * column stores an integral double as an integer, so -0.0 reads back
 * as +0.0.
 */
PerfRecord
storedRecord(const PerfRecord &record, int64_t id)
{
    PerfRecord stored = record;
    stored.id = id;
    if (stored.throughput == 0.0)
        stored.throughput = 0.0;
    return stored;
}

} // namespace

template <typename Row>
void
ReplayDb::Ring<Row>::pushOlder(const PerfRecord &record)
{
    if (count == slots.size())
        return;
    begin = (begin == 0 ? slots.size() : begin) - 1;
    slots[begin] = Row(record);
    ++count;
}

template <typename Row>
void
ReplayDb::Ring<Row>::pushNewer(const PerfRecord &record)
{
    if (count < slots.size()) {
        slots[(begin + count) % slots.size()] = Row(record);
        ++count;
        return;
    }
    slots[begin] = Row(record);
    if (++begin == slots.size())
        begin = 0;
}

template <typename Row>
size_t
ReplayDb::Ring<Row>::first(size_t limit) const
{
    if (count == 0)
        return 0;
    return (begin + count - std::min(limit, count)) % slots.size();
}

template <typename Key, typename Row>
void
ReplayDb::RingSet<Key, Row>::pushNewer(const PerfRecord &record)
{
    if (byKey) {
        auto ring = rings.find(record.*key);
        if (ring != rings.end())
            ring->second.pushNewer(record);
    } else if (capacity > 0) {
        rings.try_emplace(record.*key, capacity).first->second.pushNewer(
            record);
    }
}

template <typename Key, typename Row>
void
ReplayDb::RingSet<Key, Row>::drop(int64_t next)
{
    rings.clear();
    below = next;
}

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
    cacheFillsMetric_ =
        &util::MetricRegistry::global().counter("replaydb.cache_fills");

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
    exec("CREATE TABLE IF NOT EXISTS fault_events ("
         "  id INTEGER PRIMARY KEY AUTOINCREMENT,"
         "  timestamp REAL NOT NULL,"
         "  device_id INTEGER NOT NULL,"
         "  kind INTEGER NOT NULL,"
         "  active INTEGER NOT NULL,"
         "  magnitude REAL NOT NULL"
         ");");
    // The row id is every table's only index: each secondary index
    // cost a B-tree insert per row, and the rings serve the reads it
    // sped up. A file written by an older build drops them here.
    for (const char *index :
         {"idx_accesses_device", "idx_accesses_file", "idx_attempts_file"})
        exec(std::string("DROP INDEX IF EXISTS ") + index + ";");

    insertAccessStmt_ = prepare(
        "INSERT INTO accesses (file_id, device_id, rb, wb, ots, otms, cts,"
        " ctms, throughput, failed)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?);");
    std::string insert_block =
        "INSERT INTO accesses (file_id, device_id, rb, wb, ots, otms, cts,"
        " ctms, throughput, failed) VALUES ";
    for (size_t r = 0; r < kInsertBlockRows; ++r)
        insert_block += r ? ", (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                          : "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    insertBlockStmt_ = prepare(insert_block + ";");
    beginStmt_ = prepare("BEGIN TRANSACTION;");
    commitStmt_ = prepare("COMMIT;");
    insertMovementStmt_ = prepare(
        "INSERT INTO movements (timestamp, file_id, from_device, to_device,"
        " bytes, seconds) VALUES (?, ?, ?, ?, ?, ?);");
    insertAttemptStmt_ = prepare(
        "INSERT INTO move_attempts (timestamp, file_id, from_device,"
        " to_device, attempt, outcome, reason, bytes_copied)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?);");
    insertFaultStmt_ = prepare(
        "INSERT INTO fault_events (timestamp, device_id, kind, active,"
        " magnitude) VALUES (?, ?, ?, ?, ?);");

    const std::string select_accesses =
        std::string("SELECT ") + kAccessColumns + " FROM accesses WHERE ";
    devices_.fill = prepare(select_accesses +
                            "device_id = ? ORDER BY id DESC LIMIT ?;");
    files_.fill = prepare(select_accesses + "id < ? ORDER BY id DESC;");
    countAccessesStmt_ = prepare("SELECT COUNT(*) FROM accesses;");
    countAttemptsStmt_ = prepare("SELECT COUNT(*) FROM move_attempts;");
    countFaultsStmt_ = prepare("SELECT COUNT(*) FROM fault_events;");
    deviceThroughputStmt_ = prepare(
        "SELECT device_id, AVG(throughput) FROM"
        " (SELECT device_id, throughput FROM accesses"
        "  ORDER BY id DESC LIMIT ?)"
        " GROUP BY device_id;");
    // A range scan of the row-id tail, one monitoring window (~1k
    // rows), aggregated in C++ in row-id order.
    throughputSinceStmt_ =
        prepare("SELECT device_id, throughput FROM accesses WHERE id > ?;");
    recentMovementsStmt_ = prepare(
        "SELECT id, timestamp, file_id, from_device, to_device, bytes,"
        " seconds FROM movements ORDER BY id DESC LIMIT ?;");
    recentAttemptsStmt_ = prepare(
        "SELECT id, timestamp, file_id, from_device, to_device, attempt,"
        " outcome, reason, bytes_copied FROM move_attempts"
        " ORDER BY id DESC LIMIT ?;");
    watermarkStmt_ = prepare(
        "SELECT (SELECT COALESCE(MAX(id), 0) FROM accesses),"
        " (SELECT COALESCE(MAX(id), 0) FROM movements),"
        " (SELECT COALESCE(MAX(id), 0) FROM move_attempts),"
        " (SELECT COALESCE(MAX(id), 0) FROM fault_events);");
    newestAccess_ = watermark().accesses;
}

ReplayDb::~ReplayDb()
{
    for (sqlite3_stmt *stmt : statements_)
        sqlite3_finalize(stmt);
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

sqlite3_stmt *
ReplayDb::prepare(const std::string &sql)
{
    sqlite3_stmt *stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK)
        fatal("ReplayDb: prepare failed: %s (%s)", sqlite3_errmsg(db_),
              sql.c_str());
    statements_.push_back(stmt);
    return stmt;
}

void
ReplayDb::stepDone(sqlite3_stmt *stmt, const char *what)
{
    int rc = sqlite3_step(stmt);
    sqlite3_reset(stmt);
    if (rc != SQLITE_DONE)
        fatal("ReplayDb: %s: %s", what, sqlite3_errmsg(db_));
}

template <typename RowFn>
bool
ReplayDb::forEachRow(sqlite3_stmt *stmt, const char *what,
                     RowFn &&row) const
{
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
        if constexpr (std::is_same_v<decltype(row(stmt)), bool>) {
            if (!row(stmt))
                break;
        } else {
            row(stmt);
        }
    }
    if (rc != SQLITE_DONE && rc != SQLITE_ROW) {
        warn("ReplayDb: %s: read ended early: %s (corrupt database?)",
             what, sqlite3_errmsg(db_));
        readCorruptMetric_->inc();
    }
    sqlite3_reset(stmt);
    return rc == SQLITE_DONE;
}

int64_t
ReplayDb::countOf(sqlite3_stmt *stmt, const char *what) const
{
    int64_t count = 0;
    forEachRow(stmt, what, [&](sqlite3_stmt *row) {
        count = sqlite3_column_int64(row, 0);
    });
    return count;
}

int64_t
ReplayDb::insertAccess(const PerfRecord &record)
{
    bindAccess(insertAccessStmt_, 0, record);
    stepDone(insertAccessStmt_, "insertAccess");
    return sqlite3_last_insert_rowid(db_);
}

void
ReplayDb::insertAccesses(const std::vector<PerfRecord> &records)
{
    if (records.empty())
        return;
    std::vector<int64_t> ids(records.size());
    stepDone(beginStmt_, "BEGIN");
    size_t i = 0;
    for (; i + kInsertBlockRows <= records.size(); i += kInsertBlockRows) {
        for (size_t r = 0; r < kInsertBlockRows; ++r)
            bindAccess(insertBlockStmt_, static_cast<int>(r) * kAccessParams,
                       records[i + r]);
        stepDone(insertBlockStmt_, "insertAccesses");
        // One connection, AUTOINCREMENT and no triggers: a block's
        // rows get consecutive ids ending at the last one inserted.
        int64_t last = sqlite3_last_insert_rowid(db_);
        for (size_t r = 0; r < kInsertBlockRows; ++r)
            ids[i + r] = last - static_cast<int64_t>(kInsertBlockRows - 1 - r);
    }
    for (; i < records.size(); ++i)
        ids[i] = insertAccess(records[i]);
    stepDone(commitStmt_, "COMMIT");
    newestAccess_ = ids.back();

    // The rows are durable; the rings follow. Each row is its
    // device's and its file's newest.
    for (size_t r = 0; r < records.size(); ++r) {
        PerfRecord stored = storedRecord(records[r], ids[r]);
        devices_.pushNewer(stored);
        files_.pushNewer(stored);
    }
}

int64_t
ReplayDb::accessCount() const
{
    return countOf(countAccessesStmt_, "accessCount");
}

template <typename Key, typename Row>
const ReplayDb::Ring<Row> &
ReplayDb::ringFor(RingSet<Key, Row> &set, Key key, size_t limit) const
{
    if (limit > set.capacity) {
        set.drop(newestAccess_ + 1);
        set.capacity = limit;
    }
    auto ring = set.rings.find(key);
    if (set.byKey) {
        if (ring != set.rings.end())
            return ring->second;
        cacheFillsMetric_->inc();
        Ring<Row> filled(set.capacity);
        sqlite3_bind_int64(set.fill, 1, static_cast<int64_t>(key));
        sqlite3_bind_int64(set.fill, 2, static_cast<int64_t>(set.capacity));
        bool ended = forEachRow(set.fill, "ring fill", [&](sqlite3_stmt *row) {
            filled.pushOlder(readAccessRow(row));
        });
        if (!ended) {
            set.unkept = std::move(filled);
            return set.unkept;
        }
        return set.rings.emplace(key, std::move(filled)).first->second;
    }
    if (set.below != 0 &&
        (ring == set.rings.end() || ring->second.count < limit)) {
        cacheFillsMetric_->inc();
        sqlite3_bind_int64(set.fill, 1, set.below);
        bool enough = false;
        bool ended = forEachRow(set.fill, "ring fill", [&](sqlite3_stmt *row) {
            auto k =
                static_cast<Key>(sqlite3_column_int64(row, set.column));
            Ring<Row> &r =
                set.rings.try_emplace(k, set.capacity).first->second;
            // A full ring holds newer rows than this one.
            if (r.count < r.slots.size())
                r.pushOlder(readAccessRow(row));
            set.below = sqlite3_column_int64(row, 0);
            enough = k == key && r.count >= limit;
            return !enough;
        });
        if (ended && !enough)
            set.below = 0; // the pass offered the first row
        ring = set.rings.find(key);
    }
    static const Ring<Row> none(0);
    return ring == set.rings.end() ? none : ring->second;
}

AccessWindow
ReplayDb::deviceWindow(storage::DeviceId device, size_t limit) const
{
    AccessWindow window;
    if (limit == 0)
        return window;
    const Ring<AccessWindow::Row> &ring = ringFor(devices_, device, limit);
    window.rows_ = ring.slots.data();
    window.slots_ = ring.slots.size();
    window.first_ = ring.first(limit);
    window.size_ = std::min(limit, ring.count);
    return window;
}

std::vector<PerfRecord>
ReplayDb::recentAccessesForFile(storage::FileId file, size_t limit) const
{
    std::vector<PerfRecord> records;
    if (limit == 0)
        return records;
    const Ring<PerfRecord> &ring = ringFor(files_, file, limit);
    const size_t count = std::min(limit, ring.count);
    records.reserve(count);
    for (size_t i = 0, slot = ring.first(limit); i < count; ++i) {
        records.push_back(ring.slots[slot]);
        if (++slot == ring.slots.size())
            slot = 0;
    }
    return records;
}

bool
ReplayDb::latestAccessForFile(storage::FileId file, PerfRecord &out) const
{
    const Ring<PerfRecord> &ring = ringFor(files_, file, 1);
    if (ring.count == 0)
        return false;
    out = ring.slots[ring.first(1)];
    return true;
}

std::vector<std::pair<storage::DeviceId, double>>
ReplayDb::deviceThroughput(size_t limit) const
{
    sqlite3_bind_int64(deviceThroughputStmt_, 1,
                       static_cast<int64_t>(limit));
    std::vector<std::pair<storage::DeviceId, double>> result;
    forEachRow(deviceThroughputStmt_, "deviceThroughput",
               [&](sqlite3_stmt *row) {
                   result.emplace_back(static_cast<storage::DeviceId>(
                                           sqlite3_column_int64(row, 0)),
                                       sqlite3_column_double(row, 1));
               });
    return result;
}

std::vector<std::tuple<storage::DeviceId, double, int64_t>>
ReplayDb::deviceThroughputSince(int64_t min_id) const
{
    sqlite3_bind_int64(throughputSinceStmt_, 1, min_id);
    std::map<storage::DeviceId, std::pair<double, int64_t>> acc;
    forEachRow(throughputSinceStmt_, "deviceThroughputSince",
               [&](sqlite3_stmt *row) {
                   auto &slot = acc[static_cast<storage::DeviceId>(
                       sqlite3_column_int64(row, 0))];
                   slot.first += sqlite3_column_double(row, 1);
                   ++slot.second;
               });
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
    stepDone(insertMovementStmt_, "insertMovement");
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
    sqlite3_bind_int64(recentMovementsStmt_, 1, static_cast<int64_t>(limit));
    std::vector<MovementRecord> records;
    forEachRow(recentMovementsStmt_, "recentMovements",
               [&](sqlite3_stmt *row) {
                   records.push_back(readMovementRow(row));
               });
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

} // namespace

int64_t
ReplayDb::insertMoveAttempt(const MoveAttemptRecord &attempt)
{
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
    stepDone(insertAttemptStmt_, "insertMoveAttempt");
    return sqlite3_last_insert_rowid(db_);
}

int64_t
ReplayDb::moveAttemptCount() const
{
    return countOf(countAttemptsStmt_, "moveAttemptCount");
}

std::vector<MoveAttemptRecord>
ReplayDb::recentMoveAttempts(size_t limit) const
{
    sqlite3_bind_int64(recentAttemptsStmt_, 1, static_cast<int64_t>(limit));
    std::vector<MoveAttemptRecord> records;
    forEachRow(recentAttemptsStmt_, "recentMoveAttempts",
               [&](sqlite3_stmt *row) {
                   records.push_back(readAttemptRow(row));
               });
    std::reverse(records.begin(), records.end());
    return records;
}

int64_t
ReplayDb::insertFaultEvent(const FaultEventRecord &event)
{
    sqlite3_bind_double(insertFaultStmt_, 1, event.timestamp);
    sqlite3_bind_int64(insertFaultStmt_, 2,
                       static_cast<int64_t>(event.device));
    sqlite3_bind_int64(insertFaultStmt_, 3, event.kind);
    sqlite3_bind_int64(insertFaultStmt_, 4, event.active ? 1 : 0);
    sqlite3_bind_double(insertFaultStmt_, 5, event.magnitude);
    stepDone(insertFaultStmt_, "insertFaultEvent");
    return sqlite3_last_insert_rowid(db_);
}

int64_t
ReplayDb::faultEventCount() const
{
    return countOf(countFaultsStmt_, "faultEventCount");
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

ReplayDbWatermark
ReplayDb::watermark() const
{
    ReplayDbWatermark wm;
    forEachRow(watermarkStmt_, "watermark", [&](sqlite3_stmt *row) {
        wm.accesses = sqlite3_column_int64(row, 0);
        wm.movements = sqlite3_column_int64(row, 1);
        wm.moveAttempts = sqlite3_column_int64(row, 2);
        wm.faultEvents = sqlite3_column_int64(row, 3);
    });
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
    newestAccess_ = watermark().accesses;
    devices_.drop(newestAccess_ + 1);
    files_.drop(newestAccess_ + 1);
}

} // namespace core
} // namespace geo
