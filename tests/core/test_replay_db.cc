/**
 * @file
 * Tests for the SQLite-backed ReplayDB and its rings: each device's
 * and each file's newest rows must equal what SQL returns.
 */

#include <gtest/gtest.h>
#include <sqlite3.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/replay_db.hh"
#include "util/metrics.hh"
#include "util/random.hh"

namespace geo {
namespace core {
namespace {

PerfRecord
record(storage::FileId file, storage::DeviceId device, double throughput)
{
    PerfRecord rec;
    rec.file = file;
    rec.device = device;
    rec.rb = 1000;
    rec.ots = 1;
    rec.cts = 2;
    rec.throughput = throughput;
    return rec;
}

/** The window's rows, oldest first, as (id, file) pairs. */
std::vector<std::pair<int64_t, storage::FileId>>
windowFiles(const AccessWindow &window)
{
    std::vector<std::pair<int64_t, storage::FileId>> rows;
    for (size_t i = 0; i < window.size(); ++i)
        rows.emplace_back(window.id(i), static_cast<storage::FileId>(
                                            window.features(i)[4]));
    return rows;
}

TEST(ReplayDb, StartsEmpty)
{
    ReplayDb db;
    EXPECT_EQ(db.accessCount(), 0);
    EXPECT_TRUE(db.recentMovements(1).empty());
    EXPECT_EQ(db.deviceWindow(0, 10).size(), 0u);
}

TEST(ReplayDb, InsertAndCount)
{
    ReplayDb db;
    db.insertAccesses({record(1, 0, 100.0)});
    EXPECT_GT(db.watermark().accesses, 0);
    db.insertAccesses({record(2, 1, 200.0)});
    EXPECT_EQ(db.accessCount(), 2);
}

TEST(ReplayDb, BulkInsertTransaction)
{
    ReplayDb db;
    std::vector<PerfRecord> batch;
    for (int i = 0; i < 100; ++i)
        batch.push_back(record(static_cast<storage::FileId>(i), 0, i));
    db.insertAccesses(batch);
    EXPECT_EQ(db.accessCount(), 100);
}

TEST(ReplayDb, RecentAccessesOldestFirstWindow)
{
    ReplayDb db;
    for (int i = 0; i < 10; ++i)
        db.insertAccesses({record(static_cast<storage::FileId>(i), 0,
                                  static_cast<double>(i))});
    AccessWindow recent = db.deviceWindow(0, 3);
    ASSERT_EQ(recent.size(), 3u);
    EXPECT_EQ(windowFiles(recent),
              (std::vector<std::pair<int64_t, storage::FileId>>{
                  {8, 7}, {9, 8}, {10, 9}}));

    // Rows inserted after the fill wrap around the ring, oldest first.
    for (int i = 10; i < 12; ++i)
        db.insertAccesses({record(static_cast<storage::FileId>(i), 0,
                                  static_cast<double>(i))});
    recent = db.deviceWindow(0, 3);
    EXPECT_EQ(windowFiles(recent),
              (std::vector<std::pair<int64_t, storage::FileId>>{
                  {10, 9}, {11, 10}, {12, 11}}));
    EXPECT_EQ(recent.throughput(2), 11.0);
}

TEST(ReplayDb, PerDeviceQuery)
{
    ReplayDb db;
    db.insertAccesses(
        {record(1, 0, 10.0), record(2, 1, 20.0), record(3, 0, 30.0)});
    AccessWindow device0 = db.deviceWindow(0, 10);
    EXPECT_EQ(windowFiles(device0),
              (std::vector<std::pair<int64_t, storage::FileId>>{{1, 1},
                                                                {3, 3}}));
}

TEST(ReplayDb, PerFileQueryAndLatest)
{
    ReplayDb db;
    db.insertAccesses(
        {record(5, 0, 10.0), record(5, 1, 20.0), record(6, 0, 30.0)});
    EXPECT_EQ(db.recentAccessesForFile(5, 10).size(), 2u);
    PerfRecord latest;
    ASSERT_TRUE(db.latestAccessForFile(5, latest));
    EXPECT_EQ(latest.device, 1u);
    EXPECT_DOUBLE_EQ(latest.throughput, 20.0);
    EXPECT_FALSE(db.latestAccessForFile(999, latest));
}

TEST(ReplayDb, RoundTripPreservesFields)
{
    ReplayDb db;
    PerfRecord original;
    original.file = 12;
    original.device = 3;
    original.rb = 111;
    original.wb = 222;
    original.ots = 10;
    original.otms = 999;
    original.cts = 11;
    original.ctms = 1;
    original.throughput = 123.456;
    db.insertAccesses({original});
    // Drop the rings that the insert built, so the row comes back
    // through SQLite.
    db.rewindTo(db.watermark());
    std::vector<PerfRecord> out = db.recentAccessesForFile(12, 1);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].file, original.file);
    EXPECT_EQ(out[0].device, original.device);
    EXPECT_EQ(out[0].rb, original.rb);
    EXPECT_EQ(out[0].wb, original.wb);
    EXPECT_EQ(out[0].ots, original.ots);
    EXPECT_EQ(out[0].otms, original.otms);
    EXPECT_EQ(out[0].cts, original.cts);
    EXPECT_EQ(out[0].ctms, original.ctms);
    EXPECT_DOUBLE_EQ(out[0].throughput, original.throughput);
    EXPECT_GT(out[0].id, 0);

    // The device window carries the same row as features.
    AccessWindow window = db.deviceWindow(3, 1);
    ASSERT_EQ(window.size(), 1u);
    EXPECT_EQ(window.id(0), out[0].id);
    EXPECT_EQ(window.features(0), original.features());
    EXPECT_DOUBLE_EQ(window.throughput(0), original.throughput);
}

TEST(ReplayDb, DeviceThroughputAverages)
{
    ReplayDb db;
    db.insertAccesses(
        {record(1, 0, 10.0), record(2, 0, 30.0), record(3, 1, 100.0)});
    auto avg = db.deviceThroughput(100);
    ASSERT_EQ(avg.size(), 2u);
    for (const auto &[device, mean] : avg) {
        if (device == 0)
            EXPECT_DOUBLE_EQ(mean, 20.0);
        else
            EXPECT_DOUBLE_EQ(mean, 100.0);
    }
}

TEST(ReplayDb, DeviceThroughputWindowLimits)
{
    ReplayDb db;
    std::vector<PerfRecord> rows{record(1, 0, 1000.0)}; // old sample
    for (int i = 0; i < 5; ++i)
        rows.push_back(record(2, 0, 10.0));
    db.insertAccesses(rows);
    auto avg = db.deviceThroughput(5); // excludes the old 1000.0
    ASSERT_EQ(avg.size(), 1u);
    EXPECT_DOUBLE_EQ(avg[0].second, 10.0);
}

TEST(ReplayDb, MovementsTimestampedAndQueryable)
{
    ReplayDb db;
    MovementRecord move;
    move.timestamp = 5.0;
    move.file = 1;
    move.fromDevice = 0;
    move.toDevice = 2;
    move.bytes = 1000;
    move.seconds = 0.5;
    db.insertMovement(move);
    move.timestamp = 15.0;
    db.insertMovement(move);
    EXPECT_EQ(db.recentMovements(3).size(), 2u);
    auto recent = db.recentMovements(1);
    ASSERT_EQ(recent.size(), 1u);
    EXPECT_DOUBLE_EQ(recent[0].timestamp, 15.0);
    EXPECT_EQ(recent[0].toDevice, 2u);
}

TEST(ReplayDb, FileBackedPersistence)
{
    std::string path = testing::TempDir() + "/geomancy_replaydb_test.db";
    std::remove(path.c_str());
    {
        ReplayDb db(path);
        db.insertAccesses({record(1, 0, 42.0)});
    }
    {
        ReplayDb db(path);
        EXPECT_EQ(db.accessCount(), 1);
        AccessWindow out = db.deviceWindow(0, 1);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_DOUBLE_EQ(out.throughput(0), 42.0);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The rings against SQL: after every insert, rewind and reopen, each
// device window and each file's history and latest row must equal what
// a second connection reads from the same file, bit for bit.

constexpr storage::DeviceId kCacheDevices = 4;
constexpr storage::FileId kCacheFiles = 9; ///< file kCacheFiles: no rows
/** One row each, under thousands of newer rows; read last. */
constexpr storage::DeviceId kRareDevice = kCacheDevices + 1;
constexpr storage::FileId kRareFile = kCacheFiles + 1;
constexpr size_t kSmallWindow = 7;
constexpr size_t kLargeWindow = 40;

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A second connection reading the database file directly. */
class SqlReader
{
  public:
    explicit SqlReader(const std::string &path)
    {
        if (sqlite3_open(path.c_str(), &db_) != SQLITE_OK)
            ADD_FAILURE() << "cannot open " << path;
    }
    ~SqlReader() { sqlite3_close(db_); }

    /** The newest `limit` rows whose `column` equals `key`, oldest
     *  first. */
    std::vector<PerfRecord>
    newest(const char *column, int64_t key, size_t limit) const
    {
        std::string sql =
            std::string("SELECT id, file_id, device_id, rb, wb, ots, otms,"
                        " cts, ctms, throughput, failed FROM accesses"
                        " WHERE ") +
            column + " = ? ORDER BY id DESC LIMIT ?;";
        sqlite3_stmt *stmt = nullptr;
        EXPECT_EQ(sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr),
                  SQLITE_OK);
        sqlite3_bind_int64(stmt, 1, key);
        sqlite3_bind_int64(stmt, 2, static_cast<int64_t>(limit));
        std::vector<PerfRecord> rows;
        while (sqlite3_step(stmt) == SQLITE_ROW) {
            PerfRecord rec;
            rec.id = sqlite3_column_int64(stmt, 0);
            rec.file = static_cast<storage::FileId>(
                sqlite3_column_int64(stmt, 1));
            rec.device = static_cast<storage::DeviceId>(
                sqlite3_column_int64(stmt, 2));
            rec.rb = static_cast<uint64_t>(sqlite3_column_int64(stmt, 3));
            rec.wb = static_cast<uint64_t>(sqlite3_column_int64(stmt, 4));
            rec.ots = sqlite3_column_int64(stmt, 5);
            rec.otms = sqlite3_column_int64(stmt, 6);
            rec.cts = sqlite3_column_int64(stmt, 7);
            rec.ctms = sqlite3_column_int64(stmt, 8);
            rec.throughput = sqlite3_column_double(stmt, 9);
            rec.failed = sqlite3_column_int64(stmt, 10) != 0;
            rows.insert(rows.begin(), rec);
        }
        sqlite3_finalize(stmt);
        return rows;
    }

    int64_t
    scalar(const char *sql) const
    {
        sqlite3_stmt *stmt = nullptr;
        EXPECT_EQ(sqlite3_prepare_v2(db_, sql, -1, &stmt, nullptr),
                  SQLITE_OK);
        int64_t value = -1;
        if (sqlite3_step(stmt) == SQLITE_ROW)
            value = sqlite3_column_int64(stmt, 0);
        sqlite3_finalize(stmt);
        return value;
    }

  private:
    sqlite3 *db_ = nullptr;
};

/** Every field of a cached row against the row SQL returns. */
void
expectSameRow(const PerfRecord &got, const PerfRecord &want)
{
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.file, want.file);
    EXPECT_EQ(got.device, want.device);
    EXPECT_EQ(got.rb, want.rb);
    EXPECT_EQ(got.wb, want.wb);
    EXPECT_EQ(got.ots, want.ots);
    EXPECT_EQ(got.otms, want.otms);
    EXPECT_EQ(got.cts, want.cts);
    EXPECT_EQ(got.ctms, want.ctms);
    EXPECT_TRUE(sameBits(got.throughput, want.throughput))
        << got.throughput << " vs " << want.throughput;
    EXPECT_EQ(got.failed, want.failed);
}

void
expectCachesMatchSql(const ReplayDb &db, const SqlReader &sql)
{
    // The rare keys come last: asked first, they would send the pass
    // to the first row before the other keys are read.
    for (storage::DeviceId device = 0; device <= kRareDevice; ++device) {
        for (size_t limit : {kSmallWindow, kLargeWindow}) {
            std::vector<PerfRecord> want =
                sql.newest("device_id", device, limit);
            AccessWindow got = db.deviceWindow(device, limit);
            ASSERT_EQ(got.size(), want.size())
                << "device " << device << ", limit " << limit;
            for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got.id(i), want[i].id) << "row " << i;
                auto features = want[i].features();
                for (size_t c = 0; c < features.size(); ++c)
                    EXPECT_TRUE(sameBits(got.features(i)[c], features[c]))
                        << "row " << i << ", feature " << c;
                EXPECT_TRUE(sameBits(got.throughput(i), want[i].throughput))
                    << "row " << i;
            }
        }
    }
    for (storage::FileId file = 0; file <= kRareFile; ++file) {
        std::vector<PerfRecord> want = sql.newest("file_id", file, 1);
        PerfRecord got;
        ASSERT_EQ(db.latestAccessForFile(file, got), !want.empty())
            << "file " << file;
        if (!want.empty())
            expectSameRow(got, want.front());
        // The gap predictor's read, at three limits.
        for (size_t limit : {size_t{1}, kSmallWindow, size_t{64}}) {
            std::vector<PerfRecord> history =
                db.recentAccessesForFile(file, limit);
            want = sql.newest("file_id", file, limit);
            ASSERT_EQ(history.size(), want.size())
                << "file " << file << ", limit " << limit;
            for (size_t i = 0; i < want.size(); ++i)
                expectSameRow(history[i], want[i]);
        }
    }
    EXPECT_EQ(sql.scalar("SELECT COUNT(*) FROM sqlite_master"
                         " WHERE type = 'index';"),
              0);
    EXPECT_EQ(db.accessCount(), sql.scalar("SELECT COUNT(*) FROM accesses;"));
    EXPECT_EQ(db.watermark().accesses,
              sql.scalar("SELECT COALESCE(MAX(id), 0) FROM accesses;"));
}

PerfRecord
randomRecord(Rng &rng)
{
    PerfRecord rec;
    rec.id = 999; // ignored: SQLite assigns the id
    rec.file = static_cast<storage::FileId>(
        rng.uniformInt(0, static_cast<int64_t>(kCacheFiles) - 1));
    rec.device = static_cast<storage::DeviceId>(
        rng.uniformInt(0, kCacheDevices - 1));
    rec.rb = rng(); // half of them above INT64_MAX
    rec.wb = rng() >> rng.uniformInt(0, 63);
    rec.ots = rng.uniformInt(-5, 1 << 30);
    rec.otms = rng.uniformInt(0, 999);
    rec.cts = rng.uniformInt(0, 1 << 30);
    rec.ctms = rng.uniformInt(0, 999);
    switch (rng.uniformInt(0, 4)) {
      case 0:
        rec.throughput = -0.0; // SQLite reads it back as +0.0
        break;
      case 1:
        rec.throughput = 4.0e8; // integral: stored as an integer
        break;
      default:
        rec.throughput = rng.uniform(0.0, 2.0e9);
    }
    rec.failed = rng.chance(0.1);
    return rec;
}

/**
 * A database as an older build wrote it, with the secondary indexes
 * on accesses and move_attempts: the rare device's and the rare file's
 * one row, then `rows` random rows.
 */
void
writeOldSchemaFile(const std::string &path, Rng &rng, size_t rows)
{
    sqlite3 *db = nullptr;
    ASSERT_EQ(sqlite3_open(path.c_str(), &db), SQLITE_OK);
    const char *schema =
        "CREATE TABLE accesses (id INTEGER PRIMARY KEY AUTOINCREMENT,"
        " file_id INTEGER NOT NULL, device_id INTEGER NOT NULL,"
        " rb INTEGER NOT NULL, wb INTEGER NOT NULL, ots INTEGER NOT NULL,"
        " otms INTEGER NOT NULL, cts INTEGER NOT NULL,"
        " ctms INTEGER NOT NULL, throughput REAL NOT NULL,"
        " failed INTEGER NOT NULL DEFAULT 0);"
        "CREATE INDEX idx_accesses_device ON accesses(device_id, id);"
        "CREATE INDEX idx_accesses_file ON accesses(file_id, id);"
        "CREATE TABLE move_attempts (id INTEGER PRIMARY KEY AUTOINCREMENT,"
        " timestamp REAL NOT NULL, file_id INTEGER NOT NULL,"
        " from_device INTEGER NOT NULL, to_device INTEGER NOT NULL,"
        " attempt INTEGER NOT NULL, outcome INTEGER NOT NULL,"
        " reason INTEGER NOT NULL, bytes_copied INTEGER NOT NULL);"
        "CREATE INDEX idx_attempts_file ON move_attempts(file_id, id);"
        "BEGIN;";
    ASSERT_EQ(sqlite3_exec(db, schema, nullptr, nullptr, nullptr), SQLITE_OK);
    sqlite3_stmt *insert = nullptr;
    ASSERT_EQ(sqlite3_prepare_v2(
                  db,
                  "INSERT INTO accesses (file_id, device_id, rb, wb, ots,"
                  " otms, cts, ctms, throughput, failed)"
                  " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?);",
                  -1, &insert, nullptr),
              SQLITE_OK);
    for (size_t i = 0; i <= rows; ++i) {
        PerfRecord rec = randomRecord(rng);
        if (i == 0) {
            rec.device = kRareDevice;
            rec.file = kRareFile;
        }
        sqlite3_bind_int64(insert, 1, static_cast<int64_t>(rec.file));
        sqlite3_bind_int64(insert, 2, static_cast<int64_t>(rec.device));
        sqlite3_bind_int64(insert, 3, static_cast<int64_t>(rec.rb));
        sqlite3_bind_int64(insert, 4, static_cast<int64_t>(rec.wb));
        sqlite3_bind_int64(insert, 5, rec.ots);
        sqlite3_bind_int64(insert, 6, rec.otms);
        sqlite3_bind_int64(insert, 7, rec.cts);
        sqlite3_bind_int64(insert, 8, rec.ctms);
        sqlite3_bind_double(insert, 9, rec.throughput);
        sqlite3_bind_int64(insert, 10, rec.failed ? 1 : 0);
        EXPECT_EQ(sqlite3_step(insert), SQLITE_DONE);
        sqlite3_reset(insert);
    }
    sqlite3_finalize(insert);
    EXPECT_EQ(sqlite3_exec(db, "COMMIT;", nullptr, nullptr, nullptr),
              SQLITE_OK);
    sqlite3_close(db);
}

TEST(ReplayDbCache, MatchesSqlThroughInsertsRewindsAndReopens)
{
    std::string path = testing::TempDir() + "/geomancy_replaydb_cache.db";
    ReplayDb::removeFiles(path);
    Rng rng(2310);
    writeOldSchemaFile(path, rng, 3000);
    SqlReader sql(path);
    ASSERT_EQ(sql.scalar("SELECT COUNT(*) FROM sqlite_master"
                         " WHERE type = 'index';"),
              3);
    // Opening drops the old indexes; the rings match SQL from the
    // first read on.
    auto db = std::make_unique<ReplayDb>(path);
    expectCachesMatchSql(*db, sql);
    util::Counter &fills =
        util::MetricRegistry::global().counter("replaydb.cache_fills");
    std::vector<ReplayDbWatermark> cuts;
    size_t blocks = 0, leftovers = 0, rewinds = 0, reopens = 0;
    size_t coldInserts = 0;
    for (int step = 0; step < 80; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        uint64_t before = fills.value();
        int64_t action = rng.uniformInt(0, 9);
        bool warm = action < 7;
        auto insertBatch = [&] {
            size_t rows = static_cast<size_t>(rng.uniformInt(0, 70));
            std::vector<PerfRecord> batch;
            for (size_t i = 0; i < rows; ++i)
                batch.push_back(randomRecord(rng));
            db->insertAccesses(batch);
            blocks += rows / ReplayDb::kInsertBlockRows;
            leftovers += rows % ReplayDb::kInsertBlockRows;
        };
        if (action < 7) {
            insertBatch();
            if (rng.chance(0.5))
                cuts.push_back(db->watermark());
        } else if (action < 9) {
            // An earlier cut, or the current watermark.
            ReplayDbWatermark wm = db->watermark();
            if (!cuts.empty() && rng.chance(0.7))
                wm = cuts[static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(cuts.size()) - 1))];
            db->rewindTo(wm);
            std::erase_if(cuts, [&](const ReplayDbWatermark &cut) {
                return cut.accesses > wm.accesses;
            });
            ++rewinds;
        } else {
            db = std::make_unique<ReplayDb>(path);
            ++reopens;
        }
        // After a rewind or a reopen, rows inserted before any read,
        // or after one read that stops the pass early, start the file
        // rings of keys the pass has not met while their older rows
        // sit in SQL only; a device ring that read filled takes them
        // too. The reads below ask those rings for 1, 7 and 64 rows.
        if (!warm && rng.chance(0.6)) {
            if (rng.chance(0.5)) {
                PerfRecord latest;
                db->latestAccessForFile(0, latest);
                db->deviceWindow(0, kSmallWindow);
            }
            insertBatch();
            ++coldInserts;
        }
        expectCachesMatchSql(*db, sql);
        // Warm caches serve inserts without going back to SQL.
        if (warm)
            EXPECT_EQ(fills.value(), before);
        else
            EXPECT_GT(fills.value(), before);
        if (testing::Test::HasFatalFailure())
            break;
    }
    EXPECT_GT(blocks, 0u);
    EXPECT_GT(leftovers, 0u);
    EXPECT_GT(rewinds, 2u);
    EXPECT_GT(reopens, 1u);
    EXPECT_GT(coldInserts, 1u);
    db.reset();
    ReplayDb::removeFiles(path);
}

} // namespace
} // namespace core
} // namespace geo
