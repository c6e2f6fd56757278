/**
 * @file
 * Tests for the SQLite-backed ReplayDB.
 */

#include <gtest/gtest.h>

#include "core/replay_db.hh"

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

TEST(ReplayDb, StartsEmpty)
{
    ReplayDb db;
    EXPECT_EQ(db.accessCount(), 0);
    EXPECT_EQ(db.movementCount(), 0);
    EXPECT_TRUE(db.recentAccessesForDevice(0, 10).empty());
}

TEST(ReplayDb, InsertAndCount)
{
    ReplayDb db;
    EXPECT_GT(db.insertAccess(record(1, 0, 100.0)), 0);
    db.insertAccess(record(2, 1, 200.0));
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
        db.insertAccess(record(static_cast<storage::FileId>(i), 0,
                               static_cast<double>(i)));
    std::vector<PerfRecord> recent = db.recentAccessesForDevice(0, 3);
    ASSERT_EQ(recent.size(), 3u);
    EXPECT_EQ(recent[0].file, 7u);
    EXPECT_EQ(recent[1].file, 8u);
    EXPECT_EQ(recent[2].file, 9u);
}

TEST(ReplayDb, PerDeviceQuery)
{
    ReplayDb db;
    db.insertAccess(record(1, 0, 10.0));
    db.insertAccess(record(2, 1, 20.0));
    db.insertAccess(record(3, 0, 30.0));
    std::vector<PerfRecord> device0 = db.recentAccessesForDevice(0, 10);
    ASSERT_EQ(device0.size(), 2u);
    EXPECT_EQ(device0[0].file, 1u);
    EXPECT_EQ(device0[1].file, 3u);
}

TEST(ReplayDb, PerFileQueryAndLatest)
{
    ReplayDb db;
    db.insertAccess(record(5, 0, 10.0));
    db.insertAccess(record(5, 1, 20.0));
    db.insertAccess(record(6, 0, 30.0));
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
    db.insertAccess(original);
    std::vector<PerfRecord> out = db.recentAccessesForDevice(3, 1);
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
}

TEST(ReplayDb, DeviceThroughputAverages)
{
    ReplayDb db;
    db.insertAccess(record(1, 0, 10.0));
    db.insertAccess(record(2, 0, 30.0));
    db.insertAccess(record(3, 1, 100.0));
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
    db.insertAccess(record(1, 0, 1000.0)); // old sample
    for (int i = 0; i < 5; ++i)
        db.insertAccess(record(2, 0, 10.0));
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
    EXPECT_EQ(db.movementCount(), 2);
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
        db.insertAccess(record(1, 0, 42.0));
    }
    {
        ReplayDb db(path);
        EXPECT_EQ(db.accessCount(), 1);
        std::vector<PerfRecord> out = db.recentAccessesForDevice(0, 1);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_DOUBLE_EQ(out[0].throughput, 42.0);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace core
} // namespace geo
