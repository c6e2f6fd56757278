/**
 * @file
 * FlightRecorder tests: ring semantics (overwrite-oldest, bounded),
 * concurrent lock-free appends from multiple threads, dump format,
 * and crash-dump file placement.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "util/flight_recorder.hh"
#include "util/fs_atomic.hh"

namespace geo {
namespace util {
namespace {

TEST(FlightRecorder, RecordsInOrder)
{
    auto recorder = std::make_unique<FlightRecorder>();
    recorder->record(FlightKind::PhaseBegin, 1.0, 7, 0);
    recorder->record(FlightKind::PhaseEnd, 2.0, 7, 0);
    recorder->record(FlightKind::SafeModeEnter, 3.0, 9);

    EXPECT_EQ(recorder->recorded(), 3u);
    EXPECT_EQ(recorder->size(), 3u);
    std::vector<FlightEvent> events = recorder->snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, FlightKind::PhaseBegin);
    EXPECT_EQ(events[0].a0, 7u);
    EXPECT_EQ(events[1].kind, FlightKind::PhaseEnd);
    EXPECT_EQ(events[2].kind, FlightKind::SafeModeEnter);
    EXPECT_EQ(events[2].sim, 3.0);
    // Sequence numbers are assigned in record order.
    EXPECT_LT(events[0].seq, events[1].seq);
    EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(FlightRecorder, RingOverwritesOldest)
{
    auto recorder = std::make_unique<FlightRecorder>();
    const size_t total = FlightRecorder::kCapacity + 100;
    for (size_t i = 0; i < total; ++i)
        recorder->record(FlightKind::CheckpointWrite, 0.0, i);

    EXPECT_EQ(recorder->recorded(), total);
    EXPECT_EQ(recorder->size(), FlightRecorder::kCapacity);
    std::vector<FlightEvent> events = recorder->snapshot();
    ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
    // Oldest surviving event is the one that displaced slot 0's first
    // occupant; newest is the last recorded.
    EXPECT_EQ(events.front().a0, 100u);
    EXPECT_EQ(events.back().a0, total - 1);
}

TEST(FlightRecorder, ClearForgetsEverything)
{
    auto recorder = std::make_unique<FlightRecorder>();
    recorder->record(FlightKind::BreakerTrip, 1.0, 2, 3);
    recorder->clear();
    EXPECT_EQ(recorder->recorded(), 0u);
    EXPECT_EQ(recorder->size(), 0u);
    EXPECT_TRUE(recorder->snapshot().empty());
}

/** Four writers hammer the ring concurrently; every event recorded
 *  must come out of the snapshot whole — right kind, self-consistent
 *  payload — and the total count must be exact. Torn slots (a writer
 *  caught mid-store) may be skipped but never surfaced corrupted. */
TEST(FlightRecorder, ConcurrentAppendFromFourThreads)
{
    auto recorder = std::make_unique<FlightRecorder>();
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 20000;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorder, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                // a1 encodes the writer, a2 re-encodes (a0, a1) so a
                // torn slot that mixed two writers is detectable.
                recorder->record(FlightKind::QuarantineReject,
                                 static_cast<double>(t), i,
                                 static_cast<uint64_t>(t),
                                 i * kThreads + static_cast<uint64_t>(t));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(recorder->recorded(), kThreads * kPerThread);
    std::vector<FlightEvent> events = recorder->snapshot();
    EXPECT_LE(events.size(), FlightRecorder::kCapacity);
    EXPECT_GT(events.size(), 0u);
    uint64_t last_seq = 0;
    for (const FlightEvent &ev : events) {
        EXPECT_EQ(ev.kind, FlightKind::QuarantineReject);
        EXPECT_LT(ev.a1, static_cast<uint64_t>(kThreads));
        // Payload fields all come from the same record() call.
        EXPECT_EQ(ev.a2, ev.a0 * kThreads + ev.a1);
        EXPECT_EQ(static_cast<uint64_t>(ev.sim), ev.a1);
        // Snapshot is oldest-first by sequence.
        EXPECT_GT(ev.seq, last_seq);
        last_seq = ev.seq;
    }
}

TEST(FlightRecorder, DumpFormat)
{
    auto recorder = std::make_unique<FlightRecorder>();
    recorder->record(FlightKind::SafeModeEnter, 12.5, 4);
    recorder->record(FlightKind::CrashPoint, 13.0, 2, 5);

    std::string dir =
        (std::filesystem::temp_directory_path() / "geo_flight_dump")
            .string();
    std::filesystem::create_directories(dir);
    recorder->setDumpDir(dir);
    ASSERT_TRUE(recorder->crashDump("format"));
    std::string text;
    ASSERT_TRUE(readFileAll(
        dir + "/flight-format-" + std::to_string(::getpid()) + ".txt",
        text));
    std::filesystem::remove_all(dir);

    std::istringstream lines(text);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header, "geo-flight-1 recorded=2 capacity=4096");
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("safe_mode_enter"), std::string::npos) << line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("crash_point"), std::string::npos) << line;
    EXPECT_FALSE(std::getline(lines, line)) << "extra line: " << line;
}

TEST(FlightRecorder, CrashDumpLandsInDumpDir)
{
    std::string dir = (std::filesystem::temp_directory_path() /
                       "geo_flight_crashdir")
                          .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    auto recorder = std::make_unique<FlightRecorder>();
    recorder->record(FlightKind::Restore, 1.0, 3);
    // No directory registered: refused, nothing written.
    EXPECT_FALSE(recorder->crashDump("test"));
    recorder->setDumpDir(dir);
    EXPECT_TRUE(recorder->dumpDirSet());
    ASSERT_TRUE(recorder->crashDump("test"));

    bool found = false;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("flight-test-", 0) == 0) {
            found = true;
            std::string text;
            ASSERT_TRUE(readFileAll(entry.path().string(), text));
            EXPECT_EQ(text.rfind("geo-flight-1 ", 0), 0u);
        }
    }
    EXPECT_TRUE(found);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace util
} // namespace geo
