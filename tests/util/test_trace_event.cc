/**
 * @file
 * Unit tests for the trace-event collector: span recording, the two
 * time domains, buffer-full dropping and JSON well-formedness under
 * concurrent writers.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.hh"
#include "util/trace_event.hh"

namespace geo {
namespace {

using util::ScopedSpan;
using util::TimeDomain;
using util::TraceCollector;

/** Whole-document well-formedness through the shared JSON reader. */
bool
validJson(const std::string &text)
{
    util::JsonValue doc;
    return util::parseJson(text, doc);
}

TEST(TraceCollector, DisabledByDefaultRecordsNothing)
{
    TraceCollector collector;
    EXPECT_FALSE(collector.enabled());
    collector.completeEvent("cat", "name", TimeDomain::Host, 0.0, 1.0);
    EXPECT_EQ(collector.eventCount(), 0u);
}

TEST(TraceCollector, RecordsWhenEnabled)
{
    TraceCollector collector;
    collector.enable(16);
    collector.completeEvent("cycle", "train", TimeDomain::Host, 10.0,
                            5.0);
    collector.instantEvent("fault", "begins", TimeDomain::Sim, 120.0);
    EXPECT_EQ(collector.eventCount(), 2u);
    collector.disable();
    collector.completeEvent("cycle", "train", TimeDomain::Host, 20.0,
                            1.0);
    EXPECT_EQ(collector.eventCount(), 2u); // kept, but no new events
}

TEST(TraceCollector, JsonIsWellFormedAndCarriesBothDomains)
{
    TraceCollector collector;
    collector.enable(16);
    collector.completeEvent("cycle", "predict", TimeDomain::Host, 100.0,
                            50.0);
    // Sim timestamps are in seconds and must be scaled to us (x 1e6).
    collector.completeEvent("migrate", "move", TimeDomain::Sim, 2.0,
                            0.5);
    std::string json = collector.toJson();
    ASSERT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Both process metadata records are present.
    EXPECT_NE(json.find("geomancy host (steady clock)"),
              std::string::npos);
    EXPECT_NE(json.find("geomancy sim (SimClock)"), std::string::npos);
    // The sim span lands on pid 2 with scaled timestamps.
    EXPECT_NE(json.find("\"pid\":2,\"tid\":0,\"ts\":2e+06"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"dur\":500000"), std::string::npos) << json;
    // The host span keeps its microsecond values.
    EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
}

TEST(TraceCollector, EmptyTraceIsValidJson)
{
    TraceCollector collector;
    collector.enable(4);
    EXPECT_TRUE(validJson(collector.toJson()));
}

TEST(TraceCollector, FullBufferDropsInsteadOfGrowing)
{
    TraceCollector collector;
    collector.enable(8);
    for (int i = 0; i < 50; ++i)
        collector.completeEvent("cat", "span", TimeDomain::Host,
                                static_cast<double>(i), 1.0);
    EXPECT_LE(collector.eventCount(), 8u);
    EXPECT_EQ(collector.eventCount() + collector.droppedCount(), 50u);
    EXPECT_TRUE(validJson(collector.toJson()));
}

TEST(TraceCollector, ReenableClearsOldEvents)
{
    TraceCollector collector;
    collector.enable(8);
    collector.completeEvent("a", "b", TimeDomain::Host, 0.0, 1.0);
    collector.enable(8);
    EXPECT_EQ(collector.eventCount(), 0u);
    EXPECT_EQ(collector.droppedCount(), 0u);
}

TEST(TraceCollector, CrashFlushWritesTheBytesOfToJson)
{
    // crashFlush() formats for fatal-signal paths, without allocating
    // or locking; the file it leaves must be exactly toJson().
    TraceCollector collector;
    collector.enable(16);
    EXPECT_FALSE(collector.crashFlush()) << "no crash path registered";
    collector.completeEvent("cycle", "train", TimeDomain::Host, 12.5,
                            3.25);
    std::thread([&collector] {
        collector.completeEvent("pool", "retrain", TimeDomain::Host,
                                20.0, 0.125);
    }).join();
    collector.completeEvent("migrate", "move", TimeDomain::Sim, 2.0, 0.5);
    collector.completeEvent("migrate", "chunk", TimeDomain::Sim, 1e-7,
                            123456.789);
    collector.instantEvent("fault", "begins", TimeDomain::Sim, 120.0);
    collector.instantEvent("guardrail", "hold", TimeDomain::Host, 33.0);
    ASSERT_EQ(collector.eventCount(), 6u);

    const std::string path =
        (std::filesystem::temp_directory_path() / "geo_trace_crash.json")
            .string();
    collector.setCrashFlushPath(path);
    ASSERT_TRUE(collector.crashFlush());
    std::ifstream in(path, std::ios::binary);
    const std::string flushed((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_EQ(flushed, collector.toJson());
    EXPECT_TRUE(validJson(flushed)) << flushed;
}

TEST(TraceCollector, ConcurrentSpansProduceWellFormedJson)
{
    TraceCollector &collector = TraceCollector::global();
    collector.enable(1 << 12);
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 300;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t]() {
            for (int i = 0; i < kSpansPerThread; ++i) {
                ScopedSpan span("test", "concurrent");
                if (i % 3 == 0)
                    util::traceSimSpan("test", "sim_side",
                                       static_cast<double>(t * 1000 + i),
                                       0.25);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    collector.disable();

    EXPECT_EQ(collector.eventCount() + collector.droppedCount(),
              static_cast<size_t>(kThreads) * (kSpansPerThread +
                                               kSpansPerThread / 3));
    std::string json = collector.toJson();
    EXPECT_TRUE(validJson(json));
    collector.clear();
}

TEST(ScopedSpan, MeasuresNonNegativeDurations)
{
    TraceCollector &collector = TraceCollector::global();
    collector.enable(16);
    {
        ScopedSpan span("test", "scope");
    }
    collector.disable();
    ASSERT_EQ(collector.eventCount(), 1u);
    std::string json = collector.toJson();
    EXPECT_NE(json.find("\"name\":\"scope\""), std::string::npos);
    EXPECT_EQ(json.find("\"dur\":-"), std::string::npos) << json;
    collector.clear();
}

TEST(TraceMacros, SpanMacroRecordsIntoGlobal)
{
    TraceCollector &collector = TraceCollector::global();
    collector.enable(16);
    {
        GEO_SPAN("macro", "scope");
        GEO_SIM_SPAN("macro", "sim", 1.0, 2.0);
        GEO_TRACE_INSTANT("macro", "mark", util::TimeDomain::Sim, 3.0);
    }
    collector.disable();
    EXPECT_EQ(collector.eventCount(), 3u);
    collector.clear();
}

} // namespace
} // namespace geo
