/**
 * @file
 * Unit tests for the metric registry: bucket boundaries, quantile
 * estimation, snapshot export round-trips and concurrent recording.
 */

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.hh"
#include "util/metrics.hh"

namespace geo {
namespace {

using util::Counter;
using util::Gauge;
using util::Histogram;
using util::HistogramSnapshot;
using util::JsonValue;
using util::MetricRegistry;

TEST(Counter, AddAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
    g.reset();
    EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundaries)
{
    // Non-positive and sub-minimum values land in the underflow bucket.
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(-5.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(std::ldexp(1.0, -40)), 0u);
    EXPECT_EQ(Histogram::bucketIndex(std::nan("")), 0u);

    // The first real bucket starts at 2^kMinExp.
    size_t first = Histogram::bucketIndex(std::ldexp(1.0, Histogram::kMinExp));
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(Histogram::bucketLowerBound(first),
              std::ldexp(1.0, Histogram::kMinExp));

    // Powers of two are each bucket's inclusive lower bound; the value
    // just below belongs to the previous bucket.
    for (double v : {1.0, 2.0, 1024.0, 1e6}) {
        size_t i = Histogram::bucketIndex(v);
        EXPECT_GE(v, Histogram::bucketLowerBound(i)) << v;
        EXPECT_LT(v, Histogram::bucketUpperBound(i)) << v;
        EXPECT_EQ(Histogram::bucketIndex(
                      Histogram::bucketLowerBound(i)), i)
            << v;
    }
    EXPECT_EQ(Histogram::bucketIndex(2.0),
              Histogram::bucketIndex(3.999) );
    EXPECT_NE(Histogram::bucketIndex(1.999), Histogram::bucketIndex(2.0));

    // Values beyond 2^kMaxExp overflow into the last bucket, whose
    // upper bound is infinite.
    size_t last = Histogram::bucketIndex(std::ldexp(1.0, Histogram::kMaxExp + 3));
    EXPECT_EQ(last, Histogram::kBucketCount - 1);
    EXPECT_TRUE(std::isinf(Histogram::bucketUpperBound(last)));
}

TEST(Histogram, SnapshotBasics)
{
    Histogram h;
    HistogramSnapshot empty = h.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.p50, 0.0);

    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 100.0);
    // Log-bucketed estimates: generous tolerances, but the order
    // statistics must land in the right region and stay ordered.
    EXPECT_GT(snap.p50, 16.0);
    EXPECT_LT(snap.p50, 64.0);
    EXPECT_GE(snap.p95, snap.p50);
    EXPECT_GE(snap.p99, snap.p95);
    EXPECT_LE(snap.p99, snap.max);
}

TEST(Histogram, QuantileClampsToObservedRange)
{
    Histogram h;
    // All mass in one bucket: every quantile must stay inside [lo, hi].
    h.record(5.0);
    h.record(5.5);
    h.record(6.0);
    EXPECT_GE(h.quantile(0.0), 5.0);
    EXPECT_LE(h.quantile(1.0), 6.0);
    EXPECT_GE(h.quantile(0.5), 5.0);
    EXPECT_LE(h.quantile(0.5), 6.0);
}

TEST(Histogram, SingleValueQuantiles)
{
    Histogram h;
    h.record(42.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 42.0);
    HistogramSnapshot snap = h.snapshot();
    EXPECT_DOUBLE_EQ(snap.min, 42.0);
    EXPECT_DOUBLE_EQ(snap.max, 42.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h;
    h.record(1.0);
    h.record(1e9);
    h.reset();
    HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.sum, 0.0);
    EXPECT_EQ(snap.max, 0.0);
}

TEST(Histogram, ConcurrentRecordingLosesNothing)
{
    Histogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t]() {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<double>(t + 1));
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads));
    EXPECT_DOUBLE_EQ(snap.sum, (1.0 + 2.0 + 3.0 + 4.0) * kPerThread);
}

TEST(MetricRegistry, HandleAddressesAreStable)
{
    MetricRegistry registry;
    Counter &a = registry.counter("x.count");
    for (int i = 0; i < 100; ++i)
        registry.counter("filler." + std::to_string(i));
    EXPECT_EQ(&a, &registry.counter("x.count"));
    a.inc();
    EXPECT_EQ(registry.counterValue("x.count"), 1u);
    EXPECT_EQ(registry.counterValue("never.registered"), 0u);
}

TEST(MetricRegistry, NamesAreIndependentPerKind)
{
    MetricRegistry registry;
    registry.counter("same.name").add(7);
    registry.gauge("same.name").set(1.5);
    registry.histogram("same.name").record(3.0);
    EXPECT_EQ(registry.counterValue("same.name"), 7u);
    EXPECT_EQ(registry.gauges().size(), 1u);
    EXPECT_EQ(registry.histograms().size(), 1u);
}

TEST(MetricRegistry, JsonSnapshotRoundTrips)
{
    MetricRegistry registry;
    registry.counter("pipeline.cycles").add(12);
    registry.counter("pipeline.moves").add(3);
    registry.gauge("model.val_mae").set(12.75);
    Histogram &h = registry.histogram("predict.ms");
    h.record(0.5);
    h.record(2.0);
    h.record(8.0);

    std::string json = registry.toJson();
    JsonValue doc;
    ASSERT_TRUE(util::parseJson(json, doc)) << json;
    EXPECT_NE(json.find("\"schema\": \"geo-metrics-1\""),
              std::string::npos);
    const JsonValue *counters = doc.get("counters");
    const JsonValue *gauges = doc.get("gauges");
    const JsonValue *histograms = doc.get("histograms");
    ASSERT_TRUE(counters && gauges && histograms) << json;
    EXPECT_EQ(counters->num("pipeline.cycles"), 12.0);
    EXPECT_EQ(counters->num("pipeline.moves"), 3.0);
    EXPECT_EQ(gauges->num("model.val_mae"), 12.75);
    // Histogram block: count and sum must round-trip exactly.
    const JsonValue *predict = histograms->get("predict.ms");
    ASSERT_NE(predict, nullptr) << json;
    EXPECT_EQ(predict->num("count"), 3.0);
    EXPECT_EQ(predict->num("sum"), 10.5);
}

TEST(MetricRegistry, EmptyRegistryIsValidJson)
{
    MetricRegistry registry;
    JsonValue doc;
    EXPECT_TRUE(util::parseJson(registry.toJson(), doc));
}

TEST(MetricRegistry, PrometheusExposition)
{
    MetricRegistry registry;
    registry.counter("control.bytes-moved").add(1024);
    registry.gauge("drl.val_mae_pct").set(9.5);
    registry.histogram("drl.train_ms").record(100.0);

    std::string prom = registry.toPrometheus();
    // Dots and dashes become underscores under the geo_ prefix.
    EXPECT_NE(prom.find("# TYPE geo_control_bytes_moved counter"),
              std::string::npos);
    EXPECT_NE(prom.find("geo_control_bytes_moved 1024"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE geo_drl_val_mae_pct gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("geo_drl_train_ms{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("geo_drl_train_ms_count 1"), std::string::npos);
}

TEST(MetricRegistry, PrometheusHelpAndType)
{
    MetricRegistry registry;
    registry.counter("geomancy.cycles").inc();
    registry.setHelp("geomancy.cycles",
                     "Decision cycles completed by the pipeline");
    registry.gauge("ledger.dev0.abs_err").set(0.25);

    std::string prom = registry.toPrometheus();
    size_t help = prom.find("# HELP geo_geomancy_cycles "
                            "Decision cycles completed by the pipeline");
    size_t type = prom.find("# TYPE geo_geomancy_cycles counter");
    size_t sample = prom.find("geo_geomancy_cycles 1");
    ASSERT_NE(help, std::string::npos) << prom;
    ASSERT_NE(type, std::string::npos) << prom;
    ASSERT_NE(sample, std::string::npos) << prom;
    // Exposition order within a family: HELP, then TYPE, then samples.
    EXPECT_LT(help, type);
    EXPECT_LT(type, sample);
    // A metric nobody registered help for still gets a HELP line.
    EXPECT_NE(prom.find("# HELP geo_ledger_dev0_abs_err "),
              std::string::npos);
}

TEST(MetricRegistry, PrometheusHelpIsEscaped)
{
    MetricRegistry registry;
    registry.counter("a.b").inc();
    registry.setHelp("a.b", "line one\nback\\slash");
    std::string prom = registry.toPrometheus();
    EXPECT_NE(prom.find("# HELP geo_a_b line one\\nback\\\\slash"),
              std::string::npos)
        << prom;
}

TEST(MetricRegistry, PromEscapeLabelValue)
{
    EXPECT_EQ(MetricRegistry::promEscapeLabel("plain"), "plain");
    EXPECT_EQ(MetricRegistry::promEscapeLabel("a\\b"), "a\\\\b");
    EXPECT_EQ(MetricRegistry::promEscapeLabel("say \"hi\""),
              "say \\\"hi\\\"");
    EXPECT_EQ(MetricRegistry::promEscapeLabel("two\nlines"),
              "two\\nlines");
}

TEST(MetricRegistry, PromEscapeHelpKeepsQuotes)
{
    // HELP text escapes backslash and newline but NOT double quotes —
    // quotes are only special inside label values.
    EXPECT_EQ(MetricRegistry::promEscapeHelp("a \"quoted\" word"),
              "a \"quoted\" word");
    EXPECT_EQ(MetricRegistry::promEscapeHelp("a\\b\nc"), "a\\\\b\\nc");
}

TEST(MetricRegistry, ResetZeroesButKeepsRegistrations)
{
    MetricRegistry registry;
    Counter &c = registry.counter("a.b");
    c.add(5);
    registry.gauge("g").set(2.0);
    registry.histogram("h").record(1.0);
    registry.reset();
    EXPECT_EQ(registry.counterValue("a.b"), 0u);
    EXPECT_EQ(&c, &registry.counter("a.b")); // handle survived
    EXPECT_EQ(registry.gauges()[0].second, 0.0);
    EXPECT_EQ(registry.histograms()[0].second.count, 0u);
}

TEST(MetricRegistry, GlobalIsASingleton)
{
    EXPECT_EQ(&MetricRegistry::global(), &MetricRegistry::global());
}

} // namespace
} // namespace geo
