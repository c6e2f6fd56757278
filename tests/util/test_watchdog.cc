/**
 * @file
 * Tests for the phase watchdog: deadline arithmetic, one-shot firing
 * per phase and the latch across phases.
 */

#include <gtest/gtest.h>

#include "util/metrics.hh"
#include "util/watchdog.hh"

namespace geo {
namespace util {
namespace {

TEST(Watchdog, DoesNotFireWithinBudget)
{
    Watchdog dog;
    dog.beginPhase("train", 100.0, 10.0);
    EXPECT_FALSE(dog.poll(100.0));
    EXPECT_FALSE(dog.poll(109.9));
    EXPECT_FALSE(dog.poll(110.0)); // boundary is inclusive
    EXPECT_EQ(dog.overruns(), 0u);
    dog.endPhase();
}

TEST(Watchdog, FiresOnceAndLatchesForThePhase)
{
    Watchdog dog;
    dog.beginPhase("migrate", 0.0, 5.0);
    EXPECT_FALSE(dog.poll(5.0));
    EXPECT_TRUE(dog.poll(5.1));
    EXPECT_TRUE(dog.firedThisPhase());
    EXPECT_EQ(dog.overruns(), 1u);
    // Later polls keep reporting the overrun without re-counting it.
    EXPECT_TRUE(dog.poll(100.0));
    EXPECT_EQ(dog.overruns(), 1u);
    dog.endPhase();
    EXPECT_STREQ(dog.phase(), "");
}

TEST(Watchdog, ZeroBudgetDisablesTheDeadline)
{
    Watchdog dog;
    dog.beginPhase("propose", 0.0, 0.0);
    EXPECT_FALSE(dog.poll(1e12));
    dog.endPhase();
    EXPECT_EQ(dog.overruns(), 0u);
}

TEST(Watchdog, BeginPhaseResetsTheLatch)
{
    Watchdog dog;
    dog.beginPhase("migrate", 0.0, 1.0);
    EXPECT_TRUE(dog.poll(2.0));
    dog.endPhase();

    dog.beginPhase("migrate", 10.0, 1.0);
    EXPECT_FALSE(dog.firedThisPhase());
    EXPECT_FALSE(dog.poll(10.5));
    dog.endPhase();
    EXPECT_EQ(dog.overruns(), 1u);
}

TEST(Watchdog, PollOutsideAPhaseIsFalse)
{
    Watchdog dog;
    EXPECT_FALSE(dog.poll(1e9));
    dog.beginPhase("train", 0.0, 1.0);
    dog.endPhase();
    EXPECT_FALSE(dog.poll(1e9));
}

TEST(Watchdog, OverrunCountIsRestorable)
{
    Watchdog dog;
    dog.setOverruns(7);
    EXPECT_EQ(dog.overruns(), 7u);
    dog.beginPhase("migrate", 0.0, 1.0);
    EXPECT_TRUE(dog.poll(2.0));
    EXPECT_EQ(dog.overruns(), 8u);
    dog.endPhase();
}

TEST(Watchdog, RecordsDeadlineExceededMetric)
{
    auto &registry = MetricRegistry::global();
    Counter &metric = registry.counter("guardrails.deadline_exceeded");
    uint64_t before = metric.value();
    Watchdog dog;
    dog.beginPhase("migrate", 0.0, 1.0);
    EXPECT_TRUE(dog.poll(5.0));
    dog.endPhase();
    EXPECT_EQ(metric.value(), before + 1);
}

} // namespace
} // namespace util
} // namespace geo
