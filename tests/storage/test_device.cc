/**
 * @file
 * Tests for the storage-device model.
 */

#include <gtest/gtest.h>

#include "storage/device.hh"

namespace geo {
namespace storage {
namespace {

DeviceConfig
quietDevice(double read_bw = 1e9, double write_bw = 5e8)
{
    DeviceConfig config;
    config.name = "dev";
    config.readBandwidth = read_bw;
    config.writeBandwidth = write_bw;
    config.accessLatency = 0.001;
    config.capacityBytes = 1000;
    config.traffic.baseLoad = 0.0;
    config.traffic.diurnalAmplitude = 0.0;
    config.traffic.burstProbability = 0.0;
    config.traffic.noiseAmplitude = 0.0;
    return config;
}

TEST(StorageDevice, AccessDurationMatchesBandwidth)
{
    StorageDevice dev(0, quietDevice());
    DeviceAccess access = dev.access(1000000, true, 0.0);
    // 1 MB at 1 GB/s = 1 ms transfer + 1 ms latency.
    EXPECT_NEAR(access.duration, 0.002, 1e-9);
    EXPECT_NEAR(access.throughput, 1000000.0 / 0.002, 1.0);
}

TEST(StorageDevice, WriteSlowerThanRead)
{
    StorageDevice dev(0, quietDevice());
    double t0 = 1000.0; // far enough apart to let self-load decay? no -
                        // use fresh devices instead.
    StorageDevice dev2(1, quietDevice());
    DeviceAccess read = dev.access(10000000, true, t0);
    DeviceAccess write = dev2.access(10000000, false, t0);
    EXPECT_GT(write.duration, read.duration);
}

TEST(StorageDevice, ExternalLoadSlowsAccesses)
{
    DeviceConfig loaded = quietDevice();
    loaded.traffic.baseLoad = 1.0; // halves the bandwidth
    StorageDevice quiet(0, quietDevice());
    StorageDevice busy(1, loaded);
    double quiet_bw = quiet.effectiveBandwidth(true, 0.0);
    double busy_bw = busy.effectiveBandwidth(true, 0.0);
    EXPECT_NEAR(busy_bw, quiet_bw / 2.0, quiet_bw * 0.01);
}

TEST(StorageDevice, SelfLoadBuildsUpUnderSaturation)
{
    StorageDevice dev(0, quietDevice());
    double t = 0.0;
    for (int i = 0; i < 200; ++i) {
        DeviceAccess access = dev.access(50000000, true, t);
        t += access.duration; // back-to-back accesses
    }
    EXPECT_GT(dev.selfLoad(t), 0.3) << "saturated device must self-load";
}

TEST(StorageDevice, SelfLoadDecaysWhenIdle)
{
    StorageDevice dev(0, quietDevice());
    dev.access(50000000, true, 0.0);
    double loaded = dev.selfLoad(0.1);
    double later = dev.selfLoad(1000.0);
    EXPECT_LT(later, loaded * 0.01);
}

TEST(StorageDevice, BusyTimeLoadsDevice)
{
    StorageDevice dev(0, quietDevice());
    double before = dev.effectiveBandwidth(true, 0.0);
    dev.addBusyTime(0.0, 60.0); // a long migration
    double after = dev.effectiveBandwidth(true, 0.0);
    EXPECT_LT(after, before);
}

TEST(StorageDevice, CapacityReserveRelease)
{
    StorageDevice dev(0, quietDevice());
    EXPECT_EQ(dev.freeBytes(), 1000u);
    EXPECT_TRUE(dev.reserve(600));
    EXPECT_EQ(dev.usedBytes(), 600u);
    EXPECT_FALSE(dev.reserve(600));
    EXPECT_TRUE(dev.reserve(400));
    EXPECT_EQ(dev.freeBytes(), 0u);
    dev.release(500);
    EXPECT_EQ(dev.usedBytes(), 500u);
    dev.release(99999); // over-release clamps to zero
    EXPECT_EQ(dev.usedBytes(), 0u);
}

TEST(StorageDevice, StatsAccumulate)
{
    StorageDevice dev(0, quietDevice());
    EXPECT_EQ(dev.accessCount(), 0u);
    dev.access(1000, true, 0.0);
    dev.access(2000, true, 10.0);
    EXPECT_EQ(dev.accessCount(), 2u);
    EXPECT_GT(dev.throughputStats().mean(), 0.0);
}

TEST(StorageDevice, WritableFlag)
{
    DeviceConfig config = quietDevice();
    config.writable = false;
    StorageDevice dev(0, config);
    EXPECT_FALSE(dev.writable());
    dev.setWritable(true);
    EXPECT_TRUE(dev.writable());
}

TEST(StorageDeviceDeathTest, InvalidConfig)
{
    DeviceConfig config = quietDevice();
    config.readBandwidth = 0.0;
    EXPECT_DEATH(StorageDevice(0, config), "bandwidth");
    config = quietDevice();
    config.selfLoadTau = 0.0;
    EXPECT_DEATH(StorageDevice(0, config), "selfLoadTau");
}

} // namespace
} // namespace storage
} // namespace geo
