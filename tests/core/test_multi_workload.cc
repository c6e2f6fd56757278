/**
 * @file
 * Multi-workload management: one Geomancy instance managing the files
 * of two workloads at once (the paper's scale-out direction).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/geomancy.hh"
#include "storage/bluesky.hh"
#include "workload/belle2.hh"
#include "workload/interference.hh"

namespace geo {
namespace core {
namespace {

TEST(MultiWorkload, GeomancyManagesTwoWorkloads)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload first(*system);
    workload::Belle2Config second_config;
    second_config.namePrefix = "belle2/second";
    second_config.seed = 555;
    workload::Belle2Workload second(*system, second_config);

    std::vector<storage::FileId> managed = first.files();
    managed.insert(managed.end(), second.files().begin(),
                   second.files().end());
    GeomancyConfig config;
    config.drl.epochs = 8;
    config.minHistory = 400;
    Geomancy geomancy(*system, managed, config);
    EXPECT_EQ(geomancy.managedFiles().size(), 48u);

    // Interleave the two workloads and let Geomancy act.
    bool acted = false;
    for (int round = 0; round < 8; ++round) {
        first.executeRun();
        second.executeRun();
        CycleReport report = geomancy.runCycle();
        acted = acted || report.acted;
    }
    EXPECT_TRUE(acted) << "no moves across 8 cycles of two workloads";

    // Moves may touch files of either workload.
    auto moves = geomancy.replayDb().recentMovements(1000);
    EXPECT_FALSE(moves.empty());
    for (const MovementRecord &move : moves) {
        EXPECT_TRUE(std::find(managed.begin(), managed.end(),
                              move.file) != managed.end());
    }
}

TEST(MultiWorkload, ManagedSubsetLeavesOthersAlone)
{
    // Geomancy manages only the first workload; the second workload's
    // files must never be moved by model-driven or exploration cycles.
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload tuned(*system);
    workload::InterferenceWorkload other(*system);
    GeomancyConfig config;
    config.drl.epochs = 8;
    config.minHistory = 300;
    config.explorationRate = 0.5;
    Geomancy geomancy(*system, tuned.files(), config);

    std::map<storage::FileId, storage::DeviceId> other_before;
    for (storage::FileId file : other.files())
        other_before[file] = system->location(file);

    for (int round = 0; round < 6; ++round) {
        tuned.executeRun();
        other.executeRun();
        geomancy.runCycle();
    }
    for (storage::FileId file : other.files())
        EXPECT_EQ(system->location(file), other_before[file])
            << "unmanaged file " << file << " was moved";
}

} // namespace
} // namespace core
} // namespace geo
