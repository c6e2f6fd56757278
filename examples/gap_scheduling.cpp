/**
 * @file
 * The paper's future-work extension in action: gap-aware movement
 * scheduling. Geomancy predicts per-file idle gaps from the ReplayDB,
 * and the movement scheduler only admits migrations that (a) fit in
 * the predicted gap and (b) respect a per-file cooldown.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/gap_scheduling
 */

#include <iostream>

#include "core/gap_predictor.hh"
#include "core/geomancy.hh"
#include "storage/bluesky.hh"
#include "util/table.hh"
#include "workload/belle2.hh"

int
main()
{
    using namespace geo;

    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);

    core::GeomancyConfig config;
    config.drl.epochs = 10;
    config.useScheduler = true;
    config.scheduler.fileCooldownSeconds = 30.0;
    core::Geomancy geomancy(*system, workload.files(), config);

    std::cout << "running workload with gap-aware scheduling...\n";
    for (int run = 0; run < 20; ++run) {
        workload.executeRun();
        if ((run + 1) % 5 == 0)
            geomancy.runCycle();
    }

    // Inspect the gap predictions Geomancy derived for a few files.
    core::GapPredictor predictor(geomancy.replayDb());
    TextTable table("Predicted access gaps (first 6 files)");
    table.setHeader({"file", "expected gap (s)", "shortest recent (s)",
                     "gaps seen"});
    for (size_t i = 0; i < 6 && i < workload.files().size(); ++i) {
        storage::FileId file = workload.files()[i];
        auto prediction = predictor.predict(file);
        if (prediction) {
            table.addRow({std::to_string(file),
                          TextTable::num(prediction->expectedGapSeconds, 3),
                          TextTable::num(prediction->shortestRecentGap, 3),
                          std::to_string(prediction->samples)});
        } else {
            table.addRow({std::to_string(file), "(insufficient history)",
                          "-", "-"});
        }
    }
    table.print(std::cout);

    core::MovementScheduler *scheduler = geomancy.scheduler();
    std::cout << "\nscheduler decisions:\n";
    std::cout << "  moves rejected by cooldown:  "
              << scheduler->rejectedByCooldown() << "\n";
    std::cout << "  moves rejected by gap check: "
              << scheduler->rejectedByGap() << "\n";
    std::cout << "  files moved:                 "
              << system->migrationCount() << "\n";
    std::cout << "\nA file that is mid-access when its migration would "
                 "start is never moved; lower fileCooldownSeconds to "
                 "trade churn for agility.\n";
    return 0;
}
