/**
 * @file
 * Regenerates Fig. 5a (experiment 1): Geomancy dynamic vs the dynamic
 * heuristics (LRU, MRU, LFU, random dynamic) on the live system.
 *
 * Expected shape (paper Section VII): Geomancy's average throughput
 * beats every heuristic by at least ~11%, LFU comes closest (paper:
 * 4.46 GB/s vs Geomancy's 4.98 GB/s), and Geomancy moves only small
 * subsets of files (1-14) at each decision point.
 */

#include <future>
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_common.hh"
#include "experiment_common.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

int
main()
{
    using namespace geo;
    bench::BenchObservability observability;
    using bench::PolicyKind;
    bench::header("Fig. 5a - Geomancy vs dynamic placement policies",
                  "Section VII, Fig. 5a (experiment 1)");

    struct Row
    {
        PolicyKind kind;
        const char *label;
    };
    const Row rows[] = {
        {PolicyKind::GeomancyDynamic, "Geomancy dynamic"},
        {PolicyKind::Lfu, "LFU"},
        {PolicyKind::Lru, "LRU"},
        {PolicyKind::Mru, "MRU"},
        {PolicyKind::RandomDynamic, "random dynamic"},
    };

    TextTable table("Average workload throughput per policy");
    table.setHeader({"Policy", "Avg throughput (GB/s)", "accesses",
                     "files moved", "GB moved"});

    // Every policy's run is an independent deterministic simulation,
    // so they all fan out across the pool; rows print in fixed policy
    // order.
    util::ThreadPool &pool = util::ThreadPool::global();
    std::vector<std::future<core::ExperimentResult>> runs;
    for (const Row &row : rows) {
        PolicyKind kind = row.kind;
        runs.push_back(
            pool.submit([kind]() { return bench::runPolicy(kind, 7); }));
    }

    double geomancy_avg = 0.0, best_heuristic = 0.0;
    std::string best_heuristic_name;
    std::vector<core::MoveEvent> geomancy_moves;
    for (size_t r = 0; r < std::size(rows); ++r) {
        const Row &row = rows[r];
        core::ExperimentResult result = runs[r].get();
        double throughput = result.averageThroughput;
        table.addRow({row.label, bench::gbps(throughput),
                      std::to_string(result.totalAccesses),
                      std::to_string(result.filesMoved),
                      TextTable::num(
                          static_cast<double>(result.bytesMoved) / 1e9,
                          2)});
        if (row.kind == PolicyKind::GeomancyDynamic) {
            geomancy_avg = throughput;
            geomancy_moves = result.moveEvents;
        } else if (throughput > best_heuristic) {
            best_heuristic = throughput;
            best_heuristic_name = row.label;
        }
        std::cerr << "finished " << row.label << "\n";
    }
    table.print(std::cout);

    std::cout << "\nFile movements by Geomancy (the Fig. 5 bars):\n";
    for (const core::MoveEvent &event : geomancy_moves) {
        std::cout << "  access " << event.accessNumber << ": "
                  << event.filesMoved << " file(s) moved\n";
    }

    double gain = (geomancy_avg / best_heuristic - 1.0) * 100.0;
    std::cout << "\nGeomancy vs best heuristic (" << best_heuristic_name
              << "): " << TextTable::num(gain, 1)
              << "% (paper reports >= 11%, LFU closest)\n";
    bool small_moves = true;
    for (const core::MoveEvent &event : geomancy_moves)
        small_moves = small_moves && event.filesMoved <= 14;
    std::cout << "Moves per decision <= 14: "
              << (small_moves ? "OK" : "MISMATCH") << "\n";
    return 0;
}
