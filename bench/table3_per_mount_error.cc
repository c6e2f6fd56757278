/**
 * @file
 * Regenerates Table III: model 1's prediction error on each of the six
 * Bluesky mounts.
 *
 * Expected shape (paper Section V-G): errors in the teens-to-twenties
 * of percent, with the busiest mounts (people) and the most volatile
 * one (file0) hardest to predict; average accuracy around 80%.
 */

#include <iostream>

#include "bench_common.hh"
#include "model_search_common.hh"
#include "util/table.hh"

int
main()
{
    using namespace geo;
    bench::header("Table III - model 1 error per storage point",
                  "Section V-G, Table III");

    const size_t epochs = bench::knob("GEO_EPOCHS", 30, 200);
    const size_t max_entries = bench::knob("GEO_ENTRIES", 3000, 12000);
    const size_t runs = bench::fullScale() ? 300 : 60;

    bench::Telemetry telemetry = bench::collectTelemetry(runs);

    TextTable table("Table III: model 1 absolute relative error (%)");
    table.setHeader({"Storage point", "Abs rel error (%)", "samples"});
    StatAccumulator error_means;
    for (storage::DeviceId id = 0; id < telemetry.deviceNames.size();
         ++id) {
        std::vector<core::PerfRecord> &records = telemetry.perDevice[id];
        if (records.size() > max_entries)
            records.resize(max_entries);
        if (records.size() < 200) {
            table.addRow({telemetry.deviceNames[id], "(too few samples)",
                          std::to_string(records.size())});
            continue;
        }
        bench::ModelScore score = bench::scoreModelAveraged(
            1, records, epochs, 500 + id,
            bench::knob("GEO_SEEDS", 3, 5));
        if (score.diverged) {
            table.addRow({telemetry.deviceNames[id], "Diverged",
                          std::to_string(records.size())});
            continue;
        }
        table.addRow({telemetry.deviceNames[id],
                      TextTable::meanStd(score.meanAbsRelError,
                                         score.stddevAbsRelError),
                      std::to_string(records.size())});
        error_means.add(score.meanAbsRelError);
    }
    table.print(std::cout);

    std::cout << "\nAverage accuracy over mounts: "
              << TextTable::num(100.0 - error_means.mean(), 2)
              << "% (paper reports ~81% with a worst mount of ~76%)\n";
    return 0;
}
