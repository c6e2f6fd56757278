/**
 * @file
 * Regenerates Fig. 4: Pearson correlation between raw EOS access-log
 * features and measured throughput, with the paper's six chosen
 * features flagged.
 *
 * Expected shape (paper Section V-D): transfer sizes (rb, wb) and the
 * open/close timestamps land on the positive side; read/write times
 * (rt, wt) are strongly negative; file/filesystem IDs and security
 * fields sit near zero.
 */

#include <iostream>

#include "bench_common.hh"
#include "trace/eos_trace_gen.hh"
#include "trace/feature_select.hh"
#include "util/table.hh"

int
main()
{
    using namespace geo;
    bench::header("Fig. 4 - feature/throughput correlation",
                  "Section V-D, Fig. 4");

    size_t records = bench::fullScale() ? 200000 : 30000;
    trace::EosTraceConfig config;
    trace::EosTraceGenerator generator(config);
    std::vector<trace::AccessRecord> trace_records =
        generator.generate(records);
    std::cout << "Synthetic EOS trace: " << trace_records.size()
              << " records over " << config.deviceCount
              << " storage devices\n\n";

    std::vector<trace::FeatureCorrelation> correlations =
        trace::correlateFeatures(trace_records);

    TextTable table("Correlation with throughput (sorted descending)");
    table.setHeader({"feature", "pearson r", "chosen (paper Z=6)"});
    for (const trace::FeatureCorrelation &fc : correlations) {
        table.addRow({fc.name, TextTable::num(fc.correlation, 4),
                      fc.chosen ? "YES" : ""});
    }
    table.print(std::cout);

    // Shape checks against the paper's narrative.
    auto r_of = [&](const std::string &name) {
        for (const auto &fc : correlations)
            if (fc.name == name)
                return fc.correlation;
        return 0.0;
    };
    std::cout << "\nShape checks vs paper:\n";
    std::cout << "  rb positively correlated:      "
              << (r_of("rb") > 0.05 ? "OK" : "MISMATCH") << "\n";
    std::cout << "  rt strongly negative:          "
              << (r_of("rt") < -0.05 ? "OK" : "MISMATCH") << "\n";
    std::cout << "  fid near zero (|r| < 0.1):     "
              << (std::abs(r_of("fid")) < 0.1 ? "OK" : "MISMATCH")
              << "\n";
    return 0;
}
