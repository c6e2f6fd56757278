/**
 * @file
 * perfbench_driver — the decision-cycle benchmark of one workload.
 *
 * Prints context lines, one "metric" line per metric (value, unit and
 * sample count) and, last, the result object
 * {"correct", "attempted", "failed", "metrics"}. Exits 0 when the
 * correctness gate passed, 1 when it failed and 2 on a usage error.
 * perfbench/run.py builds this driver and runs it; see
 * perfbench/README.md.
 */

#include <cstdio>
#include <string>

#include "cli.hh"
#include "workloads.hh"

int
main(int argc, char **argv)
{
    perfbench::Options options;
    std::string error;
    if (!perfbench::parseOptions(argc, argv, options, error)) {
        std::fprintf(stderr, "perfbench_driver: %s\n%s", error.c_str(),
                     perfbench::usage().c_str());
        return 2;
    }
    if (options.help) {
        std::fputs(perfbench::usage().c_str(), stdout);
        return 0;
    }

    perfbench::RunResult result = perfbench::runBenchmark(options);
    for (const std::string &line : result.info)
        std::printf("%s\n", line.c_str());
    std::fputs(result.report.text().c_str(), stdout);
    for (const std::string &failure : result.failures)
        std::printf("CHECK FAILED: %s\n", failure.c_str());
    std::printf("%s\n", result.report
                            .json(result.correct(), result.attempted,
                                  result.failed)
                            .c_str());
    return result.correct() ? 0 : 1;
}
