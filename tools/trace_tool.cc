/**
 * @file
 * trace_tool — generate, inspect and analyze EOS-style access traces.
 *
 * Subcommands:
 *   generate --records N [--devices N] [--files N] [--seed N] --out F
 *       Write a synthetic EOS-style trace as CSV.
 *   analyze --in F [--top K]
 *       Print the Fig. 4 feature/throughput correlation table and
 *       basic statistics for a trace CSV.
 *   replay --in F [--seed N]
 *       Replay a trace against the simulated Bluesky testbed and
 *       report the observed throughput.
 */

#include <fstream>
#include <iostream>

#include "storage/bluesky.hh"
#include "trace/eos_trace_gen.hh"
#include "trace/feature_select.hh"
#include "util/fs_atomic.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workload/trace_replay.hh"

namespace {

using namespace geo;

void
usage()
{
    std::cout <<
        "trace_tool <generate|analyze|replay> [options]\n\n"
        "  generate --records N [--devices N] [--files N] [--seed N]\n"
        "           --out FILE\n"
        "  analyze  --in FILE [--top K]\n"
        "  replay   --in FILE [--seed N]\n";
}

std::map<std::string, std::string>
parseFlags(int argc, char **argv, int first)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '%s'", arg.c_str());
        if (i + 1 >= argc)
            fatal("%s needs a value", arg.c_str());
        flags[arg.substr(2)] = argv[++i];
    }
    return flags;
}

uint64_t
flagInt(const std::map<std::string, std::string> &flags,
        const std::string &name, uint64_t fallback)
{
    auto it = flags.find(name);
    if (it == flags.end())
        return fallback;
    uint64_t value = 0;
    if (!util::parseU64(it->second, value))
        fatal("--%s '%s': expected a non-negative integer", name.c_str(),
              it->second.c_str());
    return value;
}

std::vector<trace::AccessRecord>
loadTrace(const std::map<std::string, std::string> &flags)
{
    auto it = flags.find("in");
    if (it == flags.end())
        fatal("--in FILE is required");
    std::string text;
    if (!util::readFileAll(it->second, text))
        fatal("cannot open '%s'", it->second.c_str());
    std::vector<trace::AccessRecord> records = trace::recordsFromCsv(text);
    if (records.empty())
        fatal("no records in '%s'", it->second.c_str());
    return records;
}

int
cmdGenerate(const std::map<std::string, std::string> &flags)
{
    trace::EosTraceConfig config;
    config.deviceCount = flagInt(flags, "devices", config.deviceCount);
    config.fileCount = flagInt(flags, "files", config.fileCount);
    config.seed = flagInt(flags, "seed", config.seed);
    size_t records = flagInt(flags, "records", 10000);
    auto it = flags.find("out");
    if (it == flags.end())
        fatal("--out FILE is required");

    trace::EosTraceGenerator generator(config);
    std::ofstream out(it->second);
    if (!out)
        fatal("cannot write '%s'", it->second.c_str());
    out << trace::recordsToCsv(generator.generate(records));
    std::cout << records << " records written to " << it->second << "\n";
    return 0;
}

int
cmdAnalyze(const std::map<std::string, std::string> &flags)
{
    std::vector<trace::AccessRecord> records = loadTrace(flags);
    StatAccumulator tp;
    for (const trace::AccessRecord &rec : records)
        tp.add(rec.throughput());
    std::cout << records.size() << " records; throughput "
              << TextTable::num(tp.mean() / 1e6, 2) << " +/- "
              << TextTable::num(tp.stddev() / 1e6, 2) << " MB/s\n\n";

    TextTable table("Feature correlation with throughput (Fig. 4)");
    table.setHeader({"feature", "pearson r", "chosen (paper)"});
    for (const trace::FeatureCorrelation &fc :
         trace::correlateFeatures(records)) {
        table.addRow({fc.name, TextTable::num(fc.correlation, 4),
                      fc.chosen ? "YES" : ""});
    }
    table.print(std::cout);

    size_t top = flagInt(flags, "top", 6);
    std::cout << "\nTop " << top << " by |correlation|:";
    for (const std::string &name :
         trace::selectTopFeatures(records, top))
        std::cout << ' ' << name;
    std::cout << "\n";
    return 0;
}

int
cmdReplay(const std::map<std::string, std::string> &flags)
{
    std::vector<trace::AccessRecord> records = loadTrace(flags);
    auto system =
        storage::makeBlueskySystem(flagInt(flags, "seed", 7));
    workload::TraceReplayWorkload replay(*system, records);
    StatAccumulator tp;
    for (const storage::AccessObservation &obs : replay.replayAll())
        tp.add(obs.throughput);
    TextTable table("Replay results on the Bluesky testbed");
    table.setHeader({"metric", "value"});
    table.addRow({"records replayed", std::to_string(tp.count())});
    table.addRow({"files created", std::to_string(replay.files().size())});
    table.addRow({"avg throughput (GB/s)",
                  TextTable::num(tp.mean() / 1e9, 3)});
    table.addRow({"sim time (s)",
                  TextTable::num(system->clock().now(), 1)});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string command = argv[1];
    if (command == "--help" || command == "-h") {
        usage();
        return 0;
    }
    std::map<std::string, std::string> flags =
        parseFlags(argc, argv, 2);
    if (command == "generate")
        return cmdGenerate(flags);
    if (command == "analyze")
        return cmdAnalyze(flags);
    if (command == "replay")
        return cmdReplay(flags);
    fatal("unknown command '%s' (try --help)", command.c_str());
}
