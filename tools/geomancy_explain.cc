/**
 * @file
 * geomancy_explain -- post-mortem queries over a geo-ledger-1 decision ledger.
 *
 * Usage: geomancy_explain --ledger FILE [--json] [--metrics FILE] MODE
 *
 * Modes:
 *   --why FILE@CYCLE        explain why a file moved (or did not) in a cycle
 *   --prediction-error      realized-vs-predicted throughput error (Table 3)
 *       [--per-mount]       break the error stats down per device
 *   --vetoes                histogram of ActionChecker verdicts
 *   --safe-mode-timeline    guardrail safe-mode transitions over the run
 *
 * `--metrics FILE` takes a Prometheus text snapshot written by geomancy_sim
 * (`--metrics-prom`) and cross-checks the ledger-derived per-mount error
 * stats against the in-process `ledger.dev*` gauges; a mismatch exits 2 so
 * CI can gate on ledger/metrics consistency.
 *
 * The ledger is newline-delimited JSON, read line by line with util/json.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/parse.hh"
#include "util/table.hh"

namespace {

using geo::util::JsonValue;
using geo::util::jsonEscape;

/* ------------------------------------------------------------------ */
/* Ledger loading                                                      */
/* ------------------------------------------------------------------ */

struct Ledger
{
    std::vector<JsonValue> rows; ///< every row after the header, in order
};

bool
loadLedger(const std::string &path, Ledger &out, std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open " + path;
        return false;
    }
    std::string line;
    size_t lineNo = 0;
    uint64_t lastSeq = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        JsonValue row;
        if (!geo::util::parseJson(line, row) ||
            row.kind != JsonValue::Object) {
            error = path + ":" + std::to_string(lineNo) + ": malformed JSON";
            return false;
        }
        if (lineNo == 1) {
            if (row.str("t") != "ledger" ||
                row.str("schema") != "geo-ledger-1") {
                error = path + ": not a geo-ledger-1 file";
                return false;
            }
            continue;
        }
        uint64_t seq = static_cast<uint64_t>(row.num("seq"));
        if (seq != lastSeq + 1) {
            error = path + ":" + std::to_string(lineNo) +
                    ": sequence gap (expected " +
                    std::to_string(lastSeq + 1) + ", found " +
                    std::to_string(seq) + ")";
            return false;
        }
        lastSeq = seq;
        out.rows.push_back(std::move(row));
    }
    if (lineNo == 0) {
        error = path + ": empty ledger";
        return false;
    }
    return true;
}

/* ------------------------------------------------------------------ */
/* Shared helpers                                                      */
/* ------------------------------------------------------------------ */

std::string
fmt(double v, int precision = 4)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

struct ErrorStat
{
    uint64_t samples = 0;
    double sumAbs = 0.0;
    double sumSigned = 0.0;

    double meanAbs() const { return samples ? sumAbs / samples : 0.0; }
    double meanSigned() const { return samples ? sumSigned / samples : 0.0; }
};

/* ------------------------------------------------------------------ */
/* --why FILE@CYCLE                                                    */
/* ------------------------------------------------------------------ */

int
runWhy(const Ledger &ledger, uint64_t file, uint64_t cycle, bool json)
{
    const JsonValue *candidate = nullptr;
    const JsonValue *outcome = nullptr;
    for (const auto &row : ledger.rows) {
        if (static_cast<uint64_t>(row.num("cycle")) != cycle)
            continue;
        std::string t = row.str("t");
        if (t == "candidate" &&
            static_cast<uint64_t>(row.num("file")) == file)
            candidate = &row;
        else if (t == "outcome" &&
                 static_cast<uint64_t>(row.num("file")) == file)
            outcome = &row;
    }
    if (!candidate) {
        std::fprintf(stderr,
                     "geomancy_explain: no candidate row for file %llu in "
                     "cycle %llu\n",
                     static_cast<unsigned long long>(file),
                     static_cast<unsigned long long>(cycle));
        return 1;
    }

    std::string verdict = candidate->str("verdict");
    const JsonValue *scores = candidate->get("scores");
    if (json) {
        std::ostringstream os;
        os << "{\"file\":" << file << ",\"cycle\":" << cycle
           << ",\"verdict\":\"" << jsonEscape(verdict) << "\",\"from\":"
           << static_cast<uint64_t>(candidate->num("from"));
        if (const JsonValue *to = candidate->get("to"))
            os << ",\"to\":" << static_cast<uint64_t>(to->number);
        if (const JsonValue *gain = candidate->get("gain"))
            os << ",\"gain\":" << gain->number;
        os << ",\"random\":" << (candidate->flag("random") ? "true" : "false");
        os << ",\"scores\":[";
        if (scores && scores->kind == JsonValue::Array)
            for (size_t i = 0; i < scores->items.size(); ++i) {
                const JsonValue &s = scores->items[i];
                os << (i ? "," : "") << "{\"device\":"
                   << static_cast<uint64_t>(s.num("device"))
                   << ",\"predicted\":" << s.num("predicted")
                   << ",\"rank\":" << static_cast<uint64_t>(s.num("rank"))
                   << "}";
            }
        os << "]";
        if (outcome)
            os << ",\"outcome\":\"" << jsonEscape(outcome->str("outcome"))
               << "\",\"reason\":\"" << jsonEscape(outcome->str("reason"))
               << "\",\"attempt\":"
               << static_cast<uint64_t>(outcome->num("attempt"));
        os << "}";
        std::printf("%s\n", os.str().c_str());
        return 0;
    }

    std::printf("file %llu, cycle %llu\n",
                static_cast<unsigned long long>(file),
                static_cast<unsigned long long>(cycle));
    std::printf("  verdict: %s\n", verdict.c_str());
    std::printf("  current device: %llu\n",
                static_cast<unsigned long long>(candidate->num("from")));
    if (const JsonValue *to = candidate->get("to"))
        std::printf("  proposed target: %llu%s\n",
                    static_cast<unsigned long long>(to->number),
                    candidate->flag("random") ? " (exploration fallback)"
                                              : "");
    if (const JsonValue *gain = candidate->get("gain"))
        std::printf("  predicted relative gain: %s\n",
                    fmt(gain->number).c_str());
    if (const JsonValue *features = candidate->get("features");
        features && features->kind == JsonValue::Array) {
        std::printf("  features:");
        for (const auto &f : features->items)
            std::printf(" %g", f.number);
        std::printf("\n");
    }
    if (scores && scores->kind == JsonValue::Array) {
        geo::TextTable table("predicted throughput per device");
        table.setHeader({"device", "predicted", "rank"});
        for (const auto &s : scores->items)
            table.addRow({std::to_string(
                              static_cast<uint64_t>(s.num("device"))),
                          fmt(s.num("predicted"), 1),
                          std::to_string(
                              static_cast<uint64_t>(s.num("rank")))});
        table.print(std::cout);
    }
    if (outcome)
        std::printf("  migration outcome: %s (reason %s, attempt %llu)\n",
                    outcome->str("outcome").c_str(),
                    outcome->str("reason").c_str(),
                    static_cast<unsigned long long>(outcome->num("attempt")));
    else if (verdict == "selected" || verdict == "exploration")
        std::printf("  migration outcome: not recorded this cycle\n");
    return 0;
}

/* ------------------------------------------------------------------ */
/* --prediction-error [--per-mount]                                    */
/* ------------------------------------------------------------------ */

void
collectErrors(const Ledger &ledger, ErrorStat &overall,
              std::map<uint64_t, ErrorStat> &byDevice)
{
    for (const auto &row : ledger.rows) {
        if (row.str("t") != "realized")
            continue;
        uint64_t device = static_cast<uint64_t>(row.num("device"));
        double absErr = row.num("abs_err");
        double signedErr = row.num("signed_err");
        ErrorStat &dev = byDevice[device];
        dev.samples += 1;
        dev.sumAbs += absErr;
        dev.sumSigned += signedErr;
        overall.samples += 1;
        overall.sumAbs += absErr;
        overall.sumSigned += signedErr;
    }
}

/**
 * Cross-check ledger-derived per-mount stats against the `ledger.dev*`
 * gauges in a Prometheus snapshot.  Returns 0 on agreement, 2 on any
 * mismatch so CI can gate on it.
 */
int
checkMetrics(const std::string &path,
             const std::map<uint64_t, ErrorStat> &byDevice)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "geomancy_explain: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::map<std::string, double> gauges;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t space = line.find(' ');
        if (space == std::string::npos)
            continue;
        gauges[line.substr(0, space)] =
            std::strtod(line.c_str() + space + 1, nullptr);
    }

    int mismatches = 0;
    auto check = [&](const std::string &name, double expected) {
        auto it = gauges.find(name);
        if (it == gauges.end()) {
            std::fprintf(stderr, "  missing gauge %s\n", name.c_str());
            ++mismatches;
            return;
        }
        double tolerance = 1e-9 + 1e-6 * std::abs(expected);
        if (std::abs(it->second - expected) > tolerance) {
            std::fprintf(stderr, "  gauge %s: metrics=%.12g ledger=%.12g\n",
                         name.c_str(), it->second, expected);
            ++mismatches;
        }
    };
    for (const auto &kv : byDevice) {
        std::string prefix =
            "geo_ledger_dev" + std::to_string(kv.first) + "_";
        check(prefix + "samples", static_cast<double>(kv.second.samples));
        check(prefix + "abs_err", kv.second.meanAbs());
        check(prefix + "signed_err", kv.second.meanSigned());
    }
    if (mismatches) {
        std::fprintf(stderr,
                     "geomancy_explain: %d ledger/metrics mismatches\n",
                     mismatches);
        return 2;
    }
    std::printf("metrics snapshot consistent with ledger (%zu devices)\n",
                byDevice.size());
    return 0;
}

int
runPredictionError(const Ledger &ledger, bool perMount, bool json,
                   const std::string &metricsPath)
{
    ErrorStat overall;
    std::map<uint64_t, ErrorStat> byDevice;
    collectErrors(ledger, overall, byDevice);

    if (json) {
        std::ostringstream os;
        os << "{\"samples\":" << overall.samples << ",\"mae\":"
           << overall.meanAbs() << ",\"signed\":" << overall.meanSigned();
        if (perMount) {
            os << ",\"per_mount\":[";
            bool first = true;
            for (const auto &kv : byDevice) {
                os << (first ? "" : ",") << "{\"device\":" << kv.first
                   << ",\"samples\":" << kv.second.samples
                   << ",\"mae\":" << kv.second.meanAbs()
                   << ",\"signed\":" << kv.second.meanSigned() << "}";
                first = false;
            }
            os << "]";
        }
        os << "}";
        std::printf("%s\n", os.str().c_str());
    } else {
        geo::TextTable table("prediction error (predicted vs realized "
                             "throughput)");
        table.setHeader({"mount", "samples", "mean |err|", "mean signed"});
        if (perMount)
            for (const auto &kv : byDevice)
                table.addRow({"dev" + std::to_string(kv.first),
                              std::to_string(kv.second.samples),
                              fmt(kv.second.meanAbs()),
                              fmt(kv.second.meanSigned())});
        table.addRow({"overall", std::to_string(overall.samples),
                      fmt(overall.meanAbs()), fmt(overall.meanSigned())});
        table.print(std::cout);
    }

    if (!metricsPath.empty())
        return checkMetrics(metricsPath, byDevice);
    return 0;
}

/* ------------------------------------------------------------------ */
/* --vetoes                                                            */
/* ------------------------------------------------------------------ */

int
runVetoes(const Ledger &ledger, bool json)
{
    std::map<std::string, uint64_t> counts;
    uint64_t total = 0;
    for (const auto &row : ledger.rows) {
        if (row.str("t") != "candidate")
            continue;
        counts[row.str("verdict")] += 1;
        ++total;
    }
    if (json) {
        std::ostringstream os;
        os << "{\"candidates\":" << total << ",\"verdicts\":{";
        bool first = true;
        for (const auto &kv : counts) {
            os << (first ? "" : ",") << "\"" << jsonEscape(kv.first)
               << "\":" << kv.second;
            first = false;
        }
        os << "}}";
        std::printf("%s\n", os.str().c_str());
        return 0;
    }
    geo::TextTable table("ActionChecker verdicts");
    table.setHeader({"verdict", "count", "share"});
    for (const auto &kv : counts)
        table.addRow({kv.first, std::to_string(kv.second),
                      total ? fmt(100.0 * kv.second / total, 1) + "%"
                            : "0%"});
    table.print(std::cout);
    std::printf("%llu candidate decisions total\n",
                static_cast<unsigned long long>(total));
    return 0;
}

/* ------------------------------------------------------------------ */
/* --safe-mode-timeline                                                */
/* ------------------------------------------------------------------ */

int
runSafeModeTimeline(const Ledger &ledger, bool json)
{
    struct Transition
    {
        uint64_t cycle;
        std::string event;
    };
    std::vector<Transition> transitions;
    uint64_t safeCycles = 0;
    uint64_t totalCycles = 0;
    for (const auto &row : ledger.rows) {
        std::string t = row.str("t");
        if (t == "transition")
            transitions.push_back({static_cast<uint64_t>(row.num("cycle")),
                                   row.str("event")});
        else if (t == "cycle_start") {
            ++totalCycles;
            if (row.flag("safe_mode"))
                ++safeCycles;
        }
    }
    if (json) {
        std::ostringstream os;
        os << "{\"cycles\":" << totalCycles << ",\"safe_cycles\":"
           << safeCycles << ",\"transitions\":[";
        for (size_t i = 0; i < transitions.size(); ++i)
            os << (i ? "," : "") << "{\"cycle\":" << transitions[i].cycle
               << ",\"event\":\"" << jsonEscape(transitions[i].event)
               << "\"}";
        os << "]}";
        std::printf("%s\n", os.str().c_str());
        return 0;
    }
    geo::TextTable table("safe-mode timeline");
    table.setHeader({"cycle", "event"});
    for (const auto &t : transitions)
        table.addRow({std::to_string(t.cycle), t.event});
    table.print(std::cout);
    std::printf("%llu of %llu cycles started in safe mode\n",
                static_cast<unsigned long long>(safeCycles),
                static_cast<unsigned long long>(totalCycles));
    return 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: geomancy_explain --ledger FILE [--json] [--metrics FILE]\n"
        "           (--why FILE@CYCLE | --prediction-error [--per-mount] |\n"
        "            --vetoes | --safe-mode-timeline)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string ledgerPath;
    std::string metricsPath;
    std::string whySpec;
    bool json = false;
    bool perMount = false;
    enum Mode { None, Why, PredictionError, Vetoes, SafeModeTimeline };
    Mode mode = None;

    auto next = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "geomancy_explain: %s needs a value\n",
                         flag);
            std::exit(1);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--ledger")
            ledgerPath = next(i, "--ledger");
        else if (arg == "--metrics")
            metricsPath = next(i, "--metrics");
        else if (arg == "--json")
            json = true;
        else if (arg == "--per-mount")
            perMount = true;
        else if (arg == "--why") {
            mode = Why;
            whySpec = next(i, "--why");
        } else if (arg == "--prediction-error")
            mode = PredictionError;
        else if (arg == "--vetoes")
            mode = Vetoes;
        else if (arg == "--safe-mode-timeline")
            mode = SafeModeTimeline;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "geomancy_explain: unknown option %s\n",
                         arg.c_str());
            usage();
            return 1;
        }
    }
    if (ledgerPath.empty() || mode == None) {
        usage();
        return 1;
    }

    Ledger ledger;
    std::string error;
    if (!loadLedger(ledgerPath, ledger, error)) {
        std::fprintf(stderr, "geomancy_explain: %s\n", error.c_str());
        return 1;
    }

    switch (mode) {
    case Why: {
        size_t at = whySpec.find('@');
        uint64_t file = 0;
        uint64_t cycle = 0;
        if (at == std::string::npos ||
            !geo::util::parseU64(whySpec.substr(0, at), file) ||
            !geo::util::parseU64(whySpec.substr(at + 1), cycle)) {
            std::fprintf(stderr,
                         "geomancy_explain: --why wants FILE@CYCLE, got "
                         "'%s'\n",
                         whySpec.c_str());
            return 1;
        }
        return runWhy(ledger, file, cycle, json);
    }
    case PredictionError:
        return runPredictionError(ledger, perMount, json, metricsPath);
    case Vetoes:
        return runVetoes(ledger, json);
    case SafeModeTimeline:
        return runSafeModeTimeline(ledger, json);
    case None:
        break;
    }
    usage();
    return 1;
}
