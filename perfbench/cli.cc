#include "cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace perfbench {

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::CycleSteady:
        return "cycle_steady";
      case Workload::IngestStatic:
        return "ingest_static";
      case Workload::FleetDurable:
        return "fleet_durable";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::CycleSteady, Workload::IngestStatic,
                       Workload::FleetDurable}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

bool
parseUnsigned(const std::string &text, uint64_t min, uint64_t max,
              uint64_t &out)
{
    if (text.empty() || text.size() > 20)
        return false;
    for (char c : text)
        if (c < '0' || c > '9')
            return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || *end != '\0' || value < min || value > max)
        return false;
    out = value;
    return true;
}

bool
parsePositive(const std::string &text, double max, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (errno != 0 || *end != '\0' || !std::isfinite(value) ||
        value <= 0.0 || value > max)
        return false;
    out = value;
    return true;
}

std::string
usage()
{
    return "usage: perfbench_driver --workload NAME [--seed N] "
           "[--seconds S] [--trace 0|1]\n"
           "                        [--scale X] [--work-dir DIR] "
           "[--spans-out FILE]\n"
           "  --workload   cycle_steady | ingest_static | fleet_durable\n"
           "  --seed       workload seed, 0..2^32-1 (default 1)\n"
           "  --seconds    minimum measured seconds, 1..600 (default 10)\n"
           "  --trace      0: end-to-end metrics, 1: per-layer metrics\n"
           "  --scale      episode length multiplier, (0, 4] (default 1)\n"
           "  --work-dir   scratch directory (default .bench_work)\n"
           "  --spans-out  where a traced run writes its spans\n";
}

bool
parseOptions(int argc, const char *const *argv, Options &out,
             std::string &error)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            out.help = true;
            return true;
        }
        if (i + 1 >= argc) {
            error = flag + " needs a value";
            return false;
        }
        std::string value = argv[++i];
        uint64_t whole = 0;
        if (flag == "--workload") {
            if (!parseWorkload(value, out.workload)) {
                error = "unknown workload '" + value + "'";
                return false;
            }
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, 0, 0xFFFFFFFFULL, out.seed)) {
                error = "--seed must be a whole number in 0..4294967295, "
                        "got '" + value + "'";
                return false;
            }
        } else if (flag == "--seconds") {
            if (!parsePositive(value, 600.0, out.seconds) ||
                out.seconds < 1.0) {
                error = "--seconds must be a number in 1..600, got '" +
                        value + "'";
                return false;
            }
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, 0, 1, whole)) {
                error = "--trace must be 0 or 1, got '" + value + "'";
                return false;
            }
            out.trace = whole == 1;
        } else if (flag == "--scale") {
            if (!parsePositive(value, 4.0, out.scale)) {
                error = "--scale must be a number in (0, 4], got '" +
                        value + "'";
                return false;
            }
        } else if (flag == "--work-dir") {
            if (value.empty()) {
                error = "--work-dir must not be empty";
                return false;
            }
            out.workDir = value;
        } else if (flag == "--spans-out") {
            out.spansOut = value;
        } else {
            error = "unknown argument '" + flag + "'";
            return false;
        }
    }
    if (!have_workload) {
        error = "--workload is required";
        return false;
    }
    return true;
}

} // namespace perfbench
