#include "trace/access_record.hh"

#include <sstream>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace geo {
namespace trace {

double
AccessRecord::openTime() const
{
    return static_cast<double>(ots) + static_cast<double>(otms) / 1000.0;
}

double
AccessRecord::closeTime() const
{
    return static_cast<double>(cts) + static_cast<double>(ctms) / 1000.0;
}

double
AccessRecord::duration() const
{
    return closeTime() - openTime();
}

double
AccessRecord::throughput() const
{
    double dt = duration();
    if (dt <= 0.0)
        return 0.0;
    return static_cast<double>(rb + wb) / dt;
}

std::vector<std::string>
accessFeatureNames()
{
    return {"fid",  "fsid",  "rb",      "wb",      "ots",    "otms",
            "cts",  "ctms",  "rt",      "wt",      "nrc",    "nwc",
            "secgrps", "secrole", "secapp", "td",   "osize",  "csize"};
}

double
accessFeature(const AccessRecord &rec, const std::string &name)
{
    if (name == "fid")
        return static_cast<double>(rec.fid);
    if (name == "fsid")
        return static_cast<double>(rec.fsid);
    if (name == "rb")
        return static_cast<double>(rec.rb);
    if (name == "wb")
        return static_cast<double>(rec.wb);
    if (name == "ots")
        return static_cast<double>(rec.ots);
    if (name == "otms")
        return static_cast<double>(rec.otms);
    if (name == "cts")
        return static_cast<double>(rec.cts);
    if (name == "ctms")
        return static_cast<double>(rec.ctms);
    if (name == "rt")
        return rec.rt;
    if (name == "wt")
        return rec.wt;
    if (name == "nrc")
        return static_cast<double>(rec.nrc);
    if (name == "nwc")
        return static_cast<double>(rec.nwc);
    if (name == "secgrps")
        return static_cast<double>(rec.secgrps);
    if (name == "secrole")
        return static_cast<double>(rec.secrole);
    if (name == "secapp")
        return static_cast<double>(rec.secapp);
    if (name == "td")
        return static_cast<double>(rec.td);
    if (name == "osize")
        return static_cast<double>(rec.osize);
    if (name == "csize")
        return static_cast<double>(rec.csize);
    panic("accessFeature: unknown feature '%s'", name.c_str());
}

std::string
recordsToCsv(const std::vector<AccessRecord> &records)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.writeRow({"fid", "fsid", "path", "rb", "wb", "ots", "otms",
                     "cts", "ctms", "rt", "wt", "nrc", "nwc", "secgrps",
                     "secrole", "secapp", "td", "osize", "csize"});
    for (const AccessRecord &r : records) {
        writer.writeRow({
            std::to_string(r.fid), std::to_string(r.fsid), r.path,
            std::to_string(r.rb), std::to_string(r.wb),
            std::to_string(r.ots), std::to_string(r.otms),
            std::to_string(r.cts), std::to_string(r.ctms),
            strprintf("%.6f", r.rt), strprintf("%.6f", r.wt),
            std::to_string(r.nrc), std::to_string(r.nwc),
            std::to_string(r.secgrps), std::to_string(r.secrole),
            std::to_string(r.secapp), std::to_string(r.td),
            std::to_string(r.osize), std::to_string(r.csize),
        });
    }
    return os.str();
}

std::vector<AccessRecord>
recordsFromCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows = parseCsv(text);
    std::vector<AccessRecord> records;
    if (rows.empty())
        return records;
    constexpr size_t kColumns = 19;
    for (size_t i = 1; i < rows.size(); ++i) { // skip header
        const auto &row = rows[i];
        if (row.size() != kColumns) {
            warn("recordsFromCsv: row %zu has %zu fields, expected %zu",
                 i, row.size(), kColumns);
            continue;
        }
        // Every field parses in full, or the row is skipped: a trace
        // from outside must not abort the process.
        AccessRecord r;
        size_t c = 0;
        bool ok = true;
        auto u64 = [&](uint64_t &out) {
            ok = util::parseU64(row[c++], out) && ok;
        };
        auto u32 = [&](uint32_t &out) {
            uint64_t v = 0;
            ok = util::parseU64(row[c++], v) && v <= UINT32_MAX && ok;
            out = static_cast<uint32_t>(v);
        };
        auto i64 = [&](int64_t &out) {
            ok = util::parseI64(row[c++], out) && ok;
        };
        auto f64 = [&](double &out) {
            ok = util::parseDouble(row[c++], out) && ok;
        };
        u64(r.fid);
        u32(r.fsid);
        r.path = row[c++];
        u64(r.rb);
        u64(r.wb);
        i64(r.ots);
        i64(r.otms);
        i64(r.cts);
        i64(r.ctms);
        f64(r.rt);
        f64(r.wt);
        u32(r.nrc);
        u32(r.nwc);
        u32(r.secgrps);
        u32(r.secrole);
        u32(r.secapp);
        u32(r.td);
        u64(r.osize);
        u64(r.csize);
        if (!ok) {
            warn("recordsFromCsv: row %zu has a non-numeric or "
                 "out-of-range field", i);
            continue;
        }
        records.push_back(std::move(r));
    }
    return records;
}

} // namespace trace
} // namespace geo
