#include "core/checkpoint.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "util/crc32.hh"
#include "util/flight_recorder.hh"
#include "util/fs_atomic.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace geo {
namespace core {

namespace fs = std::filesystem;

namespace {

constexpr const char *kMagic = "geo-ckpt-1";
/** Snapshot file names are `ckpt-<cycle>.geo`. */
constexpr const char *kFileStem = "ckpt-";

} // namespace

CheckpointManager::CheckpointManager(CheckpointManagerConfig config)
    : config_(std::move(config))
{
    auto &registry = util::MetricRegistry::global();
    writesMetric_ = &registry.counter("checkpoint.writes");
    writeFailuresMetric_ = &registry.counter("checkpoint.write_failures");
    bytesMetric_ = &registry.gauge("checkpoint.bytes");
    writeMsMetric_ = &registry.histogram("checkpoint.write_ms");
}

std::string
CheckpointManager::pathFor(uint64_t cycle) const
{
    std::ostringstream os;
    os << config_.dir << '/' << kFileStem << cycle << ".geo";
    return os.str();
}

bool
CheckpointManager::ensureDir() const
{
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    if (ec) {
        warn("checkpoint: cannot create directory %s: %s",
             config_.dir.c_str(), ec.message().c_str());
        return false;
    }
    return true;
}

bool
CheckpointManager::write(uint64_t cycle, const std::string &payload)
{
    auto started = std::chrono::steady_clock::now();
    if (!ensureDir()) {
        writeFailuresMetric_->inc();
        return false;
    }

    char header[96];
    std::snprintf(header, sizeof header,
                  "%s cycle=%llu bytes=%llu crc32=%08x\n", kMagic,
                  static_cast<unsigned long long>(cycle),
                  static_cast<unsigned long long>(payload.size()),
                  util::crc32(payload));
    std::string blob = header;
    blob += payload;

    if (!util::writeFileAtomic(pathFor(cycle), blob)) {
        writeFailuresMetric_->inc();
        return false;
    }
    writesMetric_->inc();
    bytesMetric_->set(static_cast<double>(blob.size()));
    util::FlightRecorder::global().record(
        util::FlightKind::CheckpointWrite, 0.0, cycle, blob.size());

    // Prune beyond the retention window; the just-written snapshot is
    // the newest, so everything past kKeep from the end goes.
    std::vector<uint64_t> cycles = availableCycles();
    if (cycles.size() > kKeep) {
        for (size_t i = 0; i + kKeep < cycles.size(); ++i) {
            std::error_code ec;
            fs::remove(pathFor(cycles[i]), ec);
        }
    }

    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
    writeMsMetric_->record(ms);
    return true;
}

std::vector<uint64_t>
CheckpointManager::availableCycles() const
{
    std::vector<uint64_t> cycles;
    std::error_code ec;
    fs::directory_iterator it(config_.dir, ec);
    if (ec)
        return cycles;
    const std::string stem = kFileStem;
    for (const fs::directory_entry &entry : it) {
        std::string name = entry.path().filename().string();
        if (name.size() <= stem.size() + 4 ||
            name.compare(0, stem.size(), stem) != 0 ||
            name.compare(name.size() - 4, 4, ".geo") != 0)
            continue;
        uint64_t cycle = 0;
        if (util::parseU64(
                name.substr(stem.size(), name.size() - stem.size() - 4),
                cycle))
            cycles.push_back(cycle);
    }
    std::sort(cycles.begin(), cycles.end());
    return cycles;
}

void
CheckpointManager::clear()
{
    for (uint64_t cycle : availableCycles()) {
        std::error_code ec;
        fs::remove(pathFor(cycle), ec);
    }
}

bool
CheckpointManager::read(const std::string &path, CheckpointHeader &header,
                        std::string &payload)
{
    util::Counter &rejected =
        util::MetricRegistry::global().counter("checkpoint.crc_rejected");
    std::string blob;
    if (!util::readFileAll(path, blob)) {
        warn("checkpoint: cannot read %s", path.c_str());
        return false;
    }
    size_t eol = blob.find('\n');
    if (eol == std::string::npos) {
        warn("checkpoint: %s has no header line", path.c_str());
        rejected.inc();
        return false;
    }
    std::string line = blob.substr(0, eol);
    char magic[32];
    unsigned long long cycle = 0, bytes = 0;
    unsigned crc = 0;
    if (std::sscanf(line.c_str(), "%31s cycle=%llu bytes=%llu crc32=%x",
                    magic, &cycle, &bytes, &crc) != 4 ||
        std::string(magic) != kMagic) {
        warn("checkpoint: %s has a malformed header", path.c_str());
        rejected.inc();
        return false;
    }
    size_t size = blob.size() - (eol + 1);
    if (size != bytes) {
        warn("checkpoint: %s truncated (%zu of %llu payload bytes)",
             path.c_str(), size, bytes);
        rejected.inc();
        return false;
    }
    uint32_t actual = util::crc32(blob.data() + eol + 1, size);
    if (actual != crc) {
        warn("checkpoint: %s fails CRC (stored %08x, computed %08x)",
             path.c_str(), crc, actual);
        rejected.inc();
        return false;
    }
    // Hand the payload over in the file's own buffer.
    blob.erase(0, eol + 1);
    payload = std::move(blob);
    header.cycle = cycle;
    header.bytes = bytes;
    header.crc = crc;
    return true;
}

bool
CheckpointManager::loadLatest(CheckpointHeader &header,
                              std::string &payload, std::string *path_out)
{
    std::vector<uint64_t> cycles = availableCycles();
    for (auto it = cycles.rbegin(); it != cycles.rend(); ++it) {
        std::string path = pathFor(*it);
        if (read(path, header, payload)) {
            if (path_out)
                *path_out = path;
            return true;
        }
        warn("checkpoint: falling back past corrupt snapshot %s",
             path.c_str());
    }
    return false;
}

} // namespace core
} // namespace geo
