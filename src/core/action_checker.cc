#include "core/action_checker.hh"

#include <algorithm>
#include <map>

namespace geo {
namespace core {

const char *
moveVetoName(MoveVeto veto)
{
    switch (veto) {
      case MoveVeto::None:
        return "selected";
      case MoveVeto::Unreachable:
        return "unreachable";
      case MoveVeto::StayPut:
        return "stay_put";
      case MoveVeto::BelowMinGain:
        return "below_min_gain";
      case MoveVeto::NoValidTarget:
        return "no_valid_target";
      case MoveVeto::RandomFallback:
        return "random_fallback";
    }
    return "unknown";
}

ActionChecker::ActionChecker(storage::StorageSystem &system,
                             const CheckerConfig &config)
    : system_(system), config_(config)
{
    auto &registry = util::MetricRegistry::global();
    vetoReadonlyMetric_ = &registry.counter("checker.veto_readonly");
    vetoCapacityMetric_ = &registry.counter("checker.veto_capacity");
    vetoUnhealthyMetric_ = &registry.counter("checker.veto_unhealthy");
    belowMinGainMetric_ = &registry.counter("checker.below_min_gain");
    randomFallbackMetric_ = &registry.counter("checker.random_fallbacks");
}

std::vector<storage::DeviceId>
ActionChecker::validDevices(
    storage::FileId file,
    const std::vector<storage::DeviceId> &candidates) const
{
    const storage::FileObject &f = system_.file(file);
    std::vector<storage::DeviceId> valid;
    for (storage::DeviceId id : candidates) {
        if (id >= system_.deviceCount())
            continue;
        if (id == f.location) {
            valid.push_back(id); // staying put is always allowed
            continue;
        }
        const storage::StorageDevice &dev = system_.device(id);
        if (!dev.writable()) {
            vetoReadonlyMetric_->inc();
            continue;
        }
        if (dev.freeBytes() < f.sizeBytes) {
            vetoCapacityMetric_->inc();
            continue;
        }
        if (!dev.available() || dev.healthFactor() < kMinHealthFactor) {
            vetoUnhealthyMetric_->inc();
            continue; // offline or too degraded to take new data
        }
        valid.push_back(id);
    }
    return valid;
}

std::optional<CheckedMove>
ActionChecker::selectMove(storage::FileId file,
                          const std::vector<CandidateScore> &scores,
                          Rng &rng, MoveVeto *veto) const
{
    auto verdict = [veto](MoveVeto v) {
        if (veto)
            *veto = v;
    };
    verdict(MoveVeto::None);
    storage::DeviceId current = system_.location(file);
    if (!system_.device(current).available()) {
        verdict(MoveVeto::Unreachable);
        return std::nullopt; // data unreachable: nothing to execute
    }

    std::vector<storage::DeviceId> candidates;
    candidates.reserve(scores.size());
    for (const CandidateScore &s : scores)
        candidates.push_back(s.device);
    std::vector<storage::DeviceId> valid = validDevices(file, candidates);

    if (valid.empty()) {
        // All storage devices invalid: perform a random movement so
        // Geomancy keeps learning the movement/performance relation.
        randomFallbackMetric_->inc();
        std::optional<CheckedMove> fallback = randomMove(file, rng);
        verdict(fallback ? MoveVeto::RandomFallback
                         : MoveVeto::NoValidTarget);
        return fallback;
    }

    double stay_predicted = 0.0;
    bool have_stay = false;
    const CandidateScore *best = nullptr;
    for (const CandidateScore &s : scores) {
        if (std::find(valid.begin(), valid.end(), s.device) == valid.end())
            continue;
        if (s.device == current) {
            stay_predicted = s.predictedThroughput;
            have_stay = true;
        }
        // Ties break to the lowest device id, not container order:
        // callers may enumerate candidates in any order, and shard
        // digest comparison needs the argmax to be a pure function of
        // the scores.
        if (!best || s.predictedThroughput > best->predictedThroughput ||
            (s.predictedThroughput == best->predictedThroughput &&
             s.device < best->device))
            best = &s;
    }
    if (!best) {
        randomFallbackMetric_->inc();
        std::optional<CheckedMove> fallback = randomMove(file, rng);
        verdict(fallback ? MoveVeto::RandomFallback
                         : MoveVeto::NoValidTarget);
        return fallback;
    }
    if (best->device == current) {
        verdict(MoveVeto::StayPut);
        return std::nullopt; // staying put predicted best
    }

    CheckedMove move;
    move.file = file;
    move.from = current;
    move.to = best->device;
    move.predictedThroughput = best->predictedThroughput;
    if (have_stay && stay_predicted > 0.0) {
        move.predictedGain =
            (best->predictedThroughput - stay_predicted) / stay_predicted;
        if (move.predictedGain < kMinRelativeGain) {
            belowMinGainMetric_->inc();
            verdict(MoveVeto::BelowMinGain);
            return std::nullopt; // not worth the transfer cost
        }
    } else {
        move.predictedGain = 0.0;
    }
    return move;
}

std::vector<CheckedMove>
ActionChecker::capMoves(std::vector<CheckedMove> moves) const
{
    // Equal gains order by (file, target) so the cap keeps the same
    // moves regardless of proposal order or sort implementation.
    std::sort(moves.begin(), moves.end(),
              [](const CheckedMove &a, const CheckedMove &b) {
                  if (a.predictedGain != b.predictedGain)
                      return a.predictedGain > b.predictedGain;
                  if (a.file != b.file)
                      return a.file < b.file;
                  return a.to < b.to;
              });
    std::vector<CheckedMove> kept;
    std::map<storage::DeviceId, size_t> per_target;
    for (CheckedMove &move : moves) {
        if (kept.size() >= kMaxMovesPerCycle)
            break;
        if (config_.maxMovesPerTarget > 0 &&
            per_target[move.to] >= config_.maxMovesPerTarget) {
            continue;
        }
        ++per_target[move.to];
        kept.push_back(std::move(move));
    }
    return kept;
}

std::optional<CheckedMove>
ActionChecker::randomMove(storage::FileId file, Rng &rng) const
{
    const storage::FileObject &f = system_.file(file);
    if (!system_.device(f.location).available())
        return std::nullopt; // data unreachable: nothing to execute
    std::vector<storage::DeviceId> options;
    for (storage::DeviceId id : system_.deviceIds()) {
        if (id == f.location)
            continue;
        const storage::StorageDevice &dev = system_.device(id);
        if (!dev.available() || dev.healthFactor() < kMinHealthFactor)
            continue;
        if (dev.writable() && dev.freeBytes() >= f.sizeBytes)
            options.push_back(id);
    }
    if (options.empty())
        return std::nullopt;
    CheckedMove move;
    move.file = file;
    move.from = f.location;
    move.to = options[static_cast<size_t>(rng.uniformInt(
        0, static_cast<int64_t>(options.size()) - 1))];
    move.random = true;
    return move;
}

} // namespace core
} // namespace geo
