/**
 * @file
 * Data-placement policies: Geomancy and the paper's baselines.
 *
 * Experiment 1 compares Geomancy dynamic against heuristics inspired
 * by caching algorithms (LRU, MRU, LFU) and random placement;
 * experiment 2 adds the static baselines (random static and a single
 * frozen Geomancy prediction). Each policy applies its own moves to
 * the target system so migration costs are accounted identically.
 */

#ifndef GEO_CORE_POLICIES_HH
#define GEO_CORE_POLICIES_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/geomancy.hh"
#include "core/shard_coordinator.hh"
#include "storage/system.hh"
#include "util/random.hh"

namespace geo {
namespace core {

/** Per-file usage statistics maintained by the experiment runner. */
struct FileUsage
{
    uint64_t accessCount = 0;
    uint64_t lastAccessIndex = 0; ///< global access number of last use
    double lastAccessTime = 0.0;
};

/** Everything a placement policy may consult. */
struct PolicyContext
{
    storage::StorageSystem &system;
    const std::vector<storage::FileId> &files;
    const std::map<storage::FileId, FileUsage> &usage;
    /** Devices ordered fastest first by measured mean throughput
     *  (falling back to instantaneous bandwidth when unmeasured). */
    const std::vector<storage::DeviceId> &devicesFastestFirst;
    Rng &rng;
};

/**
 * Base class of all placement policies.
 */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /** Display name, e.g. "LFU" or "Geomancy dynamic". */
    virtual std::string name() const = 0;

    /**
     * Rearrange data as the policy deems best, applying moves directly
     * to the target system.
     *
     * @return number of files actually moved.
     */
    virtual size_t rebalance(PolicyContext &context) = 0;

    /** Dynamic policies are re-run during the workload; static ones
     *  only once before it starts. */
    virtual bool isDynamic() const { return true; }
};

/**
 * Group files by an ordering and spread the groups across devices
 * (shared machinery of LRU/MRU/LFU: sort files, split into as many
 * equal groups as devices, map group i to device rank i; leftovers go
 * to the slowest device, as in the paper's Section VI).
 */
class GroupedHeuristicPolicy : public PlacementPolicy
{
  public:
    size_t rebalance(PolicyContext &context) override;

  protected:
    /**
     * Sort `files` into placement order: the first group lands on the
     * first device of `devices` (which this hook may reorder).
     */
    virtual void orderFiles(std::vector<storage::FileId> &files,
                            std::vector<storage::DeviceId> &devices,
                            const PolicyContext &context) = 0;
};

/** Most recently used files to the fastest devices. */
class LruPolicy : public GroupedHeuristicPolicy
{
  public:
    std::string name() const override { return "LRU"; }

  protected:
    void orderFiles(std::vector<storage::FileId> &files,
                    std::vector<storage::DeviceId> &devices,
                    const PolicyContext &context) override;
};

/** Most recently used files to the *slowest* devices (Chou et al.). */
class MruPolicy : public GroupedHeuristicPolicy
{
  public:
    std::string name() const override { return "MRU"; }

  protected:
    void orderFiles(std::vector<storage::FileId> &files,
                    std::vector<storage::DeviceId> &devices,
                    const PolicyContext &context) override;
};

/** Most frequently used files to the fastest devices (Gupta et al.). */
class LfuPolicy : public GroupedHeuristicPolicy
{
  public:
    std::string name() const override { return "LFU"; }

  protected:
    void orderFiles(std::vector<storage::FileId> &files,
                    std::vector<storage::DeviceId> &devices,
                    const PolicyContext &context) override;
};

/** Shuffle every file to a uniformly random device. */
class RandomPolicy : public PlacementPolicy
{
  public:
    /** @param dynamic reshuffle on every rebalance (random dynamic)
     *         or only once (random static). */
    explicit RandomPolicy(bool dynamic);

    std::string name() const override;
    bool isDynamic() const override { return dynamic_; }
    size_t rebalance(PolicyContext &context) override;

  private:
    bool dynamic_;
    bool placed_ = false;
};

/** Pin every file to one mount (experiment 2 / Table IV rows). */
class SingleMountPolicy : public PlacementPolicy
{
  public:
    explicit SingleMountPolicy(storage::DeviceId device);

    std::string name() const override;
    bool isDynamic() const override { return false; }
    size_t rebalance(PolicyContext &context) override;

  private:
    storage::DeviceId device_;
    bool placed_ = false;
};

/** Keep the initial layout untouched (control baseline). */
class NoOpPolicy : public PlacementPolicy
{
  public:
    std::string name() const override { return "no-op"; }
    bool isDynamic() const override { return false; }
    size_t rebalance(PolicyContext &) override { return 0; }
};

/**
 * Geomancy dynamic: full decision cycles at every rebalance point.
 */
class GeomancyDynamicPolicy : public PlacementPolicy
{
  public:
    /** @param geomancy engine attached to the same target system. */
    explicit GeomancyDynamicPolicy(Geomancy &geomancy);

    std::string name() const override { return "Geomancy dynamic"; }
    size_t rebalance(PolicyContext &context) override;

    /** Most recent cycle report (for experiment instrumentation). */
    const CycleReport &lastReport() const { return lastReport_; }

  private:
    Geomancy &geomancy_;
    CycleReport lastReport_;
};

/**
 * Fleet-scale Geomancy: one coordinator round — a decision cycle on
 * every shard, under the cross-shard admission budgets — at every
 * rebalance point.
 */
class ShardedGeomancyPolicy : public PlacementPolicy
{
  public:
    /** @param coordinator attached to the same target system. */
    explicit ShardedGeomancyPolicy(ShardCoordinator &coordinator);

    std::string name() const override;
    size_t rebalance(PolicyContext &context) override;

    /** Most recent round's per-shard reports. */
    const std::vector<CycleReport> &lastReports() const
    {
        return lastReports_;
    }

  private:
    ShardCoordinator &coordinator_;
    std::vector<CycleReport> lastReports_;
};

/**
 * Geomancy static: one prediction applied once, never updated
 * (experiment 2's "manual tuning" simulation).
 */
class GeomancyStaticPolicy : public PlacementPolicy
{
  public:
    explicit GeomancyStaticPolicy(Geomancy &geomancy);

    std::string name() const override { return "Geomancy static"; }
    bool isDynamic() const override { return false; }
    size_t rebalance(PolicyContext &context) override;

  private:
    Geomancy &geomancy_;
    bool placed_ = false;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_POLICIES_HH
