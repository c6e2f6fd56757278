/**
 * @file
 * Categorical file-path encoding (paper Section V-E).
 *
 * Each path component gets an index from a shared first-seen-order
 * dictionary, and the per-level indices are combined positionally into
 * one number, so paths sharing a prefix get numerically close codes
 * ("a sense of locality"). The paper rejects inodes (reuse hazards)
 * and hashes (no locality) for this reason; its worked example is
 * foo/bar/bat.root -> 123 with foo=1, bar=2, bat=3.
 */

#ifndef GEO_TRACE_PATH_ENCODER_HH
#define GEO_TRACE_PATH_ENCODER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace geo {
namespace trace {

/**
 * Stateful path -> numeric code encoder.
 *
 * Component indices start at 1 and are assigned in first-seen order
 * from a single dictionary shared by all levels (matching the paper's
 * example). Codes pack one level per `radix` slot, so they are
 * unique and prefix-ordered as long as fewer than radix distinct
 * component names exist.
 */
class PathEncoder
{
  public:
    /** @param radix per-level code space (default 1000 names). */
    explicit PathEncoder(uint64_t radix = 1000);

    /**
     * Encode a path, assigning new indices for unseen components.
     * Leading/trailing/duplicate slashes are ignored.
     */
    uint64_t encode(const std::string &path);

    /** Number of distinct component names seen so far. */
    size_t dictionarySize() const { return toIndex_.size(); }

    uint64_t radix() const { return radix_; }

    /** Split a path into components, ignoring empty ones. */
    static std::vector<std::string> splitPath(const std::string &path);

  private:
    uint64_t radix_;
    std::map<std::string, uint64_t> toIndex_;
};

} // namespace trace
} // namespace geo

#endif // GEO_TRACE_PATH_ENCODER_HH
