/**
 * @file
 * Keyed text serialization for checkpoint state.
 *
 * Every stateful pipeline component implements
 * saveState(StateWriter&) / loadState(StateReader&) in terms of these
 * helpers. The format is line-oriented `key value` text: human-readable
 * for debugging, yet exact — doubles are written as C99 hexfloats
 * (printf %a), which round-trip bit-for-bit, so a restored run replays
 * byte-identically.
 *
 * The reader validates every key it consumes and latches a sticky
 * failure flag on the first mismatch; loadState implementations stay
 * linear and the caller checks ok() once at the end.
 */

#ifndef GEO_UTIL_STATE_IO_HH
#define GEO_UTIL_STATE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/random.hh"
#include "util/stats.hh"

namespace geo {
namespace util {

/** Writes `key value` lines; the mirror image of StateReader. */
class StateWriter
{
  public:
    explicit StateWriter(std::ostream &os) : os_(os) {}

    void u64(const char *key, uint64_t v);
    void i64(const char *key, int64_t v);
    void f64(const char *key, double v); ///< hexfloat, exact round-trip
    void boolean(const char *key, bool v);
    /** Length-prefixed, so the value may contain spaces or newlines. */
    void str(const char *key, const std::string &v);
    void rng(const char *key, const Rng &r);
    void stat(const char *key, const StatAccumulator &s);
    void f64Vec(const char *key, const std::vector<double> &v);

  private:
    std::ostream &os_;
};

/**
 * Reads `key value` lines written by StateWriter.
 *
 * Each accessor checks that the next line carries the expected key; a
 * mismatch (or malformed value) latches fail() and subsequent reads
 * return defaults, so callers can run straight through and test ok()
 * once.
 */
class StateReader
{
  public:
    explicit StateReader(std::istream &is) : is_(is) {}

    uint64_t u64(const char *key);
    int64_t i64(const char *key);
    double f64(const char *key);
    bool boolean(const char *key);
    std::string str(const char *key);
    Rng::State rng(const char *key);
    StatAccumulator::State stat(const char *key);
    std::vector<double> f64Vec(const char *key);

    bool ok() const { return ok_; }

    /** Latch a failure from the caller's own validation. */
    void fail(const std::string &why);

    /** First failure reason (empty while ok()). */
    const std::string &error() const { return error_; }

  private:
    /** Consume one `key ` prefix; false (and latched fail) on mismatch. */
    bool expectKey(const char *key);

    std::istream &is_;
    bool ok_ = true;
    std::string error_;
};

} // namespace util
} // namespace geo

#endif // GEO_UTIL_STATE_IO_HH
