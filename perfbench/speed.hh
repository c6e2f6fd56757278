/**
 * @file
 * Reference speed of the machine a run measures on.
 *
 * A shared host changes the speed of one core by up to 2x in phases of
 * seconds to minutes (other tenants' load on sibling hardware threads,
 * frequency changes), which no amount of repetition inside one run
 * averages away. The benchmark therefore times a fixed reference kernel
 * (a 64^3 dense multiply-add loop, like the retrain that dominates a
 * decision) right before and right after every measured interval — each
 * decision, each set-up and restore, and at least every 20 ms of
 * measured runs — and scales the interval by the two:
 *
 *     reported = wall * kReferenceKernelMs / mean(kernel ms before, after)
 *
 * so a reported millisecond is a millisecond on this machine running at
 * its reference speed. The kernel is the benchmark's own code, so no
 * change to the library can speed it up. The wall times are printed
 * beside the scaled ones.
 */

#ifndef PERFBENCH_SPEED_HH
#define PERFBENCH_SPEED_HH

#include <cstdint>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** Kernel time that defines reference speed: its typical time on the
 *  4-core 2.0 GHz Xeon VM the benchmark was calibrated on. */
constexpr double kReferenceKernelMs = 0.2;

/** Times the reference kernel on demand. */
class SpeedProbe
{
  public:
    SpeedProbe();

    /** Time the kernel now (best of three); @return its ms. */
    double measure();

    /** Milliseconds since the last measure(). */
    double age() const { return msSince(at_); }

    /** Factor that scales a wall time measured between probes of
     *  `before_ms` and `after_ms` to reference speed. */
    static double
    factor(double before_ms, double after_ms)
    {
        return 2.0 * kReferenceKernelMs / (before_ms + after_ms);
    }

    /** Every probe so far (for the run's speed summary). */
    const std::vector<double> &history() const { return history_; }

  private:
    double kernel();

    std::vector<double> a_, b_, c_;
    Clock::time_point at_;
    std::vector<double> history_;
};

} // namespace perfbench

#endif // PERFBENCH_SPEED_HH
