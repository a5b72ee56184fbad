/**
 * @file
 * The host reference: a fixed piece of work, owned by the benchmark,
 * timed between the workload's own units of work.
 *
 * On a shared host the simulator's speed drifts by tens of percent
 * over seconds to minutes (other tenants on the same cores, caches
 * and memory, clock changes), and runs minutes apart differ by as
 * much. The reference drifts with it. Each end-to-end timing is
 * therefore also reported host-normalised: scaled by how fast the
 * reference ran next to it (after each simulation or grid task, or
 * between service segments), to what it would take on a host that
 * runs the reference in refNominalSeconds. The raw timings are
 * reported beside them (per-layer), with the reference's own median
 * over the run and the speed factor. See README.md.
 *
 * The reference never calls simulator code, so a change to the
 * simulator moves the normalised metrics exactly as it moves the raw
 * ones; only the host's share of the variation cancels.
 */

#ifndef UBRC_PERFBENCH_HOST_REF_HH
#define UBRC_PERFBENCH_HOST_REF_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ubrc::sched
{
class Scheduler;
} // namespace ubrc::sched

namespace ubrc::perfbench
{

/** Median reference time on the host the benchmark was tuned on (a
 *  4-vCPU Xeon VM). A constant, so normalised values from different
 *  runs and commits are comparable. */
inline constexpr double refNominalSeconds = 0.010;

class HostRef
{
  public:
    /** `num_lanes` copies of the reference, to run at once on that many
     *  cores (parallelBurst, sampleAnyLane); sample() uses the first. */
    explicit HostRef(unsigned num_lanes = 1);

    /** Run the reference once; its wall time is the host speed right
     *  now, as refNominalSeconds / wall (below 1 on a slow host). */
    double sample();

    /** Run every lane `n` times at once, one task per lane on `pool`,
     *  so the speed covers the cores a parallel phase ran on; returns
     *  the median of all those samples. */
    double parallelBurst(sched::Scheduler &pool, unsigned n);

    /** One sample on whichever lane is free, from a scheduler task:
     *  with as many lanes as workers one always is. Its wall is kept
     *  until the next collectLanes(). */
    double sampleAnyLane();

    /** Gather the samples taken by sampleAnyLane() since the last
     *  call, once no task is running; returns their median. */
    double collectLanes() { return collect(); }

    /** Median wall time of every sample so far (0 if none). */
    double medianSeconds() const;

    /** refNominalSeconds / medianSeconds(); 1 when nothing ran. */
    double speed() const;

    size_t samples() const { return walls.size(); }

  private:
    struct Lane
    {
        /** Counters updated under data-dependent branches. */
        std::vector<uint64_t> counters;
        uint64_t sink = 0;
        /** This lane's samples of the running burst. */
        std::vector<double> pending;
    };

    double sampleLane(size_t lane);
    /** Move every lane's pending samples into walls; their median. */
    double collect();

    /** A random cyclic permutation, walked as a dependent chain; read
     *  only, so the lanes share it. */
    std::vector<uint32_t> chain;
    std::vector<Lane> lanes;
    /** Set while a task holds the lane (sampleAnyLane). */
    std::vector<std::atomic<bool>> busy;
    std::vector<double> walls;
};

/** A duration measured while the reference took `ref_seconds`, as the
 *  nominal host would see it. */
inline double
normTime(double seconds, double ref_seconds)
{
    return seconds * refNominalSeconds / ref_seconds;
}

} // namespace ubrc::perfbench

#endif // UBRC_PERFBENCH_HOST_REF_HH
