/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span marks one call into a simulator layer, timed from the
 * benchmark's side of the boundary: name, start, end, the span that
 * caused it, and an id shared by every span of one service request.
 * Spans stay in memory while the run measures and are written out
 * once, when it ends. A disabled tracer records nothing, so the
 * untraced (end-to-end) runs pay one branch per boundary.
 */

#ifndef UBRC_PERFBENCH_TRACER_HH
#define UBRC_PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ubrc::perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** No parent: the span is a root. */
inline constexpr int32_t noSpan = -1;

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0; ///< relative to the tracer's epoch
        int64_t endNs = 0;
        int32_t parent = noSpan;
        uint64_t id = 0; ///< request id (service), else 0
    };

    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Record a finished span; returns its index (noSpan if off). */
    int32_t add(const std::string &name, Clock::time_point start,
                Clock::time_point end, int32_t parent = noSpan,
                uint64_t id = 0);

    /** Open a span now; close() sets its end. */
    int32_t open(const std::string &name, int32_t parent = noSpan,
                 uint64_t id = 0);
    void close(int32_t span);

    size_t size() const;

    /** Write every span (with its self time) as one JSON document. */
    bool write(const std::string &path) const;

  private:
    std::vector<int64_t> selfNs() const;
    int64_t sinceEpoch(Clock::time_point t) const;

    const bool on;
    const Clock::time_point epoch = Clock::now();
    mutable std::mutex mu; // guards spans
    std::vector<Span> spans;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               int32_t parent = noSpan, uint64_t id = 0)
        : tr(tracer), idx(tracer.open(name, parent, id))
    {}
    ~ScopedSpan() { tr.close(idx); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int32_t index() const { return idx; }

  private:
    Tracer &tr;
    const int32_t idx;
};

} // namespace ubrc::perfbench

#endif // UBRC_PERFBENCH_TRACER_HH
