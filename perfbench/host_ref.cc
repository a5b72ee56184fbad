#include "host_ref.hh"

#include <utility>

#include "report.hh"
#include "sched/scheduler.hh"

namespace ubrc::perfbench
{

namespace
{

/** 1 MiB of chain and 512 KiB of counters: they fit the per-core L2
 *  once touched, so a sample times the core and its L2 whatever ran
 *  before it. */
constexpr uint32_t chainBits = 18;
constexpr uint32_t counterBits = 16;

/** Steps per sample: about refNominalSeconds on the tuning host. */
constexpr uint32_t stepsPerSample = 400000;

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

HostRef::HostRef(unsigned num_lanes)
    : chain(size_t(1) << chainBits),
      lanes(num_lanes > 0 ? num_lanes : 1), busy(lanes.size())
{
    for (Lane &l : lanes)
        l.counters.assign(size_t(1) << counterBits, 0);
    // Sattolo's shuffle: one cycle through every slot, from a fixed
    // seed, so every run walks the same chain.
    const uint32_t n = uint32_t(chain.size());
    for (uint32_t i = 0; i < n; ++i)
        chain[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t i = n - 1; i > 0; --i) {
        const uint32_t j = uint32_t(xorshift(x) % i);
        std::swap(chain[i], chain[j]);
    }
}

double
HostRef::sampleLane(size_t lane)
{
    std::vector<uint64_t> &counters = lanes[lane].counters;
    const uint64_t mask = (uint64_t(1) << counterBits) - 1;
    uint64_t x = 0x2545f4914f6cdd1dULL, acc = lanes[lane].sink;
    uint32_t at = 0;
    // Untimed: bring both tables back into the cache the workload's
    // own unit of work left them out of.
    for (size_t i = 0; i < chain.size(); i += 16)
        acc += chain[i];
    for (size_t i = 0; i < counters.size(); i += 8)
        acc += counters[i];
    const Clock::time_point t0 = Clock::now();
    for (uint32_t k = 0; k < stepsPerSample; ++k) {
        at = chain[at];
        uint64_t &c = counters[(xorshift(x) ^ at) & mask];
        if ((c ^ x) & 1)
            c += x >> 3;
        else if ((x >> 5) & 1)
            c ^= acc;
        else
            acc ^= c * 31;
        acc += at;
    }
    const double secs = secondsSince(t0);
    lanes[lane].sink = acc;
    lanes[lane].pending.push_back(secs);
    return secs;
}

double
HostRef::collect()
{
    std::vector<double> burstWalls;
    for (Lane &l : lanes) {
        burstWalls.insert(burstWalls.end(), l.pending.begin(),
                          l.pending.end());
        l.pending.clear();
    }
    walls.insert(walls.end(), burstWalls.begin(), burstWalls.end());
    return median(burstWalls);
}

double
HostRef::sample()
{
    sampleLane(0);
    return collect();
}

double
HostRef::parallelBurst(sched::Scheduler &pool, unsigned n)
{
    auto group = pool.createGroup([&](uint32_t lane) {
        for (unsigned k = 0; k < n; ++k)
            sampleLane(lane);
    });
    std::vector<uint32_t> payloads;
    for (uint32_t lane = 0; lane < lanes.size(); ++lane)
        payloads.push_back(lane);
    pool.submitAll(group, payloads);
    pool.wait(group);
    return collect();
}

double
HostRef::sampleAnyLane()
{
    for (;;) {
        for (size_t i = 0; i < lanes.size(); ++i) {
            bool expected = false;
            if (!busy[i].compare_exchange_strong(expected, true,
                                                 std::memory_order_acquire))
                continue;
            const double secs = sampleLane(i);
            busy[i].store(false, std::memory_order_release);
            return secs;
        }
    }
}

double
HostRef::medianSeconds() const
{
    return median(walls);
}

double
HostRef::speed() const
{
    const double m = medianSeconds();
    return m > 0 ? refNominalSeconds / m : 1.0;
}

} // namespace ubrc::perfbench
