#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/resource.h>

#include "isa/functional_core.hh"
#include "workload/workload.hh"

namespace ubrc::perfbench
{

namespace
{

struct ScalarFinder : stats::StatVisitor
{
    explicit ScalarFinder(const std::string &n) : want(n) {}

    void
    visitScalar(const std::string &name, const stats::Scalar &s) override
    {
        if (name == want)
            found = s.value();
    }
    void visitMean(const std::string &, const stats::Mean &) override {}
    void visitDistribution(const std::string &,
                           const stats::Distribution &) override
    {}

    const std::string &want;
    uint64_t found = 0;
};

} // namespace

void
Result::fail(const std::string &why)
{
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * double(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
selfPeakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
processPeakRssMb(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

void
setLatency(Result &r, const std::vector<double> &seconds,
           const std::vector<double> &norm_seconds)
{
    std::vector<double> ms, normMs;
    ms.reserve(seconds.size());
    for (const double s : seconds)
        ms.push_back(s * 1e3);
    for (const double s : norm_seconds)
        normMs.push_back(s * 1e3);
    // The (n-10)th smallest sample has exactly ten beyond it; p99 is
    // the most the tail asks for once there are enough samples.
    const size_t n = ms.size();
    const double q =
        n > 11 ? std::min(99.0, 100.0 * double(n - 11) / double(n - 1))
               : 100.0;
    r.set("latency_p50_ms", median(ms));
    r.set("latency_tail_ms", percentile(ms, q));
    r.set("latency_p50_ms_norm", median(normMs));
    r.set("latency_tail_ms_norm", percentile(normMs, q));
    r.set("bench.latency_samples", double(n));
    r.set("bench.latency_tail_q", q);
    const double beyond = double(n - 1) - q / 100.0 * double(n - 1);
    std::printf("latency tail     p%.2f over %zu samples (%.0f beyond)%s\n",
                q, n, beyond,
                n > 11 ? "" : "  [fewer than 10 beyond the tail]");
}

void
SetupTrials::add(double seconds)
{
    walls.push_back(seconds);
    normWalls.push_back(normTime(seconds, ref.sample()));
}

void
setHostRef(Result &r, const HostRef &ref)
{
    r.set("host.ref_ms", ref.medianSeconds() * 1e3);
    r.set("host.speed", ref.speed());
    std::printf("host reference   median %.3f ms over %zu samples, "
                "speed %.3f of nominal\n",
                ref.medianSeconds() * 1e3, ref.samples(), ref.speed());
}

void
SimTotals::add(const core::SimResult &r)
{
    ++runs;
    cycles += r.cycles;
    insts += r.instsRetired;
    miniReplays += r.miniReplays;
    squashes += r.issueGroupSquashes;
    memOrder += r.memOrderViolations;
    stallsRegs += r.renameStallsRegs;
    stallsRob += r.renameStallsRob;
    stallsIq += r.renameStallsIq;
    fetchBlocks += r.fetchBlocks;
    mispredicts += r.branchMispredicts;
    if (r.branchMispredictRate > 0)
        branches += double(r.branchMispredicts) / r.branchMispredictRate;
    opBypass += r.opBypass;
    opCache += r.opCache;
    opFile += r.opFile;
    fileReads += r.supplier.fileReads;
    fileWrites += r.supplier.fileWrites;
    douSum += r.douAccuracy;
    if (r.supplier.hasCache) {
        cachedOperands += r.operandReads();
        misses += r.rcMisses;
        inserts += r.rcInserts;
        fills += r.rcFills;
        writesFiltered += r.writesFiltered;
        valuesProduced += r.valuesProduced;
        neverRead += r.cachedNeverRead;
        cachedTotal += r.cachedTotal;
    }
}

void
SimTotals::exportTo(Result &out) const
{
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.set("core.cycles", double(cycles));
    out.set("core.insts", double(insts));
    out.set("core.ipc", ratio(double(insts), double(cycles)));
    out.set("core.mini_replays", double(miniReplays));
    out.set("core.issue_group_squashes", double(squashes));
    out.set("core.mem_order_violations", double(memOrder));
    out.set("core.rename_stalls_regs", double(stallsRegs));
    out.set("core.rename_stalls_rob", double(stallsRob));
    out.set("core.rename_stalls_iq", double(stallsIq));
    out.set("frontend.mispredict_rate",
            ratio(double(mispredicts), branches));
    out.set("frontend.fetch_blocks", double(fetchBlocks));
    out.set("storage.op_bypass", double(opBypass));
    out.set("storage.op_cache", double(opCache));
    out.set("storage.op_file", double(opFile));
    out.set("regcache.miss_per_operand",
            ratio(double(misses), double(cachedOperands)));
    out.set("regcache.hit_ratio",
            ratio(double(opCache), double(opCache + misses)));
    out.set("regcache.inserts", double(inserts));
    out.set("regcache.fills", double(fills));
    out.set("regcache.filter_ratio",
            ratio(double(writesFiltered), double(valuesProduced)));
    out.set("regcache.read_ratio",
            cachedTotal ? 1.0 - ratio(double(neverRead),
                                      double(cachedTotal))
                        : 0.0);
    out.set("regcache.dou_accuracy", ratio(douSum, double(runs)));
    out.set("regfile.file_reads", double(fileReads));
    out.set("regfile.file_writes", double(fileWrites));
}

uint64_t
statScalar(const stats::StatGroup &g, const std::string &name)
{
    ScalarFinder f(name);
    g.visit(f);
    return f.found;
}

void
exportStorageTiming(const StorageTiming &t, Result &out)
{
    const uint64_t calls = t.totalCalls();
    const double busy = t.totalBusySeconds();
    out.set("storage.calls", double(calls));
    out.set("storage.busy_s", busy);
    out.set("storage.ns_per_call", calls ? busy * 1e9 / double(calls) : 0);
    for (unsigned i = 0; i < numStorageCalls; ++i) {
        const auto c = static_cast<StorageCall>(i);
        const std::string m = storageCallName(c);
        out.set("storage.calls." + m, double(t.calls[i]));
        out.set("storage.busy_s." + m, t.busySeconds(c));
    }
}

void
measureCheckerIps(const std::vector<workload::Workload> &workloads,
                  uint64_t budget, Tracer &tracer, Result &out)
{
    const ScopedSpan all(tracer, "isa.checker");
    uint64_t insts = 0;
    double secs = 0;
    for (const workload::Workload &w : workloads) {
        SparseMemory mem;
        w.initMemory(mem);
        isa::FunctionalCore fc(w.program, mem);
        const Clock::time_point t0 = Clock::now();
        insts += fc.run(budget);
        const Clock::time_point t1 = Clock::now();
        secs += secondsBetween(t0, t1);
        tracer.add("isa.run", t0, t1, all.index());
    }
    out.set("isa.checker_ips", secs > 0 ? double(insts) / secs : 0);
}

std::vector<workload::Workload>
buildKernels(uint64_t seed, Tracer &tracer, int32_t parent,
             double *build_seconds)
{
    workload::WorkloadParams params;
    params.seed = seed;
    std::vector<workload::Workload> ws;
    double secs = 0;
    for (const std::string &name : workload::workloadNames()) {
        const Clock::time_point t0 = Clock::now();
        ws.push_back(workload::buildWorkload(name, params));
        const Clock::time_point t1 = Clock::now();
        secs += secondsBetween(t0, t1);
        tracer.add("workload.build", t0, t1, parent);
    }
    if (build_seconds)
        *build_seconds = secs;
    return ws;
}

} // namespace ubrc::perfbench
