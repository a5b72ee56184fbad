/**
 * @file
 * The single-stream workload: serial execution-driven runs of every
 * kernel under the three register-storage schemes at the paper design
 * point, checker on. The core, the storage layer and the checker do
 * the work; the scheduler, trace and server layers do none.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "report.hh"
#include "sim/config.hh"
#include "sim/results_json.hh"
#include "sim/runner.hh"
#include "sim/sim_error.hh"
#include "workload/workload.hh"

namespace ubrc::perfbench
{

namespace
{

/** Instructions per simulation unless --insts overrides it: the
 *  bench_throughput budget. */
constexpr uint64_t defaultBudget = 150000;

/** Reference samples either side of a simulation that normalise it. */
constexpr size_t refSpan = 3;

/** Kernel builds timed before the window, and again after it; the
 *  median of all of them, each host-normalised, is setup_s (see
 *  README.md). */
constexpr unsigned setupTrials = 16;

struct Scheme
{
    const char *label;
    sim::SimConfig cfg;
};

std::vector<Scheme>
schemes()
{
    return {{"cached", sim::SimConfig::useBasedCache()},
            {"monolithic", sim::SimConfig::monolithic(3)},
            {"two-level", sim::SimConfig::twoLevelFile(64)}};
}

/** One simulation, timed from outside the core. */
struct SimRun
{
    core::SimResult result;
    std::string dump; ///< statsDump(), when asked for
    std::string error;
    double constructSeconds = 0;
    double runSeconds = 0;
    uint64_t l1dAccesses = 0, l1dMisses = 0, l1iMisses = 0, l2Misses = 0;
};

SimRun
simulate(const sim::SimConfig &base, const workload::Workload &w,
         uint64_t budget, const core::Processor::SupplierWrap &wrap,
         bool keep_dump, Tracer &tracer, int32_t parent)
{
    sim::SimConfig cfg = base;
    cfg.maxInsts = budget;
    cfg.validate();
    SimRun out;
    const Clock::time_point t0 = Clock::now();
    core::Processor proc(cfg, w, wrap);
    const Clock::time_point t1 = Clock::now();
    try {
        proc.run();
    } catch (const sim::SimError &e) {
        out.error = e.what();
    }
    const Clock::time_point t2 = Clock::now();
    tracer.add("core.construct", t0, t1, parent);
    tracer.add("core.run", t1, t2, parent);
    out.constructSeconds = secondsBetween(t0, t1);
    out.runSeconds = secondsBetween(t1, t2);
    out.result = proc.result();
    if (keep_dump)
        out.dump = proc.statsDump();
    const stats::StatGroup &g = proc.statsGroup();
    out.l1dAccesses = statScalar(g, "l1d_accesses");
    out.l1dMisses = statScalar(g, "l1d_misses");
    out.l1iMisses = statScalar(g, "l1i_misses");
    out.l2Misses = statScalar(g, "l2_misses");
    return out;
}

} // namespace

void
runSingleStream(const Options &opt, bool traced, Tracer &tracer,
                Result &out)
{
    const uint64_t budget = opt.insts ? opt.insts : defaultBudget;
    const std::vector<Scheme> points = schemes();
    const ScopedSpan root(tracer, "single-stream");

    // Set-up: build every kernel's program and data set.
    HostRef setupRef;
    SetupTrials setups(setupRef);
    std::vector<workload::Workload> ws;
    {
        const ScopedSpan span(tracer, "setup", root.index());
        for (unsigned k = 0; k < setupTrials; ++k) {
            double secs = 0;
            ws = buildKernels(opt.seed, tracer, span.index(), &secs);
            setups.add(secs);
        }
    }
    // Timed window: whole reps of (scheme x kernel) until time is up.
    // Caches start empty: every simulation builds a fresh Processor.
    // Throughput takes each simulation's median repetition; latency
    // takes every simulation of the window. The host reference runs
    // after every simulation and normalises it (see README.md).
    StorageTiming timing;
    const core::Processor::SupplierWrap wrap =
        traced ? timedWrap(timing) : core::Processor::SupplierWrap{};
    const size_t items = points.size() * ws.size();
    HostRef ref;
    std::vector<std::vector<double>> itemWalls(items);
    std::vector<double> walls, refWalls;
    std::vector<uint64_t> itemInsts(items, 0);
    std::vector<std::string> firstDumps;
    std::vector<core::SimResult> firstResults;
    SimTotals totals;
    double constructSecs = 0, runSecs = 0;
    uint64_t hostInsts = 0, hostCycles = 0;
    uint64_t l1dAcc = 0, l1dMiss = 0, l1iMiss = 0, l2Miss = 0;
    unsigned reps = 0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    do {
        const ScopedSpan repSpan(tracer, "rep", root.index());
        for (size_t i = 0; i < items; ++i) {
            const size_t s = i / ws.size();
            const workload::Workload &w = ws[i % ws.size()];
            const int32_t simSpan = tracer.open("sim", repSpan.index());
            const SimRun run = simulate(points[s].cfg, w, budget, wrap,
                                        reps == 0, tracer, simSpan);
            tracer.close(simSpan);
            ++out.attempted;
            if (!run.error.empty())
                out.fail(std::string(points[s].label) + "/" + w.name +
                         ": " + run.error);
            const double wall = run.constructSeconds + run.runSeconds;
            itemWalls[i].push_back(wall);
            refWalls.push_back(ref.sample());
            walls.push_back(wall);
            itemInsts[i] = run.result.instsRetired;
            constructSecs += run.constructSeconds;
            runSecs += run.runSeconds;
            hostInsts += run.result.instsRetired;
            hostCycles += run.result.cycles;
            if (reps == 0) {
                firstDumps.push_back(run.dump);
                firstResults.push_back(run.result);
                totals.add(run.result);
                l1dAcc += run.l1dAccesses;
                l1dMiss += run.l1dMisses;
                l1iMiss += run.l1iMisses;
                l2Miss += run.l2Misses;
            }
        }
        ++reps;
    } while (Clock::now() < deadline);
    {
        const ScopedSpan span(tracer, "setup.after", root.index());
        for (unsigned k = 0; k < setupTrials; ++k) {
            double secs = 0;
            buildKernels(opt.seed, tracer, span.index(), &secs);
            setups.add(secs);
        }
    }

    // Cross-check outside the window: the timing decorator must not
    // change behaviour, so decorated and undecorated runs must dump
    // byte-identical statistics. The timed runs were decorated only
    // when traced; the check runs the other variant.
    {
        const ScopedSpan span(tracer, "check.decorator", root.index());
        StorageTiming scratch;
        const core::Processor::SupplierWrap other =
            traced ? core::Processor::SupplierWrap{}
                   : timedWrap(scratch);
        if (opt.corrupt == Corrupt::Decorator && !firstDumps.empty())
            firstDumps[0] += "corrupted\n";
        size_t i = 0;
        for (const Scheme &p : points) {
            for (const workload::Workload &w : ws) {
                const SimRun run = simulate(p.cfg, w, budget, other,
                                            true, tracer, span.index());
                ++out.attempted;
                if (run.dump != firstDumps[i])
                    out.fail(std::string("decorated and undecorated "
                                         "statsDump differ for ") +
                             p.label + "/" + w.name);
                ++i;
            }
        }
    }

    // The results-JSON writers, timed on one rep's suites.
    {
        const ScopedSpan span(tracer, "sim.serialize", root.index());
        const Clock::time_point t0 = Clock::now();
        size_t bytes = 0, i = 0;
        for (size_t s = 0; s < points.size(); ++s) {
            sim::SuiteResult suite;
            for (const workload::Workload &w : ws) {
                sim::WorkloadRun row;
                row.workload = w.name;
                row.result = firstResults[i++];
                suite.runs.push_back(std::move(row));
            }
            json::Writer jw(false);
            sim::writeSuiteResult(jw, suite);
            bytes += jw.str().size();
        }
        out.set("sim.serialize_s", secondsSince(t0));
        out.set("sim.json_bytes", double(bytes));
    }

    if (traced)
        measureCheckerIps(ws, budget, tracer, out);

    // Each simulation is normalised by the median of the reference
    // samples taken after it and its neighbours, refSpan either side:
    // about a second of host time, short enough to follow the host,
    // long enough to damp one sample's noise.
    std::vector<std::vector<double>> itemNorm(items);
    std::vector<double> normWalls;
    for (size_t j = 0; j < walls.size(); ++j) {
        const size_t lo = j > refSpan ? j - refSpan : 0;
        const size_t hi = std::min(walls.size(), j + refSpan + 1);
        const double local = median(std::vector<double>(
            refWalls.begin() + long(lo), refWalls.begin() + long(hi)));
        normWalls.push_back(normTime(walls[j], local));
        itemNorm[j % items].push_back(normWalls.back());
    }
    double repWall = 0, repNorm = 0;
    uint64_t insts = 0;
    std::vector<double> schemeWall(points.size(), 0);
    std::vector<uint64_t> schemeInsts(points.size(), 0);
    for (size_t i = 0; i < items; ++i) {
        const double wall = median(itemWalls[i]);
        repWall += wall;
        repNorm += median(itemNorm[i]);
        insts += itemInsts[i];
        schemeWall[i / ws.size()] += wall;
        schemeInsts[i / ws.size()] += itemInsts[i];
    }
    out.unitWall = repNorm / double(items);
    out.set("setup_s", setups.norm());
    out.set("setup_raw_s", setups.raw());
    out.set("sim_ips", double(insts) / repWall);
    out.set("ops_per_s", double(items) / repWall);
    out.set("sim_ips_norm", double(insts) / repNorm);
    out.set("ops_per_s_norm", double(items) / repNorm);
    setLatency(out, walls, normWalls);
    setHostRef(out, ref);
    out.set("peak_rss_mb", selfPeakRssMb());
    for (size_t s = 0; s < points.size(); ++s)
        out.set(std::string("sim_ips.") + points[s].label,
                double(schemeInsts[s]) / schemeWall[s]);
    out.set("bench.workers", 1);

    // Per-layer host times are per rep; simulated counts are one rep's.
    const double perRep = 1.0 / double(reps);
    out.set("workload.build_s", setups.raw());
    out.set("workload.builds", 0);
    totals.exportTo(out);
    out.set("core.construct_s", constructSecs * perRep);
    out.set("core.run_s", runSecs * perRep);
    out.set("core.ns_per_inst",
            hostInsts ? runSecs * 1e9 / double(hostInsts) : 0);
    out.set("core.ns_per_cycle",
            hostCycles ? runSecs * 1e9 / double(hostCycles) : 0);
    out.set("mem.l1d_accesses", double(l1dAcc));
    out.set("mem.l1d_misses", double(l1dMiss));
    out.set("mem.l1i_misses", double(l1iMiss));
    out.set("mem.l2_misses", double(l2Miss));
    // Storage timing is all zero when untraced.
    StorageTiming perRepTiming = timing;
    for (uint64_t &c : perRepTiming.calls)
        c /= reps;
    exportStorageTiming(perRepTiming, out);
    out.set("core.self_s",
            runSecs * perRep - perRepTiming.totalBusySeconds());
    std::printf("single-stream    %u rep(s) of %zu simulations, "
                "%llu instructions each\n",
                reps, points.size() * ws.size(),
                static_cast<unsigned long long>(budget));
}

} // namespace ubrc::perfbench
