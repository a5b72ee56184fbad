/**
 * @file
 * The grid workload: the cached-scheme 24-point register-cache grid
 * (entries {16,32,64,128} x ways {1,2,4} x indexing {preg,
 * filtered-rr}) over every kernel, run twice on the scheduler: once
 * by execution, once by trace replay (record the design point, then
 * loadTrace -> decodeTrace -> replayDecoded for every point). Every
 * phase runs its points as scheduler tasks the way sim::runSuites
 * does, so that the host reference can follow each task on its
 * worker. The exact-replay point must match execution bit for bit.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "regcache/policies.hh"
#include "report.hh"
#include "sched/scheduler.hh"
#include "sim/config.hh"
#include "sim/results_json.hh"
#include "sim/runner.hh"
#include "sim/sim_error.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_replay.hh"
#include "workload/workload.hh"

namespace ubrc::perfbench
{

namespace
{

/** Instructions per grid point unless --insts overrides it. A fifth
 *  of bench_replay_surface's 150k, so that a run holds several cycles
 *  (README.md gives the measured cost of the cut). */
constexpr uint64_t defaultBudget = 30000;

/** Kernel builds and pool starts timed at set-up, and kernel builds
 *  again after the window; setup_s is the sum of the medians of the
 *  host-normalised trials (see README.md). */
constexpr unsigned setupTrials = 16;

std::vector<sim::SimConfig>
gridConfigs()
{
    const unsigned sizes[] = {16, 32, 64, 128};
    const unsigned assocs[] = {1, 2, 4};
    const regcache::IndexPolicy indexings[] = {
        regcache::IndexPolicy::PhysReg,
        regcache::IndexPolicy::FilteredRoundRobin};
    std::vector<sim::SimConfig> grid;
    for (const auto ix : indexings)
        for (const unsigned entries : sizes)
            for (const unsigned assoc : assocs) {
                sim::SimConfig cfg = sim::SimConfig::useBasedCache();
                cfg.rc.entries = entries;
                cfg.rc.assoc = assoc;
                cfg.rc.indexing = ix;
                // The grid reads total misses, not their Fig. 8
                // classification; the recording matches (below).
                cfg.classifyMisses = false;
                grid.push_back(cfg);
            }
    return grid;
}

/** SimResult as results JSON, without the replay provenance block. */
std::string
resultJson(core::SimResult r)
{
    r.trace = {};
    json::Writer w(false);
    sim::writeSimResult(w, r);
    return w.str();
}

/** Per-trace state of one replay phase. */
struct TraceState
{
    std::once_flag once;
    trace::DecodedTrace decoded;
    std::string error;
    double loadSeconds = 0, decodeSeconds = 0;
    uint64_t fileBytes = 0, events = 0;
    /** Grid points still to replay; the last one frees the events. */
    std::atomic<size_t> remaining{0};
};

/** Scheduler counters relevant to one pass. */
struct SchedDelta
{
    uint64_t tasksRun = 0, steals = 0, busyMicros = 0;

    static SchedDelta
    of(const sched::SchedStats &s)
    {
        SchedDelta d;
        d.tasksRun = s.tasksRun;
        d.steals = s.steals;
        for (const auto &w : s.perWorker)
            d.busyMicros += w.busyMicros;
        return d;
    }
};

/** Replay tasks are short: the host reference runs after every
 *  fourth, so that it does not outweigh them. */
constexpr size_t replayRefEvery = 4;

/** The timings of one parallel phase. */
struct PhaseTiming
{
    /** Wall time, less the host reference's share of it. */
    double wall = 0;
    /** The same, host-normalised. */
    double norm = 0;
    /** Worker time spent on the host reference. */
    double refSeconds = 0;
    /** Each sampled task's own wall, host-normalised, by task index. */
    std::vector<double> taskNorm;
};

/**
 * Finish one parallel phase that began at `start`: run tasks 0..n-1
 * on `sch`, `task(k)` returning task k's wall time. Right after every
 * `every`-th task, the worker that ran it samples the host reference,
 * which normalises that task. The phase's wall, less the reference's
 * share (its summed cost over the workers), is normalised by the
 * sampled tasks' mean factor weighted by task time, so the
 * scheduler's own time and tail stay in it.
 */
template <typename TaskFn>
PhaseTiming
runPhase(sched::Scheduler &sch, HostRef &ref, unsigned workers, size_t n,
         size_t every, Clock::time_point start, TaskFn &&task)
{
    std::vector<double> walls(n, 0), refs(n, 0), costs(n, 0);
    auto group = sch.createGroup([&](uint32_t k) {
        walls[k] = task(size_t(k));
        if (k % every != 0)
            return;
        const Clock::time_point r0 = Clock::now();
        refs[k] = ref.sampleAnyLane();
        costs[k] = secondsSince(r0);
    });
    std::vector<uint32_t> payloads(n);
    for (size_t k = 0; k < n; ++k)
        payloads[k] = uint32_t(k);
    sch.submitAll(group, payloads);
    sch.wait(group);
    const double wall = secondsSince(start);
    ref.collectLanes();

    PhaseTiming p;
    p.taskNorm.resize(n);
    double cost = 0, sum = 0, sumNorm = 0;
    for (size_t k = 0; k < n; k += every) {
        p.taskNorm[k] = normTime(walls[k], refs[k]);
        cost += costs[k];
        sum += walls[k];
        sumNorm += p.taskNorm[k];
    }
    p.wall = wall - cost / double(workers);
    p.refSeconds = cost;
    p.norm = sum > 0 ? p.wall * sumNorm / sum : 0;
    return p;
}

/** One point as sim::runSuites runs it, into `row`; its wall time. */
double
runPoint(const sim::SimConfig &cfg, const workload::Workload &w,
         uint64_t budget, sim::WorkloadRun &row)
{
    const Clock::time_point t0 = Clock::now();
    const sim::RunOutcome run = sim::runOneChecked(cfg, w, budget);
    row.wallSeconds = secondsSince(t0);
    row.workload = w.name;
    row.result = run.result;
    row.failed = !run.ok;
    row.errorKind = run.kind;
    row.error = run.message;
    return row.wallSeconds;
}

/** The kernels, built as sim::runSuites builds them for each call. */
std::vector<workload::Workload>
buildSuite(const std::vector<std::string> &names,
           const workload::WorkloadParams &params)
{
    std::vector<workload::Workload> ws;
    for (const std::string &name : names)
        ws.push_back(workload::buildWorkload(name, params));
    return ws;
}

} // namespace

void
runGrid(const Options &opt, bool traced, Tracer &tracer, Result &out)
{
    const uint64_t budget = opt.insts ? opt.insts : defaultBudget;
    const unsigned workers = opt.workers;
    const std::vector<sim::SimConfig> grid = gridConfigs();
    const std::vector<std::string> &names = workload::workloadNames();
    workload::WorkloadParams params;
    params.seed = opt.seed;
    const ScopedSpan root(tracer, "grid");

    // Set-up: build the kernels, then start a worker pool, in the
    // order a sweep does them. Each is repeated and timed on its own;
    // the builds come first so that they run, as in a sweep, before
    // the process has any other thread. Each trial pool is shut down
    // untimed; the global pool starts last.
    HostRef setupRef;
    SetupTrials builds(setupRef), starts(setupRef);
    {
        const ScopedSpan span(tracer, "setup", root.index());
        for (unsigned k = 0; k < setupTrials; ++k) {
            double buildSecs = 0;
            buildKernels(opt.seed, tracer, span.index(), &buildSecs);
            builds.add(buildSecs);
        }
        sched::SchedConfig sc;
        sc.workers = workers;
        for (unsigned k = 0; k < setupTrials; ++k) {
            double startSecs = 0;
            {
                const Clock::time_point s0 = Clock::now();
                const sched::Scheduler pool(sc);
                startSecs = secondsSince(s0);
            }
            starts.add(startSecs);
        }
        sched::setGlobalWorkers(workers);
        sched::Scheduler::global();
    }
    sched::Scheduler &sch = sched::Scheduler::global();

    sim::SimConfig recordCfg = sim::SimConfig::useBasedCache();
    recordCfg.classifyMisses = false;
    recordCfg.traceMode = sim::TraceMode::Record;
    recordCfg.traceDir = opt.scratchDir + "/traces-" +
                         std::to_string(opt.seed);
    const std::string recordedIdentity = trace::storageIdentity(recordCfg);
    size_t exactIdx = grid.size();
    for (size_t i = 0; i < grid.size(); ++i)
        if (trace::storageIdentity(grid[i]) == recordedIdentity)
            exactIdx = i;
    if (exactIdx == grid.size())
        out.fail("no grid point matches the recorded configuration");

    const size_t points = grid.size() * names.size();
    // Each phase runs its points as scheduler tasks, the way
    // sim::runSuites does, with a host reference sample after every
    // task on the worker that ran it (see README.md). Throughput is
    // each phase's work over its summed wall time across the cycles;
    // latency takes every executed point of the window.
    HostRef ref(workers);
    std::vector<double> execWalls, replayWalls, recordWalls;
    std::vector<double> execNorm, replayNorm, recordNorm;
    std::vector<double> pointWalls, pointNorm;
    uint64_t cycleInsts = 0;
    std::vector<double> loadS, decodeS, replayS, replayNsPerEvent,
        recordOverhead;
    double errSum = 0, errMax = 0;
    uint64_t errN = 0, exactPoints = 0, events = 0, traceBytes = 0,
             recordedInsts = 0;
    double criticalPath = 0, tailSecs = 0, phaseSecs = 0, refBusy = 0;
    SimTotals totals;
    double serializeSecs = 0;
    size_t jsonBytes = 0;
    const SchedDelta before = SchedDelta::of(sch.stats());
    unsigned cycles = 0;

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    do {
        const ScopedSpan cycleSpan(tracer, "cycle", root.index());

        // 1. The grid by execution, point k = config x kernels + kernel.
        int32_t span = tracer.open("grid.exec", cycleSpan.index());
        const Clock::time_point e0 = Clock::now();
        const std::vector<workload::Workload> execKernels =
            buildSuite(names, params);
        std::vector<sim::SuiteResult> suites(grid.size());
        for (sim::SuiteResult &suite : suites)
            suite.runs.resize(names.size());
        const PhaseTiming exec = runPhase(
            sch, ref, workers, points, 1, e0, [&](size_t k) {
                const size_t c = k / names.size(), t = k % names.size();
                return runPoint(grid[c], execKernels[t], budget,
                                suites[c].runs[t]);
            });
        const double execWall = exec.wall;
        refBusy += exec.refSeconds;
        tracer.close(span);
        uint64_t insts = 0;
        double taskSum = 0;
        for (size_t i = 0; i < suites.size(); ++i) {
            for (size_t t = 0; t < names.size(); ++t) {
                const sim::WorkloadRun &run = suites[i].runs[t];
                ++out.attempted;
                if (run.failed)
                    out.fail("exec " + run.workload + ": " + run.error);
                insts += run.result.instsRetired;
                pointWalls.push_back(run.wallSeconds);
                pointNorm.push_back(exec.taskNorm[i * names.size() + t]);
                taskSum += run.wallSeconds;
                criticalPath = std::max(criticalPath, run.wallSeconds);
                if (cycles == 0)
                    totals.add(run.result);
            }
        }
        tailSecs += execWall - taskSum / workers;
        phaseSecs += execWall;
        execWalls.push_back(execWall);
        execNorm.push_back(exec.norm);
        cycleInsts = insts;
        if (cycles == 0) {
            const Clock::time_point s0 = Clock::now();
            for (const sim::SuiteResult &s : suites) {
                json::Writer jw(false);
                sim::writeSuiteResult(jw, s);
                jsonBytes += jw.str().size();
            }
            serializeSecs = secondsSince(s0);
        }

        // 2. Record the design point (its own timed phase).
        span = tracer.open("trace.record", cycleSpan.index());
        const Clock::time_point r0 = Clock::now();
        const std::vector<workload::Workload> recordKernels =
            buildSuite(names, params);
        sim::SuiteResult recorded;
        recorded.runs.resize(names.size());
        const PhaseTiming record = runPhase(
            sch, ref, workers, names.size(), 1, r0, [&](size_t t) {
                return runPoint(recordCfg, recordKernels[t], budget,
                                recorded.runs[t]);
            });
        const double recordWall = record.wall;
        refBusy += record.refSeconds;
        tracer.close(span);
        recordWalls.push_back(recordWall);
        recordNorm.push_back(record.norm);
        taskSum = 0;
        double recordTasks = 0, execAtPoint = 0;
        for (size_t t = 0; t < recorded.runs.size(); ++t) {
            const sim::WorkloadRun &run = recorded.runs[t];
            ++out.attempted;
            if (run.failed)
                out.fail("record " + run.workload + ": " + run.error);
            taskSum += run.wallSeconds;
            recordTasks += run.wallSeconds;
            criticalPath = std::max(criticalPath, run.wallSeconds);
            if (exactIdx < grid.size())
                execAtPoint += suites[exactIdx].runs[t].wallSeconds;
            if (cycles == 0)
                recordedInsts += run.result.instsRetired;
        }
        tailSecs += recordWall - taskSum / workers;
        phaseSecs += recordWall;
        recordOverhead.push_back(execAtPoint > 0 ? recordTasks / execAtPoint
                                                 : 0);

        // 3. The grid by replay: one task per (trace, point), task
        // k = kernel x points + point; the first task of a trace loads
        // and decodes it.
        span = tracer.open("trace.replay_phase", cycleSpan.index());
        const int32_t replaySpan = span;
        const uint32_t skip = trace::replaySkipMask(grid.front());
        std::vector<TraceState> state(names.size());
        for (TraceState &ts : state)
            ts.remaining = grid.size();
        std::vector<std::vector<core::SimResult>> replayed(
            grid.size(), std::vector<core::SimResult>(names.size()));
        std::vector<std::vector<std::string>> errors(
            grid.size(), std::vector<std::string>(names.size()));
        std::vector<std::vector<double>> walls(
            grid.size(), std::vector<double>(names.size()));
        const Clock::time_point p0 = Clock::now();
        const auto replayTask = [&](size_t k) {
            const size_t i = k % grid.size(), t = k / grid.size();
            TraceState &ts = state[t];
            std::call_once(ts.once, [&] {
                const std::string path = trace::traceFilePath(
                    recordCfg.traceDir, names[t]);
                try {
                    const Clock::time_point l0 = Clock::now();
                    const trace::RecordedTrace raw = trace::loadTrace(path);
                    const Clock::time_point l1 = Clock::now();
                    ts.decoded = trace::decodeTrace(raw, skip);
                    const Clock::time_point l2 = Clock::now();
                    tracer.add("trace.load", l0, l1, replaySpan);
                    tracer.add("trace.decode", l1, l2, replaySpan);
                    ts.loadSeconds = secondsBetween(l0, l1);
                    ts.decodeSeconds = secondsBetween(l1, l2);
                    ts.fileBytes = std::filesystem::file_size(path);
                    ts.events = ts.decoded.events.size();
                } catch (const std::exception &e) {
                    ts.error = e.what();
                }
            });
            if (!ts.error.empty()) {
                errors[i][t] = ts.error;
                return;
            }
            const Clock::time_point t0 = Clock::now();
            try {
                replayed[i][t] = trace::replayDecoded(grid[i], ts.decoded);
            } catch (const sim::SimError &e) {
                errors[i][t] = e.what();
            }
            const Clock::time_point t1 = Clock::now();
            tracer.add("trace.replay", t0, t1, replaySpan);
            walls[i][t] = secondsBetween(t0, t1);
            if (--ts.remaining == 0)
                ts.decoded.events = {};
        };
        const PhaseTiming replayPhase = runPhase(
            sch, ref, workers, points, replayRefEvery, p0, [&](size_t k) {
                const Clock::time_point k0 = Clock::now();
                replayTask(k);
                return secondsSince(k0);
            });
        const double replayWall = replayPhase.wall;
        refBusy += replayPhase.refSeconds;
        tracer.close(span);
        replayWalls.push_back(replayWall);
        replayNorm.push_back(replayPhase.norm);

        double load = 0, decode = 0, replay = 0;
        uint64_t cycleEvents = 0;
        for (const TraceState &ts : state) {
            load += ts.loadSeconds;
            decode += ts.decodeSeconds;
            cycleEvents += ts.events;
            if (cycles == 0)
                traceBytes += ts.fileBytes;
        }
        taskSum = load + decode;
        for (size_t i = 0; i < grid.size(); ++i)
            for (size_t t = 0; t < names.size(); ++t) {
                ++out.attempted;
                if (!errors[i][t].empty())
                    out.fail("replay " + names[t] + ": " + errors[i][t]);
                replay += walls[i][t];
                criticalPath = std::max(criticalPath, walls[i][t]);
            }
        taskSum += replay;
        tailSecs += replayWall - taskSum / workers;
        phaseSecs += replayWall;
        loadS.push_back(load);
        decodeS.push_back(decode);
        replayS.push_back(replay);
        replayNsPerEvent.push_back(
            cycleEvents ? replay * 1e9 /
                              (double(cycleEvents) * double(grid.size()))
                        : 0);
        if (cycles == 0)
            events = cycleEvents;

        // 4. Exact replay at the recorded point must reproduce
        // execution exactly; adaptive points carry an error.
        if (exactIdx < grid.size()) {
            for (size_t t = 0; t < names.size(); ++t) {
                ++out.attempted;
                core::SimResult exec = suites[exactIdx].runs[t].result;
                if (opt.corrupt == Corrupt::Replay && t == 0)
                    ++exec.cycles;
                const core::SimResult &rep = replayed[exactIdx][t];
                if (!rep.trace.exact ||
                    resultJson(exec) != resultJson(rep))
                    out.fail("exact replay of " + names[t] +
                             " differs from execution");
                else
                    ++exactPoints;
            }
        }
        if (cycles == 0) {
            for (size_t i = 0; i < grid.size(); ++i) {
                if (i == exactIdx)
                    continue;
                for (size_t t = 0; t < names.size(); ++t) {
                    const double e = suites[i].runs[t].result.missPerOperand;
                    if (e <= 0)
                        continue;
                    const double err =
                        std::fabs(replayed[i][t].missPerOperand - e) / e;
                    errSum += err;
                    errMax = std::max(errMax, err);
                    ++errN;
                }
            }
        }
        std::printf("grid cycle %-5u exec %.3f s, record %.3f s, replay "
                    "%.3f s\n",
                    cycles, execWalls.back(), recordWalls.back(),
                    replayWalls.back());
        ++cycles;
    } while (Clock::now() < deadline);
    const SchedDelta after = SchedDelta::of(sch.stats());
    std::filesystem::remove_all(recordCfg.traceDir);
    {
        const ScopedSpan span(tracer, "setup.after", root.index());
        for (unsigned k = 0; k < setupTrials; ++k) {
            double buildSecs = 0;
            buildKernels(opt.seed, tracer, span.index(), &buildSecs);
            builds.add(buildSecs);
        }
    }

    if (traced) {
        double buildSecs = 0;
        const std::vector<workload::Workload> ws =
            buildKernels(opt.seed, tracer, root.index(), &buildSecs);
        out.set("workload.build_s", buildSecs);
        measureCheckerIps(ws, budget, tracer, out);
    }

    const double perCycle = 1.0 / double(cycles);
    const auto mean = [&](const std::vector<double> &v) {
        double sum = 0;
        for (const double x : v)
            sum += x;
        return sum * perCycle;
    };
    const double execWall = mean(execWalls);
    const double recordWall = mean(recordWalls);
    const double replayWall = mean(replayWalls);
    const double execW = mean(execNorm);
    const double otherW = mean(recordNorm) + mean(replayNorm);
    out.unitWall = execW + otherW;
    out.set("setup_s", builds.norm() + starts.norm());
    out.set("setup_raw_s", builds.raw() + starts.raw());
    out.set("sim_ips", double(cycleInsts) / execWall);
    out.set("ops_per_s", double(points) / (recordWall + replayWall));
    out.set("sim_ips_norm", double(cycleInsts) / execW);
    out.set("ops_per_s_norm", double(points) / otherW);
    setLatency(out, pointWalls, pointNorm);
    setHostRef(out, ref);
    out.set("peak_rss_mb", selfPeakRssMb());
    out.set("exec_points_per_s", double(points) / execWall);
    out.set("replay_points_per_s", double(points) / replayWall);
    out.set("record_s", recordWall);
    out.set("bench.workers", workers);
    // Each cycle builds every kernel once for execution and once for
    // the recording, as two sim::runSuites calls would.
    out.set("workload.builds", double(2 * names.size()));
    totals.exportTo(out);
    out.set("sim.serialize_s", serializeSecs);
    out.set("sim.json_bytes", double(jsonBytes));
    out.set("trace.record_overhead", median(recordOverhead));
    out.set("trace.bytes_per_inst",
            recordedInsts ? double(traceBytes) / double(recordedInsts) : 0);
    out.set("trace.events", double(events));
    out.set("trace.load_s", median(loadS));
    out.set("trace.decode_s", median(decodeS));
    out.set("trace.replay_s", median(replayS));
    out.set("trace.replay_ns_per_event", median(replayNsPerEvent));
    out.set("trace.exact_points", double(exactPoints) * perCycle);
    out.set("trace.replay_err_mean", errN ? errSum / double(errN) : 0);
    out.set("trace.replay_err_max", errMax);
    // Worker busy time without the host reference's samples.
    const double busy =
        double(after.busyMicros - before.busyMicros) * 1e-6 - refBusy;
    out.set("sched.tasks_run",
            double(after.tasksRun - before.tasksRun) * perCycle);
    out.set("sched.steals", double(after.steals - before.steals) * perCycle);
    out.set("sched.busy_s", busy * perCycle);
    out.set("sched.utilization",
            phaseSecs > 0 ? busy / (double(workers) * phaseSecs) : 0);
    out.set("sched.critical_path_s", criticalPath);
    out.set("sched.tail_s", tailSecs * perCycle);
    std::printf("grid             %u cycle(s) of %zu points by execution "
                "and by replay, %llu instructions each, %u workers\n",
                cycles, points, static_cast<unsigned long long>(budget),
                workers);
}

} // namespace ubrc::perfbench
