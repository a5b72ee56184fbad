/**
 * @file
 * ubrc-perfbench: the repository benchmark's measuring binary.
 *
 *   ubrc-perfbench --workload single-stream|grid|service --seed N
 *                  --seconds S --trace 0|1 --server PATH --scratch DIR
 *                  [--insts N]
 *                  [--corrupt replay|service|decorator]
 *
 * Runs one workload for S seconds and prints a few lines of notes
 * followed, as the last line, by one JSON object with every value the
 * run measured, by metric name:
 *   {"correct": ..., "attempted": ..., "failed": ..., "values": {...}}
 * With --trace 0 the workload runs untraced. With --trace 1 it runs
 * S/2 seconds untraced and S/2 seconds traced, the values come from
 * the traced pass, and the tracing overhead is added; the spans go to
 * DIR/spans-<workload>-<seed>.json. Exits 1 when any correctness
 * cross-check failed. perfbench/run.py builds this binary, picks the
 * metrics BENCHMARK.json names with their units, and is the documented
 * entry point.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "report.hh"

using namespace ubrc::perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ubrc-perfbench: %s\n"
                 "usage: ubrc-perfbench --workload "
                 "single-stream|grid|service --seed N --seconds S\n"
                 "         --trace 0|1 --server PATH --scratch DIR\n"
                 "         [--insts N]\n"
                 "         [--corrupt replay|service|decorator]\n",
                 why);
    std::exit(2);
}

uint64_t
parseU64(const char *flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0')
        usage((std::string(flag) + ": not an integer").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("option " + a + " needs a value").c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = parseU64("--seed", v);
        } else if (a == "--seconds") {
            opt.seconds = double(parseU64("--seconds", v));
        } else if (a == "--trace") {
            opt.traced = parseU64("--trace", v) != 0;
        } else if (a == "--insts") {
            opt.insts = parseU64("--insts", v);
        } else if (a == "--server") {
            opt.serverPath = v;
        } else if (a == "--scratch") {
            opt.scratchDir = v;
        } else if (a == "--corrupt") {
            const std::string c = v;
            if (c == "replay")
                opt.corrupt = Corrupt::Replay;
            else if (c == "service")
                opt.corrupt = Corrupt::Service;
            else if (c == "decorator")
                opt.corrupt = Corrupt::Decorator;
            else
                usage("--corrupt: replay, service or decorator");
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (opt.workload != "single-stream" && opt.workload != "grid" &&
        opt.workload != "service")
        usage("--workload: single-stream, grid or service");
    if (opt.scratchDir.empty())
        usage("--scratch is required");
    if (opt.workload == "service" && opt.serverPath.empty())
        usage("--server is required for the service workload");
    if (opt.seconds <= 0)
        usage("--seconds must be positive");
    // Leave one core to the driving thread (nproc - 1 workers).
    const unsigned n = std::thread::hardware_concurrency();
    opt.workers = n > 1 ? n - 1 : 1;
    return opt;
}

void
runWorkload(const Options &opt, bool traced, Tracer &tracer, Result &out)
{
    if (opt.workload == "single-stream")
        runSingleStream(opt, traced, tracer, out);
    else if (opt.workload == "grid")
        runGrid(opt, traced, tracer, out);
    else
        runService(opt, traced, tracer, out);
}

/** The last line: the counts and every value the pass measured. */
std::string
valuesLine(const Result &r)
{
    std::string s = "{\"correct\": ";
    s += r.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"values\": {";
    bool first = true;
    for (const auto &[name, value] : r.values) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        if (!first)
            s += ", ";
        first = false;
        s += "\"" + name + "\": " + num;
    }
    s += "}}";
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    // A dead server child must show up as a failed write.
    std::signal(SIGPIPE, SIG_IGN);
    const Options opt = parseArgs(argc, argv);

    Result res;
    Tracer tracer(opt.traced);
    try {
        if (!opt.traced) {
            runWorkload(opt, false, tracer, res);
        } else {
            // Untraced then traced, half the time each; the ratio of
            // their unit walls is the tracing overhead.
            Options half = opt;
            half.seconds = opt.seconds / 2;
            Result base;
            Tracer off(false);
            runWorkload(half, false, off, base);
            runWorkload(half, true, tracer, res);
            res.attempted += base.attempted;
            res.failed += base.failed;
            res.set("bench.tracing_overhead",
                    base.unitWall > 0 ? res.unitWall / base.unitWall - 1
                                      : 0);
            const std::string path = opt.scratchDir + "/spans-" +
                                     opt.workload + "-" +
                                     std::to_string(opt.seed) + ".json";
            if (!tracer.write(path))
                res.fail("cannot write spans to " + path);
            else
                std::printf("spans            %zu written to %s\n",
                            tracer.size(), path.c_str());
        }
    } catch (const std::exception &e) {
        res.fail(std::string("uncaught: ") + e.what());
    }
    if (res.attempted == 0)
        res.attempted = 1;
    res.set("fail_ratio", double(res.failed) / double(res.attempted));

    std::printf("attempted %llu, failed %llu (fail_ratio %g)\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                double(res.failed) / double(res.attempted));
    std::printf("%s\n", valuesLine(res).c_str());
    return res.failed == 0 ? 0 : 1;
}
