/**
 * @file
 * The service workload: an ubrcsim-server child process driven by one
 * single-threaded poll loop. The loop is closed, keeping 2 x workers
 * requests outstanding so the admission queue never empties. Requests
 * are a seeded mix of kernels, schemes, geometries and budgets; about
 * a tenth are malformed frames that must be rejected at admission.
 * After the window every executed response is checked against a
 * direct sim::runOneChecked of the same request.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/rng.hh"
#include "report.hh"
#include "sched/scheduler.hh"
#include "server/request.hh"
#include "sim/results_json.hh"
#include "sim/runner.hh"
#include "sim/sim_error.hh"
#include "workload/workload.hh"

namespace ubrc::perfbench
{

namespace
{

/** Server start-ups timed before the window (plus the one that serves
 *  it), and again after it; the median of all, each host-normalised,
 *  is setup_s (see README.md). */
constexpr unsigned setupTrials = 12;

/** The window runs in segments of this length. After each one the
 *  loop stops sending, lets the server go idle and runs the host
 *  reference (see README.md). */
constexpr double segmentSeconds = 2.0;

/** Host reference samples between segments. */
constexpr unsigned refBurst = 4;

/** Per-request instruction budget range unless --insts is given. */
constexpr uint64_t defaultInstsLo = 10000, defaultInstsHi = 30000;

constexpr double malformedShare = 0.1;

/** Give up on a server that answers nothing for this long. */
constexpr int stallLimitMs = 60000;

const char *const kSchemes[] = {"cached", "cached", "cached", "cached",
                                "monolithic", "two-level"};
const unsigned kEntries[] = {16, 32, 64, 128};
const unsigned kAssocs[] = {1, 2, 4};
const char *const kInsertions[] = {"always", "non-bypass", "use-based"};
const char *const kReplacements[] = {"lru", "use-based"};
const char *const kIndexings[] = {"preg", "round-robin", "minimum",
                                  "filtered-rr"};

template <typename T, size_t N>
const T &
pick(Rng &rng, const T (&arr)[N])
{
    return arr[rng.below(N)];
}

/** A well-formed request, pre-validated so a rejection is a bug. */
std::string
validRequest(const std::string &id, Rng &rng, uint64_t seed,
             uint64_t lo, uint64_t hi)
{
    const auto &names = workload::workloadNames();
    for (int tries = 0; tries < 100; ++tries) {
        json::Writer w(false);
        w.beginObject();
        w.field("schema_version", 1u);
        w.field("kind", "sweep-request");
        w.field("id", id);
        w.field("workload", names[rng.below(names.size())]);
        w.field("seed", seed);
        w.field("max_insts",
                static_cast<uint64_t>(rng.range(static_cast<int64_t>(lo),
                                                static_cast<int64_t>(hi))));
        w.key("config").beginObject();
        w.field("scheme", pick(rng, kSchemes));
        w.field("entries", pick(rng, kEntries));
        w.field("assoc", pick(rng, kAssocs));
        w.field("insertion", pick(rng, kInsertions));
        w.field("replacement", pick(rng, kReplacements));
        w.field("indexing", pick(rng, kIndexings));
        w.endObject();
        w.endObject();
        try {
            const server::SweepRequest req =
                server::parseSweepRequest(json::parse(w.str()));
            req.config.validate();
            return w.str();
        } catch (const sim::SimError &) {
            continue;
        }
    }
    throw std::runtime_error("cannot generate a valid request");
}

/** A frame the server must reject at admission; it keeps its id. */
std::string
malformedRequest(const std::string &id, Rng &rng)
{
    const std::string head = "{\"schema_version\":1,"
                             "\"kind\":\"sweep-request\",\"id\":\"" +
                             id + "\",";
    switch (rng.below(5)) {
      case 0:
        return head + "\"workloadd\":\"gzip\"}";
      case 1:
        return head + "\"workload\":\"gzip\",\"seed\":\"one\"}";
      case 2:
        return head + "\"workload\":\"quake3\"}";
      case 3:
        return head + "\"workload\":\"gzip\",\"config\":"
                      "{\"insertion\":\"mru\"}}";
      default:
        return head + "\"workload\":\"gzip\","
                      "\"max_insts\":999999999999}";
    }
}

/** The server child and its stdio pipes; the destructor reaps it. */
class ServerChild
{
  public:
    ServerChild(const std::string &path, unsigned workers, size_t queue)
    {
        int in[2], outp[2];
        if (pipe(in) != 0 || pipe(outp) != 0)
            throw std::runtime_error(std::string("pipe: ") +
                                     std::strerror(errno));
        const std::string w = std::to_string(workers);
        const std::string q = std::to_string(queue);
        const char *args[] = {path.c_str(), "--workers", w.c_str(),
                              "--queue", q.c_str(), "--deadline-ms",
                              "0", nullptr};
        pid = fork();
        if (pid < 0)
            throw std::runtime_error(std::string("fork: ") +
                                     std::strerror(errno));
        if (pid == 0) {
            dup2(in[0], STDIN_FILENO);
            dup2(outp[1], STDOUT_FILENO);
            close(in[0]);
            close(in[1]);
            close(outp[0]);
            close(outp[1]);
            execv(path.c_str(), const_cast<char *const *>(args));
            _exit(127);
        }
        close(in[0]);
        close(outp[1]);
        toChild = in[1];
        fromChild = outp[0];
    }

    ~ServerChild()
    {
        closeInput();
        if (fromChild >= 0)
            close(fromChild);
        if (pid > 0) {
            // A clean drain exits promptly once stdin closes; a stuck
            // child is killed rather than waited on forever.
            for (int i = 0; i < 3000; ++i) {
                if (waitpid(pid, &status, WNOHANG) == pid)
                    return;
                usleep(10000);
            }
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
        }
    }

    ServerChild(const ServerChild &) = delete;
    ServerChild &operator=(const ServerChild &) = delete;

    bool
    send(const std::string &frame)
    {
        std::string line = frame + "\n";
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n =
                write(toChild, line.data() + off, line.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += size_t(n);
        }
        return true;
    }

    /** Wait up to `timeout_ms` for output; append complete lines. */
    bool
    readLines(std::vector<std::string> &lines, int timeout_ms)
    {
        pollfd p{fromChild, POLLIN, 0};
        const int r = poll(&p, 1, timeout_ms);
        if (r <= 0)
            return r == 0 || errno == EINTR;
        char chunk[65536];
        const ssize_t n = read(fromChild, chunk, sizeof(chunk));
        if (n <= 0)
            return n < 0 && errno == EINTR;
        buf.append(chunk, size_t(n));
        size_t start = 0, nl;
        while ((nl = buf.find('\n', start)) != std::string::npos) {
            lines.push_back(buf.substr(start, nl - start));
            start = nl + 1;
        }
        buf.erase(0, start);
        return true;
    }

    void
    closeInput()
    {
        if (toChild >= 0)
            close(toChild);
        toChild = -1;
    }

    /** Block until the server exits; true for a clean exit. */
    bool
    reap()
    {
        closeInput();
        if (waitpid(pid, &status, 0) != pid)
            return false;
        pid = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    long processId() const { return long(pid); }

  private:
    pid_t pid = -1;
    int toChild = -1, fromChild = -1;
    int status = 0;
    std::string buf;
};

std::string
kindOf(const json::Value &doc)
{
    const json::Value *k = doc.find("kind");
    return k && k->isString() ? k->string : std::string();
}

/** Read frames until one of `kind` arrives; false on EOF or a
 *  stall. */
bool
awaitKind(ServerChild &child, const std::string &kind, json::Value &doc)
{
    std::vector<std::string> lines;
    for (int waited = 0; waited < stallLimitMs; waited += 100) {
        if (!child.readLines(lines, 100))
            return false;
        for (const std::string &l : lines) {
            try {
                json::Value v = json::parse(l);
                if (kindOf(v) == kind) {
                    doc = std::move(v);
                    return true;
                }
            } catch (const std::exception &) {
            }
        }
        lines.clear();
    }
    return false;
}

/** One request frame through its lifecycle. */
struct Request
{
    std::string text;
    bool malformed = false;
    Clock::time_point firstSent{};
    unsigned answers = 0;
    std::string kind;
    double latency = 0;
    double wallMs = 0;
    json::Value outcome;
};

double
numberAt(const json::Value *v)
{
    return v && v->isNumber() ? v->number : 0;
}

} // namespace

void
runService(const Options &opt, bool traced, Tracer &tracer, Result &out)
{
    const unsigned workers = opt.workers;
    const size_t window = 2 * size_t(workers);
    const size_t queue = 4 * size_t(workers);
    const uint64_t lo = opt.insts ? opt.insts : defaultInstsLo;
    const uint64_t hi = opt.insts ? opt.insts : defaultInstsHi;
    const ScopedSpan root(tracer, "service");

    // Set-up: start a server and wait for its hello. Trial servers
    // are shut down again; the one started last serves the window.
    HostRef setupRef;
    SetupTrials setups(setupRef);
    const auto trialStarts = [&](const char *name) {
        const ScopedSpan span(tracer, name, root.index());
        for (unsigned k = 0; k < setupTrials; ++k) {
            const Clock::time_point t0 = Clock::now();
            ServerChild trial(opt.serverPath, workers, queue);
            json::Value hello;
            if (!awaitKind(trial, "server-hello", hello))
                return false;
            const double secs = secondsSince(t0);
            trial.send("{\"kind\":\"shutdown\"}");
            if (!trial.reap())
                out.fail("trial server did not drain cleanly");
            setups.add(secs);
        }
        return true;
    };
    if (!trialStarts("setup")) {
        out.fail("server did not start");
        return;
    }
    const Clock::time_point s0 = Clock::now();
    ServerChild child(opt.serverPath, workers, queue);
    json::Value hello;
    if (!awaitKind(child, "server-hello", hello)) {
        out.fail("server did not start");
        return;
    }
    setups.add(secondsSince(s0));

    // The closed loop.
    Rng rng(opt.seed ^ 0x5e41ce5eedULL);
    std::vector<Request> reqs;
    std::map<std::string, size_t> byId;
    std::vector<int32_t> spans;
    uint64_t framesSent = 0, retries = 0;
    uint64_t protocolErrors = 0;
    size_t outstanding = 0;
    bool ioFailed = false;
    const int32_t windowSpan = tracer.open("service.window", root.index());
    const Clock::time_point w0 = Clock::now();
    const Clock::time_point deadline =
        w0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(opt.seconds));
    const auto segment = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(segmentSeconds));
    Clock::time_point segmentStart = w0, segmentEnd = w0 + segment;
    // The reference runs on one lane per server worker, on a pool
    // started for each burst so that no idle thread of this process
    // shares the cores with the server during a segment.
    HostRef ref(workers);
    sched::SchedConfig refPool;
    refPool.workers = workers;
    const auto refBurstOnPool = [&] {
        sched::Scheduler pool(refPool);
        ref.parallelBurst(pool, refBurst);
    };
    // The window's wall time without the reference's bursts.
    double windowWall = 0;
    Clock::time_point lastAnswer = w0, lastProgress = w0;
    std::vector<std::string> lines;
    while (!ioFailed) {
        const Clock::time_point now = Clock::now();
        if (outstanding == 0 && now >= segmentEnd && now < deadline) {
            // The server is idle: time the host, then go on.
            windowWall += secondsBetween(segmentStart, now);
            const ScopedSpan span(tracer, "host.ref", windowSpan);
            refBurstOnPool();
            segmentStart = Clock::now();
            segmentEnd = segmentStart + segment;
            lastProgress = segmentStart;
        }
        while (outstanding < window && now < deadline &&
               now < segmentEnd) {
            const size_t idx = reqs.size();
            const std::string id = "r-" + std::to_string(idx);
            Request r;
            r.malformed = rng.chance(malformedShare);
            r.text = r.malformed ? malformedRequest(id, rng)
                                 : validRequest(id, rng, opt.seed, lo, hi);
            r.firstSent = Clock::now();
            byId[id] = idx;
            spans.push_back(tracer.open("server.request", windowSpan, idx));
            if (!child.send(r.text)) {
                ioFailed = true;
                break;
            }
            reqs.push_back(std::move(r));
            ++framesSent;
            ++outstanding;
        }
        if (outstanding == 0 && Clock::now() >= deadline)
            break;
        if (std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - lastProgress)
                .count() > stallLimitMs) {
            out.fail("server stalled with requests outstanding");
            break;
        }
        lines.clear();
        if (!child.readLines(lines, 50)) {
            out.fail("server closed its output mid-window");
            break;
        }
        const Clock::time_point got = Clock::now();
        for (const std::string &l : lines) {
            json::Value doc;
            try {
                doc = json::parse(l);
            } catch (const std::exception &) {
                ++protocolErrors;
                continue;
            }
            const std::string kind = kindOf(doc);
            const auto it = byId.find(server::requestIdOf(doc));
            if ((kind != "sweep-response" && kind != "sweep-reject") ||
                it == byId.end()) {
                ++protocolErrors;
                continue;
            }
            Request &r = reqs[it->second];
            lastProgress = got;
            const json::Value *err = doc.find("error");
            const json::Value *retry =
                err ? err->find("retryable") : nullptr;
            if (kind == "sweep-reject" && retry &&
                retry->type == json::Value::Type::Bool && retry->boolean &&
                !r.malformed) {
                // Queue-full shed: resend the identical frame.
                ++retries;
                ++framesSent;
                if (!child.send(r.text))
                    ioFailed = true;
                continue;
            }
            ++r.answers;
            r.kind = kind;
            r.latency = secondsBetween(r.firstSent, got);
            r.wallMs = numberAt(doc.find("wall_ms"));
            if (const json::Value *o = doc.find("outcome"))
                r.outcome = *o;
            if (r.answers == 1) {
                --outstanding;
                lastAnswer = got;
                tracer.close(spans[it->second]);
            }
        }
    }
    // The last segment; the reference's median over the window
    // normalises it.
    windowWall += secondsBetween(segmentStart, lastAnswer);
    refBurstOnPool();
    const double refWall = ref.medianSeconds();
    const double windowNorm = normTime(windowWall, refWall);
    tracer.close(windowSpan);
    const double serverRss = processPeakRssMb(child.processId());

    // Drain: the summary document carries the service counters and
    // the server's scheduler stats.
    json::Value drain;
    bool drained = false;
    if (!ioFailed && child.send("{\"kind\":\"shutdown\"}"))
        drained = awaitKind(child, "server-drain", drain);
    if (!drained)
        out.fail("server sent no drain summary");
    if (!child.reap())
        out.fail("server did not exit cleanly");
    if (protocolErrors)
        out.fail(std::to_string(protocolErrors) +
                 " frame(s) from the server broke the protocol");
    if (!trialStarts("setup.after"))
        out.fail("trial server did not start after the window");

    // Frame accounting: every frame answered exactly once, malformed
    // frames rejected, well-formed ones executed.
    std::vector<size_t> executed;
    std::vector<double> latencies, normLatencies, runMs, overheadMs,
        rejectMs;
    uint64_t malformedCount = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const Request &r = reqs[i];
        ++out.attempted;
        if (r.answers != 1) {
            out.fail("request r-" + std::to_string(i) + " answered " +
                     std::to_string(r.answers) + " times");
            continue;
        }
        if (r.malformed) {
            ++malformedCount;
            rejectMs.push_back(r.latency * 1e3);
            if (r.kind != "sweep-reject")
                out.fail("malformed frame r-" + std::to_string(i) +
                         " was executed");
            continue;
        }
        if (r.kind != "sweep-response") {
            out.fail("well-formed request r-" + std::to_string(i) +
                     " was rejected");
            continue;
        }
        executed.push_back(i);
        latencies.push_back(r.latency);
        normLatencies.push_back(normTime(r.latency, refWall));
        runMs.push_back(r.wallMs);
        overheadMs.push_back(r.latency * 1e3 - r.wallMs);
    }
    if (drained) {
        const json::Value *c = drain.find("counters");
        auto counter = [&](const char *k) {
            return uint64_t(numberAt(c ? c->find(k) : nullptr));
        };
        // The server counts the shutdown frame as received too.
        ++out.attempted;
        if (counter("received") != framesSent + 1 ||
            counter("ok") != executed.size() ||
            counter("rejected") != malformedCount ||
            counter("shed") != retries)
            out.fail("server drain counters (received " +
                     std::to_string(counter("received")) + ", ok " +
                     std::to_string(counter("ok")) + ", rejected " +
                     std::to_string(counter("rejected")) + ", shed " +
                     std::to_string(counter("shed")) +
                     ") disagree with the frames sent and answered");
        out.set("server.received", double(counter("received")));
        out.set("server.admitted", double(counter("admitted")));
        out.set("server.ok", double(counter("ok")));
        out.set("server.rejected", double(counter("rejected")));
        out.set("server.shed", double(counter("shed")));
        const json::Value *sched = drain.find("sched");
        const json::Value *scalars =
            sched ? sched->find("scalars") : nullptr;
        double busyUs = 0;
        if (scalars && scalars->isObject())
            for (const auto &[k, v] : scalars->object)
                if (k.rfind("busy_us_w", 0) == 0)
                    busyUs += numberAt(&v);
        const double busy = busyUs * 1e-6;
        out.set("sched.tasks_run",
                numberAt(scalars ? scalars->find("tasks_run") : nullptr));
        out.set("sched.steals",
                numberAt(scalars ? scalars->find("steals") : nullptr));
        out.set("sched.busy_s", busy);
        out.set("sched.utilization",
                windowWall > 0 ? busy / (double(workers) * windowWall) : 0);
        out.set("sched.tail_s",
                std::max(0.0, windowWall - busy / double(workers)));
    }

    // Every executed response against a direct run of the same
    // request, outside the window, on this process's own pool.
    const std::vector<workload::Workload> kernels = [&] {
        workload::WorkloadParams params;
        params.seed = opt.seed;
        return workload::buildAllWorkloads(params);
    }();
    std::vector<sim::RunOutcome> refs(executed.size());
    {
        const ScopedSpan span(tracer, "service.verify", root.index());
        const int32_t parent = span.index();
        sched::setGlobalWorkers(workers + 1);
        sched::Scheduler &sch = sched::Scheduler::global();
        auto group = sch.createGroup([&](uint32_t k) {
            const Request &r = reqs[executed[k]];
            const Clock::time_point t0 = Clock::now();
            const server::SweepRequest req =
                server::parseSweepRequest(json::parse(r.text));
            const auto &names = workload::workloadNames();
            const size_t w = size_t(
                std::find(names.begin(), names.end(), req.workloadName) -
                names.begin());
            refs[k] = sim::runOneChecked(req.config, kernels[w],
                                         req.maxInsts);
            tracer.add("sim.run_direct", t0, Clock::now(), parent,
                       executed[k]);
        });
        std::vector<uint32_t> payloads;
        for (size_t k = 0; k < executed.size(); ++k)
            payloads.push_back(uint32_t(k));
        sch.submitAll(group, payloads);
        sch.wait(group);
    }
    SimTotals totals;
    size_t jsonBytes = 0;
    const Clock::time_point j0 = Clock::now();
    for (size_t k = 0; k < executed.size(); ++k) {
        sim::RunOutcome &ref = refs[k];
        if (opt.corrupt == Corrupt::Service && k == 0)
            ++ref.result.cycles;
        json::Writer w(false);
        sim::writeRunOutcome(w, ref);
        jsonBytes += w.str().size();
        ++out.attempted;
        const Request &r = reqs[executed[k]];
        if (!ref.ok)
            out.fail("request r-" + std::to_string(executed[k]) +
                     " failed: " + ref.message);
        else if (!json::equal(json::parse(w.str()), r.outcome))
            out.fail("response to r-" + std::to_string(executed[k]) +
                     " differs from a direct run");
        totals.add(ref.result);
    }
    const double serializeSecs = secondsSince(j0);

    if (traced) {
        double buildSecs = 0;
        const std::vector<workload::Workload> ws =
            buildKernels(opt.seed, tracer, root.index(), &buildSecs);
        out.set("workload.build_s", buildSecs);
        measureCheckerIps(ws, (lo + hi) / 2, tracer, out);
    }

    // Throughput: the window's answers and their instructions over its
    // wall time. Latency: every answer of the window.
    uint64_t insts = 0;
    for (const sim::RunOutcome &r : refs)
        insts += r.result.instsRetired;
    const double ok = double(executed.size());
    const double rate = windowWall > 0 ? ok / windowWall : 0;
    if (ok == 0)
        out.fail("no request was answered in the window");
    out.unitWall = ok > 0 ? windowNorm / ok : 0;
    out.set("setup_s", setups.norm());
    out.set("setup_raw_s", setups.raw());
    out.set("sim_ips", windowWall > 0 ? double(insts) / windowWall : 0);
    out.set("ops_per_s", rate);
    out.set("sim_ips_norm",
            windowNorm > 0 ? double(insts) / windowNorm : 0);
    out.set("ops_per_s_norm", windowNorm > 0 ? ok / windowNorm : 0);
    setLatency(out, latencies, normLatencies);
    setHostRef(out, ref);
    out.set("peak_rss_mb", serverRss);
    out.set("req_per_s", rate);
    out.set("bench.workers", workers);
    out.set("workload.builds", ok);
    totals.exportTo(out);
    out.set("sim.serialize_s", serializeSecs);
    out.set("sim.json_bytes", double(jsonBytes));
    out.set("server.run_ms.p50", median(runMs));
    out.set("server.run_ms.p99", percentile(runMs, 99));
    out.set("server.overhead_ms.p50", median(overheadMs));
    out.set("server.overhead_ms.p99", percentile(overheadMs, 99));
    out.set("server.reject_ms", median(rejectMs));
    out.set("server.retries", double(retries));
    out.set("sched.critical_path_s",
            runMs.empty() ? 0 : *std::max_element(runMs.begin(),
                                                  runMs.end()) * 1e-3);
    std::printf("service          %zu frames (%llu malformed) in %.3f s, "
                "%u server workers, window %zu\n",
                reqs.size(), static_cast<unsigned long long>(malformedCount),
                windowWall, workers, window);
}

} // namespace ubrc::perfbench
