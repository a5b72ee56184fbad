/**
 * @file
 * What every benchmark workload shares: its options, the per-run
 * result it fills in, and the helpers that turn simulator results and
 * samples into metrics.
 */

#ifndef UBRC_PERFBENCH_REPORT_HH
#define UBRC_PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/processor.hh"
#include "host_ref.hh"
#include "timed_supplier.hh"
#include "tracer.hh"

namespace ubrc::perfbench
{

/** A deliberately broken cross-check, for the benchmark self-check. */
enum class Corrupt
{
    None,
    Replay,    ///< perturb the execution side of the exact-replay check
    Service,   ///< perturb one direct-run reference of a response
    Decorator, ///< perturb one undecorated statsDump
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    /** Simulated-instruction budget per run; 0: the workload's own. */
    uint64_t insts = 0;
    /** Worker threads for parallel phases: nproc - 1. */
    unsigned workers = 0;
    std::string serverPath;
    /** Directory for traces and the span file (inside the checkout). */
    std::string scratchDir;
    Corrupt corrupt = Corrupt::None;
};

/** One measured pass of a workload. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Metric values by name. BENCHMARK.json decides which are
     *  reported and their units; a per-layer metric a workload does
     *  not exercise is left out and reads 0. */
    std::map<std::string, double> values;
    /** Host-normalised wall time of one unit of work (simulation,
     *  cycle, request), for comparing a traced pass with an untraced
     *  one. */
    double unitWall = 0;

    /** Count one failed operation and say why on stderr. */
    void fail(const std::string &why);
    void set(const std::string &name, double v) { values[name] = v; }
};

double median(std::vector<double> v);

/** Linear-interpolated percentile, q in [0, 100]. */
double percentile(std::vector<double> v, double q);

/** This process's peak resident set, in MB. */
double selfPeakRssMb();

/** Peak resident set of process `pid` (VmHWM), in MB; 0 if gone. */
double processPeakRssMb(long pid);

/** Report latency_p50_ms and latency_tail_ms from every latency
 *  sample of the window, in seconds, and latency_p50_ms_norm and
 *  latency_tail_ms_norm from the same samples host-normalised. The
 *  tail is the highest percentile, up to p99, that leaves at least ten
 *  samples beyond it; the percentile and the sample count are reported
 *  beside it. */
void setLatency(Result &r, const std::vector<double> &seconds,
                const std::vector<double> &norm_seconds);

/** Repeated set-up trials. Each is host-normalised by a reference
 *  sample taken right after it; setup_s is the median normalised
 *  trial, setup_raw_s the median raw one. */
struct SetupTrials
{
    explicit SetupTrials(HostRef &r) : ref(r) {}

    /** Keep one trial's wall time, then sample the host. */
    void add(double seconds);

    double raw() const { return median(walls); }
    double norm() const { return median(normWalls); }

    HostRef &ref;
    std::vector<double> walls, normWalls;
};

/** Report the host reference's median sample (host.ref_ms) and speed
 *  factor (host.speed) over the run. */
void setHostRef(Result &r, const HostRef &ref);

/**
 * Simulated-statistics totals over a set of runs, exported as the
 * core, frontend, storage-sourcing, regcache and regfile metrics.
 * These repeat exactly for a given seed and budget.
 */
struct SimTotals
{
    uint64_t runs = 0, cycles = 0, insts = 0;
    uint64_t miniReplays = 0, squashes = 0, memOrder = 0;
    uint64_t stallsRegs = 0, stallsRob = 0, stallsIq = 0;
    uint64_t fetchBlocks = 0, mispredicts = 0;
    double branches = 0;
    uint64_t opBypass = 0, opCache = 0, opFile = 0;
    uint64_t cachedOperands = 0, misses = 0, inserts = 0, fills = 0;
    uint64_t writesFiltered = 0, valuesProduced = 0;
    uint64_t neverRead = 0, cachedTotal = 0;
    double douSum = 0;
    uint64_t fileReads = 0, fileWrites = 0;

    void add(const core::SimResult &r);
    void exportTo(Result &out) const;
};

/** Named scalar from a stat group (0 when absent). */
uint64_t statScalar(const stats::StatGroup &g, const std::string &name);

/** Export storage timing as the storage.* host-time metrics. */
void exportStorageTiming(const StorageTiming &t, Result &out);

/** Host time of FunctionalCore::run alone over `workloads` at
 *  `budget` instructions each: the isa.checker_ips metric. */
void measureCheckerIps(const std::vector<workload::Workload> &workloads,
                       uint64_t budget, Tracer &tracer, Result &out);

/** Build every kernel at `seed`, timing each build as a span. */
std::vector<workload::Workload>
buildKernels(uint64_t seed, Tracer &tracer, int32_t parent,
             double *build_seconds);

// The workloads. Each runs for opt.seconds (traced or not, per
// `traced`) and fills `out`.
void runSingleStream(const Options &opt, bool traced, Tracer &tracer,
                     Result &out);
void runGrid(const Options &opt, bool traced, Tracer &tracer,
             Result &out);
void runService(const Options &opt, bool traced, Tracer &tracer,
                Result &out);

} // namespace ubrc::perfbench

#endif // UBRC_PERFBENCH_REPORT_HH
