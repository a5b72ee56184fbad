/**
 * @file
 * Storage-layer timing decorator for the benchmark's traced runs.
 *
 * TimedSupplier wraps the OperandSupplier a Processor would have used
 * (installed through Processor::SupplierWrap, like the trace
 * recorder) and forwards every virtual unchanged, so a decorated run
 * simulates exactly what an undecorated one does. It counts every
 * call and times a sample of them: every `sampleStride`-th call of
 * each method is bracketed by two steady_clock reads, and busy time
 * is the sampled mean (less the calibrated cost of the clock reads)
 * times the call count. Timing every call would cost more than the
 * short storage calls being measured.
 */

#ifndef UBRC_PERFBENCH_TIMED_SUPPLIER_HH
#define UBRC_PERFBENCH_TIMED_SUPPLIER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/processor.hh"
#include "storage/operand_supplier.hh"

namespace ubrc::perfbench
{

/** The storage calls timed one by one; the rest go to Other. */
enum class StorageCall : unsigned
{
    ReadOperand,
    OnBypassRead,
    AllocateDest,
    OnConsumerRenamed,
    OnValueProduced,
    OnInsertDecision,
    OnOperandMiss,
    OnFill,
    OnValueFreed,
    Tick,
    Other,
    Count,
};

inline constexpr unsigned numStorageCalls =
    static_cast<unsigned>(StorageCall::Count);

/** Metric-name suffix of each call ("readOperand", ..., "other"). */
const char *storageCallName(StorageCall c);

/** Call counts and sampled busy time, per storage call. */
struct StorageTiming
{
    static constexpr uint64_t sampleStride = 32;

    std::array<uint64_t, numStorageCalls> calls{};
    std::array<uint64_t, numStorageCalls> sampled{};
    std::array<int64_t, numStorageCalls> sampledNs{};

    /** Estimated busy seconds of one call kind. */
    double busySeconds(StorageCall c) const;
    uint64_t totalCalls() const;
    double totalBusySeconds() const;
};

/**
 * Cost in nanoseconds of the two clock reads around one sampled call,
 * measured once per process and subtracted from every sample.
 */
int64_t clockPairOverheadNs();

/** A Processor::SupplierWrap installing a TimedSupplier that feeds
 *  `timing`, which must outlive the Processor. */
core::Processor::SupplierWrap timedWrap(StorageTiming &timing);

} // namespace ubrc::perfbench

#endif // UBRC_PERFBENCH_TIMED_SUPPLIER_HH
