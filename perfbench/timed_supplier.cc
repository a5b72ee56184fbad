#include "timed_supplier.hh"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "tracer.hh"

namespace ubrc::perfbench
{

namespace
{

int64_t
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
        .count();
}

class TimedSupplier : public storage::OperandSupplier
{
  public:
    TimedSupplier(std::unique_ptr<storage::OperandSupplier> wrapped,
                  StorageTiming &timing, const sim::SimConfig &config,
                  stats::StatGroup &stat_group)
        : OperandSupplier(config, stat_group), inner(std::move(wrapped)),
          t(timing)
    {}

    const char *name() const override { return inner->name(); }

    storage::OptionalNotifications
    optionalNotifications() const override
    {
        return inner->optionalNotifications();
    }

    bool
    canAllocateDest() const override
    {
        return inner->canAllocateDest();
    }

    void
    onConsumerRenamed(PhysReg src, uint32_t actual_uses,
                      Addr producer_pc, uint64_t producer_ctrl) override
    {
        timed(StorageCall::OnConsumerRenamed, [&] {
            inner->onConsumerRenamed(src, actual_uses, producer_pc,
                                     producer_ctrl);
        });
    }

    storage::DestAlloc
    allocateDest(PhysReg preg, Addr pc, uint64_t ctrl) override
    {
        return timed(StorageCall::AllocateDest, [&] {
            return inner->allocateDest(preg, pc, ctrl);
        });
    }

    void
    onInitialValue(PhysReg preg) override
    {
        timed(StorageCall::Other,
              [&] { inner->onInitialValue(preg); });
    }

    void
    onArchReassigned(PhysReg prev) override
    {
        timed(StorageCall::Other,
              [&] { inner->onArchReassigned(prev); });
    }

    void
    onArchReassignCancelled(PhysReg prev) override
    {
        timed(StorageCall::Other,
              [&] { inner->onArchReassignCancelled(prev); });
    }

    Cycle
    issueReadGate(Cycle exec_start, Cycle producer_done) const override
    {
        return inner->issueReadGate(exec_start, producer_done);
    }

    bool
    hasIssueReadGate() const override
    {
        return inner->hasIssueReadGate();
    }

    void
    onBypassRead(PhysReg src, bool first_stage) override
    {
        timed(StorageCall::OnBypassRead,
              [&] { inner->onBypassRead(src, first_stage); });
    }

    storage::ReadResult
    readOperand(PhysReg src, Cycle now) override
    {
        return timed(StorageCall::ReadOperand,
                     [&] { return inner->readOperand(src, now); });
    }

    Cycle
    onOperandMiss(PhysReg src, Cycle exec_start) override
    {
        return timed(StorageCall::OnOperandMiss, [&] {
            return inner->onOperandMiss(src, exec_start);
        });
    }

    bool
    onFill(PhysReg preg, Cycle now) override
    {
        return timed(StorageCall::OnFill,
                     [&] { return inner->onFill(preg, now); });
    }

    void
    onConsumerDone(PhysReg src) override
    {
        timed(StorageCall::Other, [&] { inner->onConsumerDone(src); });
    }

    storage::WriteOutcome
    onValueProduced(PhysReg preg, Cycle now) override
    {
        return timed(StorageCall::OnValueProduced, [&] {
            return inner->onValueProduced(preg, now);
        });
    }

    void
    onInsertDecision(PhysReg preg, Cycle now) override
    {
        timed(StorageCall::OnInsertDecision,
              [&] { inner->onInsertDecision(preg, now); });
    }

    void
    onProducerRetired(PhysReg dest) override
    {
        timed(StorageCall::Other,
              [&] { inner->onProducerRetired(dest); });
    }

    void
    onValueFreed(PhysReg preg, Addr producer_pc, uint64_t producer_ctrl,
                 uint32_t actual_uses, Cycle now) override
    {
        timed(StorageCall::OnValueFreed, [&] {
            inner->onValueFreed(preg, producer_pc, producer_ctrl,
                                actual_uses, now);
        });
    }

    void
    onDestSquashed(PhysReg dest, Cycle now) override
    {
        timed(StorageCall::Other,
              [&] { inner->onDestSquashed(dest, now); });
    }

    bool needsRecovery() const override { return inner->needsRecovery(); }

    storage::RecoveryResult
    recoverMappings(const std::vector<PhysReg> &mapped,
                    Cycle now) override
    {
        return timed(StorageCall::Other, [&] {
            return inner->recoverMappings(mapped, now);
        });
    }

    void
    tick(Cycle now) override
    {
        timed(StorageCall::Tick, [&] { inner->tick(now); });
    }

    void
    sampleCycleStats() override
    {
        timed(StorageCall::Other, [&] { inner->sampleCycleStats(); });
    }

    std::vector<storage::CacheEntryView>
    cachedEntries() const override
    {
        return inner->cachedEntries();
    }

    unsigned cacheSets() const override { return inner->cacheSets(); }
    unsigned cacheAssoc() const override { return inner->cacheAssoc(); }

    bool
    corruptUseCounter(PhysReg preg, unsigned set, unsigned bit) override
    {
        return inner->corruptUseCounter(preg, set, bit);
    }

    storage::SupplierStats stats() const override { return inner->stats(); }

  private:
    template <typename F>
    std::invoke_result_t<F &>
    timed(StorageCall c, F &&f)
    {
        const unsigned i = static_cast<unsigned>(c);
        const bool sample =
            t.calls[i]++ % StorageTiming::sampleStride == 0;
        if (!sample)
            return f();
        const Clock::time_point t0 = Clock::now();
        if constexpr (std::is_void_v<std::invoke_result_t<F &>>) {
            f();
            record(i, t0);
        } else {
            auto r = f();
            record(i, t0);
            return r;
        }
    }

    void
    record(unsigned i, Clock::time_point t0)
    {
        t.sampledNs[i] += nsBetween(t0, Clock::now());
        ++t.sampled[i];
    }

    std::unique_ptr<storage::OperandSupplier> inner;
    StorageTiming &t;
};

} // namespace

const char *
storageCallName(StorageCall c)
{
    switch (c) {
      case StorageCall::ReadOperand: return "readOperand";
      case StorageCall::OnBypassRead: return "onBypassRead";
      case StorageCall::AllocateDest: return "allocateDest";
      case StorageCall::OnConsumerRenamed: return "onConsumerRenamed";
      case StorageCall::OnValueProduced: return "onValueProduced";
      case StorageCall::OnInsertDecision: return "onInsertDecision";
      case StorageCall::OnOperandMiss: return "onOperandMiss";
      case StorageCall::OnFill: return "onFill";
      case StorageCall::OnValueFreed: return "onValueFreed";
      case StorageCall::Tick: return "tick";
      case StorageCall::Other: return "other";
      case StorageCall::Count: break;
    }
    return "?";
}

int64_t
clockPairOverheadNs()
{
    // Median over blocks of the mean back-to-back interval: the part
    // of two clock reads that lands inside a sampled bracket.
    static const int64_t overhead = [] {
        constexpr int blocks = 15, perBlock = 2000;
        std::vector<int64_t> means;
        for (int b = 0; b < blocks; ++b) {
            int64_t sum = 0;
            for (int k = 0; k < perBlock; ++k) {
                const Clock::time_point t0 = Clock::now();
                sum += nsBetween(t0, Clock::now());
            }
            means.push_back(sum / perBlock);
        }
        std::nth_element(means.begin(), means.begin() + blocks / 2,
                         means.end());
        return means[blocks / 2];
    }();
    return overhead;
}

double
StorageTiming::busySeconds(StorageCall c) const
{
    const unsigned i = static_cast<unsigned>(c);
    if (sampled[i] == 0)
        return 0;
    const double perCallNs =
        std::max(0.0, double(sampledNs[i]) / double(sampled[i]) -
                          double(clockPairOverheadNs()));
    return perCallNs * double(calls[i]) * 1e-9;
}

uint64_t
StorageTiming::totalCalls() const
{
    uint64_t n = 0;
    for (const uint64_t c : calls)
        n += c;
    return n;
}

double
StorageTiming::totalBusySeconds() const
{
    double s = 0;
    for (unsigned i = 0; i < numStorageCalls; ++i)
        s += busySeconds(static_cast<StorageCall>(i));
    return s;
}

core::Processor::SupplierWrap
timedWrap(StorageTiming &timing)
{
    return [&timing](std::unique_ptr<storage::OperandSupplier> inner,
                     const sim::SimConfig &config,
                     stats::StatGroup &stat_group)
               -> std::unique_ptr<storage::OperandSupplier> {
        return std::make_unique<TimedSupplier>(std::move(inner), timing,
                                               config, stat_group);
    };
}

} // namespace ubrc::perfbench
