/**
 * @file
 * Register-file and cache port arbitration.
 *
 * The paper's register files have 16 read and 8 write ports each, and
 * the cache has 3 ports. Reads are consumed at issue within one cycle;
 * writes are scheduled at completion time (completion slips to the next
 * cycle with a free port); cache ports are claimed for the cycle of the
 * access. The arbitration logic lives in regfile_ports.cc so the many
 * stage translation units that include this header stay light.
 */

#ifndef VPR_CORE_REGFILE_PORTS_HH
#define VPR_CORE_REGFILE_PORTS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/reg.hh"

namespace vpr
{

/**
 * Per-cycle counting arbiter used for write and cache ports.
 *
 * Claims live in a cycle-tagged ring: slot cycle % capacity (a mask:
 * the capacity is a power of two) holds the count for that cycle, with the owning cycle stored alongside so a
 * slot left over from a lapped (long-past) cycle reads as free. The
 * arbiter allocates only when the claim horizon outgrows the ring —
 * the steady-state claim/prune cycle of the pipeline loop touches no
 * allocator at all, where the previous std::map spent one node per
 * (cycle, class) claimed. pruneBefore is a watermark store: slots are
 * invalidated lazily on their next use.
 */
class PortSchedule
{
  public:
    explicit PortSchedule(unsigned portsPerCycle)
        : ports(portsPerCycle), counts(kInitialSlots, 0),
          tags(kInitialSlots, kNoCycle)
    {
        static_assert((kInitialSlots & (kInitialSlots - 1)) == 0,
                      "the ring is indexed by mask");
    }

    /** Claim a port at exactly @p cycle; false if none left. */
    bool
    tryClaim(Cycle cycle)
    {
        unsigned &used = slotFor(cycle);
        if (used >= ports)
            return false;
        ++used;
        return true;
    }

    /** First cycle >= @p earliest with a free port; claims it. */
    Cycle
    claimFirstFree(Cycle earliest)
    {
        Cycle c = earliest;
        while (!tryClaim(c))
            ++c;
        return c;
    }

    /** Drop bookkeeping for cycles before @p now. */
    void pruneBefore(Cycle now) { base = now > base ? now : base; }

    unsigned portsPerCycle() const { return ports; }

    /** Ports already claimed at @p cycle (tests). */
    unsigned used(Cycle cycle) const;

  private:
    /** A write scheduled past the miss penalty is rare; 1024 slots
     *  cover any realistic claim horizon without ever growing. */
    static constexpr std::size_t kInitialSlots = 1024;

    /** Ring slot of @p cycle. */
    std::size_t
    slotIndex(Cycle cycle) const
    {
        return static_cast<std::size_t>(cycle) & (counts.size() - 1);
    }

    unsigned &slotFor(Cycle cycle);
    void grow(Cycle needed);

    unsigned ports;
    /** Claims at cycle c live in slot slotIndex(c)... @{ */
    std::vector<unsigned> counts;
    /** ...owned by cycle tags[slot]; kNoCycle or a pruned tag = free. */
    std::vector<Cycle> tags;
    /** @} */
    /** Claims below this watermark are dead (pruneBefore). */
    Cycle base = 0;
};

/** Read/write port tracking for both register files. */
class RegFilePorts
{
  public:
    RegFilePorts(unsigned readPorts, unsigned writePorts)
        : nReadPorts(readPorts),
          writes{PortSchedule(writePorts), PortSchedule(writePorts)}
    {}

    /** Start a cycle: read ports replenish. */
    void beginCycle(Cycle now);

    /** Could @p nInt integer and @p nFp FP reads be claimed now? */
    bool canClaimReads(unsigned nInt, unsigned nFp) const;

    /** Claim read ports for one issuing instruction (both classes). */
    bool tryClaimReads(unsigned nInt, unsigned nFp);

    /** Undo a claim made this cycle (issue aborted later in the chain). */
    void unclaimReads(unsigned nInt, unsigned nFp);

    /** Schedule a result write at the first free cycle >= earliest. */
    Cycle scheduleWrite(RegClass cls, Cycle earliest);

    unsigned readPortsPerCycle() const { return nReadPorts; }
    unsigned
    writePortsPerCycle() const
    {
        return writes[0].portsPerCycle();
    }

  private:
    unsigned nReadPorts;
    unsigned readsUsed[kNumRegClasses] = {0, 0};
    PortSchedule writes[kNumRegClasses];
};

} // namespace vpr

#endif // VPR_CORE_REGFILE_PORTS_HH
