#include "core/regfile_ports.hh"

#include "common/logging.hh"

namespace vpr
{

unsigned &
PortSchedule::slotFor(Cycle cycle)
{
    // Claims never land behind the prune watermark: every caller
    // prunes at the top of the cycle and claims at now or later. The
    // growth logic relies on all live tags sharing the [base, max]
    // window, so enforce the contract here.
    VPR_ASSERT(cycle >= base, "port claim at ", cycle,
               " behind prune watermark ", base);
    std::size_t s = slotIndex(cycle);
    if (tags[s] == cycle)
        return counts[s];
    if (tags[s] != kNoCycle && tags[s] >= base) {
        // The slot's owner is a *different* live cycle: the ring is
        // lapped by the claim span. Grow until the whole live window
        // fits, giving every live cycle a distinct slot.
        grow(cycle);
        s = slotIndex(cycle);
    }
    // Free, lapped-stale, or pruned slot: take it over for this cycle.
    tags[s] = cycle;
    counts[s] = 0;
    return counts[s];
}

void
PortSchedule::grow(Cycle needed)
{
    // Live tags all sit in [base, maxLive]; size the new ring past
    // that whole span (plus the incoming cycle) so distinct live
    // cycles can never share a slot — values within a window shorter
    // than the capacity have distinct residues. Doubling keeps the
    // size a power of two, which slotIndex's mask relies on.
    Cycle maxLive = needed;
    for (Cycle t : tags)
        if (t != kNoCycle && t >= base && t > maxLive)
            maxLive = t;
    std::size_t size = counts.size();
    while (size <= maxLive - base)
        size *= 2;
    std::vector<unsigned> newCounts(size, 0);
    std::vector<Cycle> newTags(size, kNoCycle);
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (tags[i] == kNoCycle || tags[i] < base)
            continue;
        const std::size_t s = static_cast<std::size_t>(tags[i]) & (size - 1);
        newTags[s] = tags[i];
        newCounts[s] = counts[i];
    }
    counts.swap(newCounts);
    tags.swap(newTags);
    VPR_ASSERT((counts.size() & (counts.size() - 1)) == 0,
               "port ring size ", counts.size(), " is not a power of two");
}

unsigned
PortSchedule::used(Cycle cycle) const
{
    const std::size_t s = slotIndex(cycle);
    return tags[s] == cycle && cycle >= base ? counts[s] : 0;
}

void
RegFilePorts::beginCycle(Cycle now)
{
    readsUsed[0] = readsUsed[1] = 0;
    writes[0].pruneBefore(now);
    writes[1].pruneBefore(now);
}

bool
RegFilePorts::canClaimReads(unsigned nInt, unsigned nFp) const
{
    return readsUsed[classIdx(RegClass::Int)] + nInt <= nReadPorts &&
           readsUsed[classIdx(RegClass::Float)] + nFp <= nReadPorts;
}

bool
RegFilePorts::tryClaimReads(unsigned nInt, unsigned nFp)
{
    if (!canClaimReads(nInt, nFp))
        return false;
    readsUsed[classIdx(RegClass::Int)] += nInt;
    readsUsed[classIdx(RegClass::Float)] += nFp;
    return true;
}

void
RegFilePorts::unclaimReads(unsigned nInt, unsigned nFp)
{
    readsUsed[classIdx(RegClass::Int)] -= nInt;
    readsUsed[classIdx(RegClass::Float)] -= nFp;
}

Cycle
RegFilePorts::scheduleWrite(RegClass cls, Cycle earliest)
{
    return writes[classIdx(cls)].claimFirstFree(earliest);
}

} // namespace vpr
