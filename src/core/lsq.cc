#include "core/lsq.hh"

#include "common/logging.hh"

namespace vpr
{

void
Lsq::insert(DynInst *inst)
{
    VPR_ASSERT(!full(), "insert into full LSQ");
    VPR_ASSERT(inst->isMem(), "non-memory instruction in LSQ");
    VPR_ASSERT(youngest < inst->seq(), "LSQ insert out of program order");
    youngest = inst->seq();
    ++resident;
    if (inst->isStore())
        stores.pushBack(inst->ref());
}

void
Lsq::remove(DynInst *inst)
{
    VPR_ASSERT(resident != 0, "LSQ remove from an empty queue");
    --resident;
    if (inst->isStore()) {
        VPR_ASSERT(!stores.empty() && stores.front().seq == inst->seq(),
                   "committed store sn:", inst->seq(),
                   " is not the oldest resident store");
        stores.popFront();
    }
}

void
Lsq::squash(DynInst *inst)
{
    VPR_ASSERT(resident != 0, "LSQ squash from an empty queue");
    --resident;
    if (inst->isStore()) {
        VPR_ASSERT(!stores.empty() && stores.back().seq == inst->seq(),
                   "squashed store sn:", inst->seq(),
                   " is not the youngest resident store");
        stores.popBack();
    }
}

LoadHold
Lsq::disambiguate(const DynInst *load, Cycle now) const
{
    VPR_ASSERT(load->isLoad(), "disambiguating a non-load");
    const Addr lo = load->si.effAddr, hi = lo + load->si.memSize;
    for (std::size_t i = stores.size(); i-- > 0;) {
        const ReadyRef &ref = stores.at(i);
        if (ref.seq > load->seq())
            continue;  // younger than the load
        const DynInst *st = ref.inst;
        if (!st->addrReady || st->addrReadyCycle > now)
            return LoadHold::UnknownAddress;
        const Addr stLo = st->si.effAddr, stHi = stLo + st->si.memSize;
        if (stHi <= lo || hi <= stLo)
            continue;  // disjoint
        return stLo <= lo && hi <= stHi ? LoadHold::Forward
                                        : LoadHold::PartialOverlap;
    }
    return LoadHold::Ready;
}

void
Lsq::recordHold(LoadHold h)
{
    switch (h) {
      case LoadHold::Forward:
        ++nForwards;
        break;
      case LoadHold::UnknownAddress:
        ++nUnknownHolds;
        break;
      case LoadHold::PartialOverlap:
        ++nPartialHolds;
        break;
      default:
        break;
    }
}

} // namespace vpr
