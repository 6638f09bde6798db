#include "core/stages/pipeline_state.hh"

#include "common/logging.hh"
#include "rename/factory.hh"

namespace vpr
{

PipelineState::PipelineState(TraceStream &stream, const CoreConfig &config)
    : cfg(config),
      renameMgr(makeRenamer(config.scheme, config.rename)),
      fetch(stream, config.fetch),
      rob(config.robSize),
      iq(config.iqSize),
      lsq(config.lsqSize),
      cache(config.cache),
      fus(config.fu),
      regPorts(config.regReadPorts, config.regWritePorts),
      cachePortSched(config.cachePorts)
{
    VPR_ASSERT(cfg.iqSize >= cfg.robSize,
               "unified IQ must hold every in-flight instruction "
               "(write-back squashes re-insert issued instructions)");

    // Root of the stats tree: the shared structures register here, in a
    // fixed order; the stages append their groups when Core constructs
    // them. Registration order is export-schema order.
    coreGroup.add(&cyclesStat);
    coreGroup.add(&squashedStat);
    statsTree.add(
        &coreGroup,
        [this] { cyclesStat.set(curCycle - statBaseCycle); },
        [this] {
            coreGroup.resetAll();
            statBaseCycle = curCycle;
        });
    rob.regStats(statsTree);
    iq.regStats(statsTree);
    lsq.regStats(statsTree);
    cache.regStats(statsTree);
    fetch.regStats(statsTree);
    renameMgr->regStats(statsTree);
}

void
PipelineState::beginCycle()
{
    ++curCycle;
    renameMgr->tick(curCycle);
    fus.beginCycle(curCycle);
    regPorts.beginCycle(curCycle);
    cachePortSched.pruneBefore(curCycle);
}

void
PipelineState::sampleStats()
{
    rob.sampleOccupancy();
    iq.sampleOccupancy();
    lsq.sampleOccupancy();
    renameMgr->sampleOccupancy();
}

void
PipelineState::resetStats()
{
    statsTree.reset();
    // The pressure trackers integrate over time, so their interval
    // reset needs the current cycle (in-flight allocations restart
    // from the interval boundary).
    renameMgr->pressure(RegClass::Int).reset(curCycle);
    renameMgr->pressure(RegClass::Float).reset(curCycle);
}

void
PipelineState::squashYoungerThan(InstSeqNum youngestKept)
{
    while (!rob.empty() && rob.tail().seq() > youngestKept) {
        DynInst &tail = rob.tail();
        if (tail.inIq())
            iq.remove(&tail);
        if (tail.isMem())
            lsq.squash(&tail);
        renameMgr->squashInst(tail, curCycle);
        tail.setPhase(InstPhase::Squashed);
        ++squashedStat;
        rob.squashTail();
    }
}

} // namespace vpr
