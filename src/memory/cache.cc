#include "memory/cache.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

void
CacheConfig::visitParams(ParamVisitor &v)
{
    v.uintParam("size_bytes", sizeBytes, "L1 data-cache capacity");
    v.uintParam("line_size", lineSize, "line size in bytes");
    v.uintParam("assoc", assoc, "associativity (1 = direct mapped)");
    v.uintParam("hit_latency", hitLatency, "hit latency in cycles");
    v.uintParam("miss_penalty", missPenalty,
                "total latency of a fill in cycles");
    v.uintParam("num_mshrs", numMshrs,
                "outstanding misses to distinct lines (lockup-free)");
    v.uintParam("bus_occupancy", busOccupancy,
                "cycles a line fill holds the L1-L2 bus");
}

NonBlockingCache::NonBlockingCache(const CacheConfig &config)
    : cfg(config), mshrFile(config.numMshrs), theBus(config.busOccupancy)
{
    VPR_ASSERT(isPowerOf2(cfg.lineSize), "line size must be a power of 2");
    VPR_ASSERT(cfg.assoc >= 1, "associativity must be >= 1");
    VPR_ASSERT(cfg.sizeBytes % (cfg.lineSize * cfg.assoc) == 0,
               "cache size not divisible by line size * assoc");
    numSets = cfg.sizeBytes / (cfg.lineSize * cfg.assoc);
    VPR_ASSERT(isPowerOf2(numSets), "number of sets must be a power of 2");
    lineMask = cfg.lineSize - 1;
    lines.assign(numSets * cfg.assoc, Line{});

    group.add(&accessesStat);
    group.add(&missesStat);
    group.add(&missRateStat);
}

std::size_t
NonBlockingCache::setIndex(Addr line) const
{
    return (line / cfg.lineSize) & (numSets - 1);
}

int
NonBlockingCache::findWay(std::size_t set, Addr line) const
{
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        const Line &l = lines[set * cfg.assoc + w];
        if (l.valid && l.tag == line)
            return static_cast<int>(w);
    }
    return -1;
}

std::size_t
NonBlockingCache::victimWay(std::size_t set) const
{
    std::size_t victim = 0;
    Cycle best = kNoCycle;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        const Line &l = lines[set * cfg.assoc + w];
        if (!l.valid)
            return w;
        if (l.lastUse < best) {
            best = l.lastUse;
            victim = w;
        }
    }
    return victim;
}

void
NonBlockingCache::retireFills(Cycle now)
{
    mshrFile.retireUpTo(now, [this](const Mshr &m) {
        std::size_t set = setIndex(m.lineAddr);
        std::size_t way = victimWay(set);
        Line &l = lines[set * cfg.assoc + way];
        if (l.valid && l.dirty) {
            // Dirty victim: write it back over the bus. The transfer is
            // queued from the fill time; it does not block the fill.
            theBus.acquire(m.fillCycle);
            ++nWritebacks;
        }
        l.valid = true;
        l.dirty = m.dirty;
        l.tag = m.lineAddr;
        l.lastUse = m.fillCycle;
    });
}

CacheAccessResult
NonBlockingCache::access(Addr addr, bool isWrite, Cycle now)
{
    retireFills(now);
    ++nAccesses;

    Addr line = lineAddr(addr);
    std::size_t set = setIndex(line);
    int way = findWay(set, line);

    if (way >= 0) {
        Line &l = lines[set * cfg.assoc + way];
        l.lastUse = now;
        if (isWrite)
            l.dirty = true;
        ++nHits;
        return {CacheOutcome::Hit, now + cfg.hitLatency};
    }

    if (Mshr *m = mshrFile.find(line)) {
        // Line already in flight: merge. Data is usable once the fill
        // lands (plus the array access), never earlier than a hit.
        ++m->targets;
        if (isWrite)
            m->dirty = true;
        ++nMerged;
        Cycle ready = m->fillCycle > now ? m->fillCycle : now;
        return {CacheOutcome::MergedMiss, ready + cfg.hitLatency};
    }

    if (mshrFile.full()) {
        ++nBlocked;
        --nAccesses;  // a blocked access will be retried; count it once
        return {CacheOutcome::Blocked, kNoCycle};
    }

    // New outstanding miss. The fill takes missPenalty cycles end to
    // end; the final busOccupancy cycles need the L1-L2 bus, so bus
    // contention can push the fill later.
    Cycle idealStart = now + cfg.missPenalty - cfg.busOccupancy;
    Cycle start = theBus.acquire(idealStart);
    Cycle fill = start + cfg.busOccupancy;
    Mshr &m = mshrFile.allocate(line, fill);
    m.dirty = isWrite;
    ++nMisses;
    return {CacheOutcome::Miss, fill + cfg.hitLatency};
}

bool
NonBlockingCache::wouldBlock(Addr addr, Cycle now)
{
    retireFills(now);
    Addr line = lineAddr(addr);
    if (findWay(setIndex(line), line) >= 0)
        return false;
    if (mshrFile.find(line))
        return false;
    return mshrFile.full();
}

bool
NonBlockingCache::isPresent(Addr addr, Cycle now)
{
    retireFills(now);
    Addr line = lineAddr(addr);
    return findWay(setIndex(line), line) >= 0;
}

void
NonBlockingCache::reset()
{
    lines.assign(lines.size(), Line{});
    mshrFile.clear();
    theBus.reset();
    nAccesses = nHits = nMisses = nMerged = nBlocked = nWritebacks = 0;
    baseAccesses = baseMisses = 0;
}

void
NonBlockingCache::regStats(stats::StatRegistry &r)
{
    r.add(
        &group,
        [this] {
            accessesStat.set(nAccesses - baseAccesses);
            missesStat.set(nMisses + nMerged - baseMisses);
            missRateStat.set(missRate());
        },
        [this] {
            group.resetAll();
            baseAccesses = nAccesses;
            baseMisses = nMisses + nMerged;
        });
}

} // namespace vpr
