#include "core/fetch.hh"

#include <algorithm>

#include "common/logging.hh"
#include "memory/cache.hh"
#include "sim/params.hh"

namespace vpr
{

const char *
wrongPathModeName(WrongPathMode mode)
{
    return mode == WrongPathMode::Stall ? "stall" : "synthesize";
}

void
FetchConfig::visitParams(ParamVisitor &v)
{
    v.uintParam("fetch_width", fetchWidth,
                "instructions fetched per cycle");
    v.uintParam("buffer_capacity", bufferCapacity,
                "fetch-buffer entries between fetch and rename");
    v.uintParam("bht_entries", bhtEntries,
                "branch-history-table entries (2-bit counters)");
    v.uintParam("redirect_delay", redirectDelay,
                "cycles from branch resolve to redirected fetch");
    v.enumParam("wrong_path", wrongPath,
                {{wrongPathModeName(WrongPathMode::Stall),
                  WrongPathMode::Stall},
                 {wrongPathModeName(WrongPathMode::Synthesize),
                  WrongPathMode::Synthesize}},
                "fetch behaviour past a detected misprediction");
    v.uintParam("wrong_path_seed", wrongPathSeed,
                "base seed of the wrong-path synthesis RNG");
    v.boolParam("wrong_path_mem", wrongPathMem,
                "synthesized wrong-path instructions include loads and "
                "stores that really probe the cache and LSQ");
}

FetchUnit::FetchUnit(TraceStream &stream, const FetchConfig &config)
    : trace(stream), cfg(config), bht(config.bhtEntries),
      buffer(config.bufferCapacity == 0 ? 1 : config.bufferCapacity),
      wpRng(config.wrongPathSeed)
{
    VPR_ASSERT(cfg.fetchWidth >= 1, "fetch width must be >= 1");
    VPR_ASSERT(cfg.bufferCapacity >= cfg.fetchWidth,
               "fetch buffer smaller than fetch width");
    branchGroup.add(&bhtAccuracy);
}

StaticInst
FetchUnit::synthesizeWrongPath()
{
    // Wrong-path mixes are dominated by short integer ops; memory
    // operations stay out unless wrongPathMem is set, so speculative
    // pollution of the data cache is opt-in.
    StaticInst si;
    std::uint64_t pick = wpRng.below(100);
    auto randInt = [this] {
        return RegId::intReg(static_cast<std::uint16_t>(
            wpRng.below(kNumLogicalRegs)));
    };
    auto randFp = [this] {
        return RegId::fpReg(static_cast<std::uint16_t>(
            wpRng.below(kNumLogicalRegs)));
    };
    if (cfg.wrongPathMem) {
        // Wrong-path addresses come from stale or garbage registers:
        // model them as random lines in a dedicated region. Pollution
        // works through cache-index conflicts, so the base is
        // irrelevant; only the line spread matters.
        auto randAddr = [this] {
            return static_cast<Addr>(0x30000000ull +
                                     wpRng.below(1ull << 16) * 64);
        };
        if (pick < 18) {
            si = StaticInst::load(randInt(), randInt(), randAddr());
        } else if (pick < 26) {
            si = StaticInst::store(randInt(), randInt(), randAddr());
        } else if (pick < 66) {
            si = StaticInst::alu(randInt(), randInt(), randInt());
        } else if (pick < 90) {
            si = StaticInst::fpAdd(randFp(), randFp(), randFp());
        } else {
            si = StaticInst::nop();
        }
    } else if (pick < 60) {
        si = StaticInst::alu(randInt(), randInt(), randInt());
    } else if (pick < 85) {
        si = StaticInst::fpAdd(randFp(), randFp(), randFp());
    } else {
        si = StaticInst::nop();
    }
    si.pc = wpPc;
    wpPc += 4;
    return si;
}

void
FetchUnit::tick(Cycle now)
{
    if (paused || now < stallUntil)
        return;

    for (unsigned i = 0; i < cfg.fetchWidth; ++i) {
        if (buffer.full())
            break;

        if (waiting) {
            if (cfg.wrongPath == WrongPathMode::Stall)
                break;
            FetchedInst fi;
            fi.si = synthesizeWrongPath();
            fi.wrongPath = true;
            fi.fetchCycle = now;
            buffer.pushBack(fi);
            ++nWrongPath;
            continue;
        }

        if (exhausted)
            break;
        if (aheadPos == aheadLen) {
            aheadLen = trace.nextBatch(ahead, kReadAhead);
            aheadPos = 0;
            if (aheadLen == 0) {
                exhausted = true;
                break;
            }
        }
        const TraceRecord &rec = ahead[aheadPos++];

        FetchedInst fi;
        fi.si = rec;
        fi.fetchCycle = now;
        ++nReal;

        if (rec.isBranch()) {
            ++nBranches;
            bool correct = bht.predictAndUpdate(rec.pc, rec.taken);
            if (!correct) {
                ++nMispredicts;
                fi.mispredictedBranch = true;
                waiting = true;
                buffer.pushBack(fi);
                // The group ends; wrong-path fetch starts next cycle.
                break;
            }
            buffer.pushBack(fi);
            if (rec.taken) {
                // Predicted-taken branch ends the fetch group.
                break;
            }
            continue;
        }
        buffer.pushBack(fi);
    }
}

FetchedInst
FetchUnit::pop()
{
    VPR_ASSERT(!buffer.empty(), "pop from empty fetch buffer");
    FetchedInst fi = buffer.front();
    buffer.popFront();
    return fi;
}

void
FetchUnit::warmOne(const TraceRecord &rec, NonBlockingCache &cache,
                   Cycle now)
{
    if (rec.isBranch()) {
        // Train the predictor; ignore the prediction. Functional
        // warming has no pipeline to redirect, and the whole-run
        // branch counters stay detailed-only.
        bht.predictAndUpdate(rec.pc, rec.taken);
    } else if (rec.isMem()) {
        cache.access(rec.effAddr, rec.isStore(), now);
    }
}

std::size_t
FetchUnit::warmFunctional(std::size_t n, NonBlockingCache &cache,
                          Cycle &now)
{
    VPR_ASSERT(buffer.empty() && !waiting,
               "functional fetch with detailed fetch state in flight");
    if (exhausted)
        return 0;
    std::size_t done = 0;
    // The records detailed fetch read ahead come first.
    for (; done < n && aheadPos < aheadLen; ++done)
        warmOne(ahead[aheadPos++], cache, ++now);
    TraceRecord batch[256];
    while (done < n) {
        const std::size_t want =
            std::min(n - done, sizeof(batch) / sizeof(batch[0]));
        const std::size_t got = trace.nextBatch(batch, want);
        for (std::size_t i = 0; i < got; ++i)
            warmOne(batch[i], cache, ++now);
        done += got;
        if (got < want) {
            exhausted = true;
            break;
        }
    }
    return done;
}

std::size_t
FetchUnit::skipFunctional(std::size_t n)
{
    VPR_ASSERT(buffer.empty() && !waiting,
               "functional skip with detailed fetch state in flight");
    if (exhausted)
        return 0;
    // The records detailed fetch read ahead come first.
    const std::size_t buffered = std::min(n, aheadLen - aheadPos);
    aheadPos += buffered;
    const std::size_t done = buffered + trace.skip(n - buffered);
    if (done < n)
        exhausted = true;
    return done;
}

void
FetchUnit::resolveBranch(Cycle now)
{
    VPR_ASSERT(waiting, "resolveBranch with no outstanding mispredict");
    waiting = false;
    stallUntil = now + cfg.redirectDelay;
    // Everything left in the buffer is wrong-path by construction.
    for (std::size_t i = 0; i < buffer.size(); ++i)
        VPR_ASSERT(buffer.at(i).wrongPath,
                   "real instruction behind a mispredict");
    buffer.clear();
}

} // namespace vpr
