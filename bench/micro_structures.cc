/**
 * @file
 * google-benchmark micro-benchmarks of the renaming structures and the
 * other hot simulator paths. These are engineering benchmarks (how fast
 * is the simulator), not paper experiments; they guard against
 * performance regressions in the structures the cycle loop hammers.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "branch/bht.hh"
#include "common/random.hh"
#include "core/core.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/rob.hh"
#include "core/stages/latches.hh"
#include "memory/cache.hh"
#include "rename/conventional.hh"
#include "rename/virtual_physical.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"
#include "trace/kernels/kernels.hh"

#include "../tests/support/alloc_count.hh"

namespace
{

using namespace vpr;

RenameConfig
renameCfg()
{
    RenameConfig rc;
    rc.numPhysRegs = 64;
    rc.numVPRegs = 160;
    rc.nrrInt = 32;
    rc.nrrFp = 32;
    return rc;
}

DynInst
makeAlu(InstSeqNum seq)
{
    DynInst d;
    d.si = StaticInst::alu(RegId::intReg(seq % 30),
                           RegId::intReg((seq + 1) % 32),
                           RegId::intReg((seq + 2) % 32));
    d.setSeq(seq);
    return d;
}

/** Rename+complete+commit round trip, conventional scheme. */
void
BM_ConventionalRenameRoundTrip(benchmark::State &state)
{
    ConventionalRename rn(renameCfg());
    InstSeqNum seq = 0;
    Cycle now = 0;
    std::vector<DynInst> ring(16);
    std::size_t head = 0, tail = 0, live = 0;
    for (auto _ : state) {
        ++now;
        rn.tick(now);
        if (live < 8) {
            DynInst &d = ring[tail];
            d = makeAlu(++seq);
            rn.renameInst(d, now);
            rn.complete(d, now);
            tail = (tail + 1) % ring.size();
            ++live;
        }
        if (live > 4) {
            rn.commitInst(ring[head], now);
            head = (head + 1) % ring.size();
            --live;
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(seq));
}
BENCHMARK(BM_ConventionalRenameRoundTrip);

/** Rename+complete+commit round trip, virtual-physical write-back. */
void
BM_VirtualPhysicalRenameRoundTrip(benchmark::State &state)
{
    VirtualPhysicalRename rn(renameCfg(), false);
    InstSeqNum seq = 0;
    Cycle now = 0;
    std::vector<DynInst> ring(16);
    std::size_t head = 0, tail = 0, live = 0;
    for (auto _ : state) {
        ++now;
        rn.tick(now);
        if (live < 8) {
            DynInst &d = ring[tail];
            d = makeAlu(++seq);
            rn.renameInst(d, now);
            rn.complete(d, now);
            tail = (tail + 1) % ring.size();
            ++live;
        }
        if (live > 4) {
            rn.commitInst(ring[head], now);
            head = (head + 1) % ring.size();
            --live;
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(seq));
}
BENCHMARK(BM_VirtualPhysicalRenameRoundTrip);

/** IQ broadcast wakeup over a full 128-entry queue: each broadcast
 *  wakes the two entries waiting on its tag, which are then
 *  re-subscribed so every iteration times a real wakeup. */
void
BM_IqWakeup(benchmark::State &state)
{
    InstQueue iq(128);
    std::vector<DynInst> insts(128);
    for (std::size_t i = 0; i < insts.size(); ++i) {
        insts[i] = makeAlu(i + 1);
        insts[i].src[0].valid = true;
        insts[i].src[0].cls = RegClass::Int;
        insts[i].src[0].tag = static_cast<std::uint16_t>(i % 64);
        iq.insert(&insts[i]);
    }
    std::vector<ReadyRef> published;
    std::uint64_t woken = 0;
    std::uint16_t tag = 0;
    for (auto _ : state) {
        const unsigned n = iq.wakeup(RegClass::Int, tag, tag);
        benchmark::DoNotOptimize(n);
        woken += n;
        // Rearm: a woken operand has left its tag's wait list, so the
        // entry goes back through insert() to wait on the tag again.
        for (std::size_t i = tag; i < insts.size(); i += 64) {
            iq.remove(&insts[i]);
            insts[i].src[0].ready = false;
            iq.insert(&insts[i]);
        }
        iq.drainReadyEvents(published);
        published.clear();
        tag = (tag + 1) % 64;
    }
    state.counters["woken_per_broadcast"] =
        static_cast<double>(woken) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_IqWakeup);

/** Issue-path IQ maintenance: remove a mid-queue entry (clearing its
 *  residency flags) and re-insert it, then drain the ready list the
 *  re-insert published to, as the issue stage does every cycle. */
void
BM_IqRemoveReinsert(benchmark::State &state)
{
    InstQueue iq(128);
    std::vector<DynInst> insts(128);
    for (std::size_t i = 0; i < insts.size(); ++i) {
        insts[i] = makeAlu(i + 1);
        iq.insert(&insts[i]);
    }
    std::vector<ReadyRef> ready;
    ready.reserve(insts.size());
    iq.drainReadyEvents(ready);
    for (auto _ : state) {
        DynInst *inst = &insts[37];
        iq.remove(inst);
        benchmark::DoNotOptimize(iq.size());
        iq.insert(inst);
        ready.clear();
        iq.drainReadyEvents(ready);
    }
}
BENCHMARK(BM_IqRemoveReinsert);

/** LSQ fixture: 96 in-flight memory ops, a third of them stores with
 *  known addresses, plus one ready load checked against them. */
class LsqDisambigFixture
{
  public:
    LsqDisambigFixture() : lsq(128)
    {
        insts.reserve(97);
        for (InstSeqNum sn = 1; sn <= 96; ++sn) {
            Addr addr = 0x1000 + (sn * 24) % 1024;
            DynInst d;
            if (sn % 3 == 0) {
                d.si = StaticInst::store(RegId::intReg(3),
                                         RegId::intReg(2), addr);
                d.addrReady = true;
                d.addrReadyCycle = sn;
            } else {
                d.si = StaticInst::load(RegId::intReg(1),
                                        RegId::intReg(2), addr);
            }
            d.setSeq(sn);
            insts.push_back(d);
            lsq.insert(&insts.back());
        }
        DynInst probe;
        probe.si = StaticInst::load(RegId::intReg(1), RegId::intReg(2),
                                    0x4000);  // no conflict: full walk
        probe.setSeq(97);
        insts.push_back(probe);
        lsq.insert(&insts.back());
    }

    LoadHold check() const { return lsq.disambiguate(&insts.back(), 200); }

  private:
    Lsq lsq;
    std::vector<DynInst> insts;
};

/** Disambiguation over a full queue: the load scans all 32 stores,
 *  the worst case (the paper grids' loads visit about seven). */
void
BM_LsqDisambig(benchmark::State &state)
{
    LsqDisambigFixture f;
    for (auto _ : state)
        benchmark::DoNotOptimize(f.check());
}
BENCHMARK(BM_LsqDisambig);

/** Completion-queue churn: the issue→complete latch's per-cycle
 *  pattern — a burst of schedules at mixed FU/cache latencies, then a
 *  drain of everything due this cycle, through the cycle-indexed
 *  calendar ring (O(1) append/drain). */
void
BM_CompletionQueueCalendar(benchmark::State &state)
{
    std::vector<DynInst> insts(64);
    for (std::size_t i = 0; i < insts.size(); ++i)
        insts[i] = makeAlu(i + 1);
    CompletionQueue cq(128);
    static const Cycle lat[8] = {1, 1, 1, 2, 2, 4, 12, 52};
    Cycle now = 0;
    InstSeqNum seq = 0;
    for (auto _ : state) {
        ++now;
        for (unsigned i = 0; i < 8; ++i) {
            DynInst *inst = &insts[seq % insts.size()];
            cq.schedule(now + lat[i], ++seq, inst);
        }
        while (cq.hasDue(now))
            benchmark::DoNotOptimize(cq.popDue());
    }
    state.SetItemsProcessed(static_cast<int64_t>(seq));
}
BENCHMARK(BM_CompletionQueueCalendar);

/** The commit stage's head walk: check the head's phase, retire a
 *  commit-width burst, refill the freed entries in place. */
void
BM_RobCommitWalk(benchmark::State &state)
{
    Rob rob(128);
    InstSeqNum seq = 0;
    auto fill = [&](DynInst *d) {
        d->si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                                RegId::intReg(3));
        d->setSeq(++seq);
        d->setPhase(InstPhase::Completed);
    };
    while (!rob.full())
        fill(rob.allocate());
    for (auto _ : state) {
        unsigned committed = 0;
        while (committed < 8 && !rob.empty() &&
               rob.head().phase() == InstPhase::Completed) {
            rob.commitHead();
            ++committed;
        }
        while (!rob.full())
            fill(rob.allocate());
        benchmark::DoNotOptimize(committed);
    }
    state.SetItemsProcessed(static_cast<int64_t>(seq));
}
BENCHMARK(BM_RobCommitWalk);

/** Non-blocking cache: streaming accesses (25% miss). */
void
BM_CacheStream(benchmark::State &state)
{
    NonBlockingCache cache;
    Cycle now = 0;
    Addr addr = 0x1000000;
    for (auto _ : state) {
        now += 2;
        addr += 8;
        benchmark::DoNotOptimize(cache.access(addr, false, now));
    }
}
BENCHMARK(BM_CacheStream);

/** BHT predict+update. */
void
BM_BhtPredict(benchmark::State &state)
{
    BhtPredictor bht(2048);
    Random rng(7);
    Addr pc = 0x1000;
    for (auto _ : state) {
        pc += 4;
        benchmark::DoNotOptimize(
            bht.predictAndUpdate(pc, rng.chancePermille(700)));
    }
}
BENCHMARK(BM_BhtPredict);

/** End-to-end simulator throughput on one kernel. */
void
simulatorEndToEnd(benchmark::State &state, const char *kernel)
{
    for (auto _ : state) {
        SimConfig config = paperConfig();
        config.skipInsts = 0;
        config.measureInsts = 20000;
        config.core.fetch.wrongPath = WrongPathMode::Stall;
        Simulator sim(kernel, config);
        benchmark::DoNotOptimize(sim.run().ipc());
    }
}

void
BM_SimulatorEndToEnd(benchmark::State &state)
{
    simulatorEndToEnd(state, "swim");
}
BENCHMARK(BM_SimulatorEndToEnd)->Unit(benchmark::kMillisecond);

/** The same on a pointer-chasing integer kernel (more loads held on
 *  store addresses, so the LSQ path weighs more). */
void
BM_SimulatorEndToEndCompress(benchmark::State &state)
{
    simulatorEndToEnd(state, "compress");
}
BENCHMARK(BM_SimulatorEndToEndCompress)->Unit(benchmark::kMillisecond);

/** SMARTS-style sampled run over the same instruction budget as the
 *  end-to-end rows (measure 20000, default sampling geometry): the
 *  BM_SimulatorSampled / BM_SimulatorEndToEnd ratio is the sampling
 *  speedup the trajectory tracks. */
void
simulatorSampled(benchmark::State &state, const char *kernel)
{
    for (auto _ : state) {
        SimConfig config = paperConfig();
        config.skipInsts = 0;
        config.measureInsts = 20000;
        config.core.fetch.wrongPath = WrongPathMode::Stall;
        config.sampling.enable = true;
        Simulator sim(kernel, config);
        benchmark::DoNotOptimize(sim.run().ipc());
    }
}

void
BM_SimulatorSampled(benchmark::State &state)
{
    simulatorSampled(state, "swim");
}
BENCHMARK(BM_SimulatorSampled)->Unit(benchmark::kMillisecond);

void
BM_SimulatorSampledCompress(benchmark::State &state)
{
    simulatorSampled(state, "compress");
}
BENCHMARK(BM_SimulatorSampledCompress)->Unit(benchmark::kMillisecond);

/** One paper-style grid cell end to end: a 100 k instruction detailed
 *  warm-up and a 20 k measured region of swim on a freshly built
 *  simulator. */
void
BM_SimulatorColdStart(benchmark::State &state)
{
    SimConfig config = paperConfig();
    config.skipInsts = 100000;
    config.measureInsts = 20000;
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    for (auto _ : state) {
        Simulator sim("swim", config);
        benchmark::DoNotOptimize(sim.run().ipc());
    }
}
BENCHMARK(BM_SimulatorColdStart)->Unit(benchmark::kMillisecond);

/** Fixed per-cell overhead: construct + run + collect of one tiny
 *  sampled grid cell through the parallel engine, the unit of work a
 *  sweep pays per cell beyond the measured instructions. Every cell
 *  builds a fresh simulator, so this is what each paper cell pays. The
 *  sampled region is deliberately small so construction, stats
 *  registration and metric collection dominate — the constant term
 *  this row tracks. */
void
BM_GridCellOverhead(benchmark::State &state)
{
    SimConfig config = paperConfig();
    config.skipInsts = 0;
    config.measureInsts = 4000;
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    config.sampling.enable = true;
    config.sampling.periodInsts = 2000;
    // One warm-up cell fills what a process pays once (interned
    // symbols, the stat-name memo, verified schemas), as a sweep's
    // first cell does; every measured iteration is a fresh cell.
    {
        std::vector<GridCell> cells{{"swim", config}};
        runGrid(cells, 1);
    }
    std::uint64_t allocs = 0;
    std::uint64_t iters = 0;
    for (auto _ : state) {
        std::vector<GridCell> cells{{"swim", config}};
        testsupport::AllocGuard g;
        benchmark::DoNotOptimize(runGrid(cells, 1)[0].ipc());
        allocs += g.count();
        ++iters;
    }
    // Heap traffic per fresh cell (construction, run and collection;
    // excludes the cell vector built outside the guard). Tracked by the
    // perf trajectory next to the time — a construction-path
    // regression shows up here before it is big enough to move wall
    // time. HotLoopAlloc.FreshGridCellAllocationCountIsPinned pins the
    // same count.
    state.counters["allocs_per_cell"] =
        iters ? static_cast<double>(allocs) / static_cast<double>(iters)
              : 0.0;
}
BENCHMARK(BM_GridCellOverhead);

/** One full stats-tree walk into an existing MetricsRecord — the
 *  per-interval collection cost of a sampled run. Steady state (every
 *  visit after the first revisits the same record in the same order)
 *  must not construct strings or allocate. */
void
BM_CollectMetrics(benchmark::State &state)
{
    SimConfig config = paperConfig();
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    auto stream = makeBenchmarkStream("swim");
    Core core(*stream, config.core);
    core.runUntilCommitted(2000);
    MetricsRecord rec;
    core.visitStats(rec);  // first walk builds the record (warm-up)
    core.visitStats(rec);
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        testsupport::AllocGuard g;
        core.visitStats(rec);
        allocs += g.count();
        benchmark::DoNotOptimize(rec.size());
    }
    // The interned-symbol contract, pinned in the row itself: a warm
    // walk revisits the same record in the same order and must never
    // construct a string or touch the heap.
    state.counters["allocs_per_walk"] = static_cast<double>(allocs);
    if (allocs != 0)
        state.SkipWithError("warm metrics walk allocated");
}
BENCHMARK(BM_CollectMetrics);

/** The BM_GridCellOverhead cell, sampled and tiny. */
SimConfig
tinySampledCell()
{
    SimConfig config = paperConfig();
    config.skipInsts = 0;
    config.measureInsts = 4000;
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    config.sampling.enable = true;
    config.sampling.periodInsts = 2000;
    return config;
}

/** One result-cache hit of a real ~800-metric record: read, verify and
 *  decode its entry. The first hit memoises the schema block, as a
 *  sweep's first hit does, so every measured hit costs the file read,
 *  one checksum over the ~5 KB payload and the values. */
void
BM_ResultCacheHit(benchmark::State &state)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "vpr_bm_result_cache").string();
    fs::remove_all(dir);
    const GridCell cell{"swim", tinySampledCell()};
    runGrid({cell}, 1, dir);  // simulate and store
    SimResults out;
    if (!loadCachedResult(dir, cell, out))
        state.SkipWithError("the stored entry did not load");
    std::uint64_t allocs = 0;
    std::uint64_t iters = 0;
    for (auto _ : state) {
        testsupport::AllocGuard g;
        benchmark::DoNotOptimize(loadCachedResult(dir, cell, out));
        allocs += g.count();
        ++iters;
    }
    // HotLoopAlloc.CachedHitAllocationCountIsPinned pins the same count.
    state.counters["allocs_per_hit"] =
        iters ? static_cast<double>(allocs) / static_cast<double>(iters)
              : 0.0;
    fs::remove_all(dir);
}
BENCHMARK(BM_ResultCacheHit);

/** CSV export of a 16-cell sampled grid (four register-file sizes ×
 *  four schemes, a typical vpr_simd sweep reply); items are cells. */
void
BM_WriteResultsCsv(benchmark::State &state)
{
    const std::vector<GridCell> cells = buildSweepGrid(
        {"swim"}, tinySampledCell(),
        {SweepAxis{"core.rename.regfile_size", {"48", "64", "96", "128"}},
         SweepAxis{"core.scheme", {"conv", "vp-wb", "vp-issue", "conv-er"}}});
    const std::vector<SimResults> results = runGrid(cells, 1);
    std::vector<std::size_t> indices(cells.size());
    std::iota(indices.begin(), indices.end(), 0);
    for (auto _ : state) {
        std::ostringstream os;
        writeResultsCsv(os, "bm", ShardSpec{}, indices, cells, results);
        benchmark::DoNotOptimize(os.tellp());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_WriteResultsCsv);

} // namespace

int
main(int argc, char **argv)
{
    // The library's own "library_build_type" reports how the distro
    // built libbenchmark (always "debug" for Debian's package) — it
    // says nothing about this binary. Record the simulator's actual
    // build flavour so perf_diff can refuse debug baselines.
#ifdef NDEBUG
    benchmark::AddCustomContext("vpr_build_type", "release");
#else
    benchmark::AddCustomContext("vpr_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
