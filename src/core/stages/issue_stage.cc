#include "core/stages/issue_stage.hh"

#include "common/logging.hh"
#include "isa/op_class.hh"

namespace vpr
{

namespace
{

/** Row labels of the issued_by_class matrix: every op class. */
std::vector<std::string>
opClassRows()
{
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < kNumOpClasses; ++i)
        rows.push_back(opClassName(static_cast<OpClass>(i)));
    return rows;
}

} // namespace

IssueStage::IssueStage(PipelineState &state,
                       CompletionQueue &completionQueue)
    : s(state), completions(completionQueue),
      byClass("issued_by_class",
              "issues per op class, split first execution vs re-execution",
              opClassRows(), {"first", "reexec"})
{
    // Every candidate is (or, once stale, was) an IQ entry, so the
    // queue size is each list's working capacity; sizing them now
    // keeps a fresh core from growing them during its first cycles.
    cand.reserve(s.cfg.iqSize);
    retryQ.reserve(s.cfg.iqSize);
    for (auto &q : fuStallQ)
        q.reserve(s.cfg.iqSize);
    group.add(&issued);
    group.add(&byClass);
    fetchToIssue.reserve(kNumOpClasses);
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
        // Queueing delay dominates (an instruction can sit behind a
        // whole 128-entry window), so the range is wider than the
        // execution-latency distribution's.
        fetchToIssue.push_back(stats::Distribution::evenBuckets(
            std::string("fetch_to_issue.") +
                opClassName(static_cast<OpClass>(i)),
            "cycles from fetch to first issue", 0, 256, 16));
        group.add(&fetchToIssue.back());
    }
    s.statsTree.add(&group);
}

IssueStage::Attempt
IssueStage::tryIssueOne(DynInst *inst)
{
    if (!inst->issueOperandsReady())
        return {Outcome::Resource};

    OpClass op = inst->si.op;
    const Cycle now = s.curCycle;

    // A re-execution (squashed at write-back for lack of a register,
    // paper §3.3) already performed its memory access and disambiguation;
    // it only needs to traverse the execution pipeline again.
    const bool reExecution = inst->executions > 0;

    // Memory disambiguation (PA-8000 style) for loads. Hold statistics
    // count episodes (transitions into a blocking state), not attempts:
    // a held load is re-attempted only when its blocker resolves.
    LoadHold hold = LoadHold::Ready;
    if (inst->isLoad() && !reExecution) {
        LoadCheck chk = s.lsq.disambiguate(inst, now);
        hold = chk.hold;
        if (hold == LoadHold::UnknownAddress ||
            hold == LoadHold::PartialOverlap) {
            if (inst->lastHold() != hold) {
                s.lsq.recordHold(hold);
                inst->setLastHold(hold);
            }
            return {Outcome::Hold, hold, chk.blocker};
        }
    }

    // Functional unit available?
    if (s.fus.available(fuTypeFor(op), now) == 0)
        return {Outcome::NoFu};

    // Register-file read ports. A store reads only its address operand
    // at issue; the data register is picked up when it completes.
    unsigned nIntReads = 0, nFpReads = 0;
    for (std::size_t i = 0; i < kMaxSrcRegs; ++i) {
        const auto &src = inst->src[i];
        if (!src.valid)
            continue;
        if (inst->isStore() && i == 0)
            continue;
        if (src.cls == RegClass::Int)
            ++nIntReads;
        else
            ++nFpReads;
    }
    if (!s.regPorts.canClaimReads(nIntReads, nFpReads))
        return {Outcome::Resource};

    // Cache port and MSHR space for loads that really access the cache.
    bool needsCache =
        inst->isLoad() && hold != LoadHold::Forward && !reExecution;
    if (needsCache) {
        if (s.cachePortSched.used(now + 1) >= s.cfg.cachePorts)
            return {Outcome::Resource};
        if (s.cache.wouldBlock(inst->si.effAddr, now + 1))
            return {Outcome::Resource};
    }

    // The renamer's issue gate (VP issue-allocation policy).
    if (!s.renameMgr->tryIssue(*inst, now))
        return {Outcome::Resource};

    // All checks passed: commit the side effects.
    s.regPorts.tryClaimReads(nIntReads, nFpReads);

    Cycle raw;
    if (inst->isLoad()) {
        if (reExecution) {
            // The line was filled by the first execution; the retry hits.
            raw = now + 1 + s.cache.config().hitLatency;
        } else if (hold == LoadHold::Forward) {
            s.lsq.recordHold(hold);
            inst->storeForwarded = true;
            raw = now + 1 + s.cache.config().hitLatency;
        } else {
            bool claimed = s.cachePortSched.tryClaim(now + 1);
            VPR_ASSERT(claimed, "cache port vanished");
            auto res = s.cache.access(inst->si.effAddr, false, now + 1);
            VPR_ASSERT(res.outcome != CacheOutcome::Blocked,
                       "cache blocked after wouldBlock said otherwise");
            raw = res.readyCycle;
        }
        inst->addrReady = true;
        inst->addrReadyCycle = now + 1;
    } else if (inst->isStore()) {
        // Address generation only; data is written to the cache at
        // commit. The store completes once address *and* data are
        // known; with the data still in flight it parks in the
        // CompletionQueue until the data's broadcast wakes it.
        raw = now + 1;
        inst->addrReady = true;
        inst->addrReadyCycle = now + 1;
        if (!reExecution)
            s.lsq.onStoreAddrComputed(inst);
        if (!inst->operandsReady()) {
            inst->setPhase(InstPhase::Issued);
            inst->setIssueCycle(now);
            if (!reExecution)
                fetchToIssue[static_cast<std::size_t>(op)].sample(
                    now - inst->fetchCycle());
            ++inst->executions;
            ++issued;
            byClass.inc(static_cast<std::size_t>(op), reExecution ? 1 : 0);
            completions.parkStore(inst, inst->seq());
            bool fuOkStore = s.fus.tryIssue(op, now, raw);
            VPR_ASSERT(fuOkStore, "FU vanished after availability check");
            return {Outcome::Issued};
        }
    } else {
        raw = now + opLatency(op);
    }

    // Schedule the result write port; completion slips if all write
    // ports at the ideal cycle are taken. Re-executions write only on
    // their final (successful) attempt; charging a slot per retry would
    // let rejection storms build an unbounded port backlog that no real
    // machine exhibits, so retries bypass the scheduler.
    Cycle completion = inst->hasDest() && !reExecution
        ? s.regPorts.scheduleWrite(inst->destClass(), raw)
        : raw;

    bool fuOk = s.fus.tryIssue(op, now, completion);
    VPR_ASSERT(fuOk, "FU vanished after availability check");

    inst->setPhase(InstPhase::Issued);
    inst->setIssueCycle(now);
    if (!reExecution)
        fetchToIssue[static_cast<std::size_t>(op)].sample(
            now - inst->fetchCycle());
    ++inst->executions;
    ++issued;
    byClass.inc(static_cast<std::size_t>(op), reExecution ? 1 : 0);
    completions.schedule(completion, inst->seq(), inst);
    return {Outcome::Issued};
}

void
IssueStage::tick()
{
    const Cycle now = s.curCycle;

    // Merge this cycle's candidates: newly published ready
    // instructions, last cycle's per-cycle-resource failures, FU-stall
    // lists whose unit class has capacity again (availability only
    // shrinks within a tick, so a class gated here would fail every
    // attempt this cycle too), and released LSQ holds.
    cand.clear();
    s.iq.drainReadyEvents(cand);
    cand.insert(cand.end(), retryQ.begin(), retryQ.end());
    retryQ.clear();
    for (std::size_t t = 0; t < kNumFUTypes; ++t) {
        auto &q = fuStallQ[t];
        if (q.empty() ||
            s.fus.available(static_cast<FUType>(t), now) == 0)
            continue;
        cand.insert(cand.end(), q.begin(), q.end());
        q.clear();
    }
    s.lsq.takeReadyHolds(now, cand);
    // Age order by insertion sort: a handful of candidates per cycle,
    // and each source list arrives nearly in age order already.
    for (std::size_t i = 1; i < cand.size(); ++i) {
        const ReadyRef e = cand[i];
        std::size_t j = i;
        for (; j > 0 && cand[j - 1].seq > e.seq; --j)
            cand[j] = cand[j - 1];
        cand[j] = e;
    }

    // Oldest-first over the candidates in two passes: first executions
    // have priority; re-executions fill the remaining slots ("resources
    // that otherwise would be unused", paper §4.2.1). Failures are
    // re-parked by reason; entries the width cutoff left unattempted
    // stay ready for next cycle.
    unsigned nIssued = 0;
    for (int pass = 0; pass < 2 && nIssued < s.cfg.issueWidth; ++pass) {
        for (ReadyRef &e : cand) {
            if (nIssued >= s.cfg.issueWidth)
                break;
            DynInst *inst = e.inst;
            if (!inst)
                continue;
            // Staleness (issued, squashed, or slot reused): decided
            // entirely inside the packed hot arrays via the recorded
            // slot — a stale entry never touches its DynInst.
            if (!s.hot.liveInPhase(e.slot, e.seq, InstPhase::Renamed) ||
                !s.hot.isInIq(e.slot)) {
                e.inst = nullptr;  // stale: issued, squashed, or reused
                continue;
            }
            if ((inst->executions > 0) != (pass == 1))
                continue;
            Attempt a = tryIssueOne(inst);
            e.inst = nullptr;
            switch (a.outcome) {
              case Outcome::Issued:
                s.iq.remove(inst);
                ++nIssued;
                break;
              case Outcome::Hold:
                s.lsq.subscribeHold(inst, a.blocker, a.hold);
                break;
              case Outcome::NoFu:
                fuStallQ[static_cast<std::size_t>(
                             fuTypeFor(inst->si.op))]
                    .push_back(inst->ref());
                break;
              case Outcome::Resource:
                retryQ.push_back(inst->ref());
                break;
            }
        }
    }
    for (const ReadyRef &e : cand) {
        if (e.inst && s.hot.live(e.slot, e.seq) && s.hot.isInIq(e.slot))
            retryQ.push_back(e);
    }
}

} // namespace vpr
