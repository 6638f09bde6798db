/**
 * @file
 * The issue -> complete latch: CompletionQueue, which holds scheduled
 * completion events. Core owns it and hands it to the two stages that
 * drive and drain it. Rename and complete reach the FetchUnit's buffer
 * and redirect wire through PipelineState directly.
 *
 * A store issued with its data operand still in flight is parked: it is
 * Issued with no event here. Its data operand's entry in the IQ's wait
 * lists wakes it, and the complete stage then schedules its event. The
 * latch keeps no list of its own, so branch recovery never touches it.
 */

#ifndef VPR_CORE_STAGES_LATCHES_HH
#define VPR_CORE_STAGES_LATCHES_HH

#include <algorithm>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "core/dyn_inst.hh"

namespace vpr
{

/** A scheduled "instruction finishes execution" event: stale once
 *  @p inst no longer carries @p seq. */
struct CompletionEvent
{
    Cycle when;
    InstSeqNum seq;
    DynInst *inst;
};

/**
 * The issue→complete latch: a time-ordered queue of completion events.
 * Events for squashed instructions are filtered lazily at pop time (the
 * ROB slot may have been reused, so the instruction's seq and phase are
 * re-checked), so recovery does not touch the queue.
 *
 * The events live in a cycle-indexed calendar (timing wheel): a
 * power-of-two ring of per-cycle buckets spanning the maximum FU/cache
 * latency, plus an overflow list for the rare event beyond the horizon
 * (unbounded write-port slip, MSHR queueing). schedule() is an append
 * and popDue() drains one bucket — O(1) each, no heap sifts over
 * 24-byte events. Events pop in (when, seq) order: within a cycle they
 * drain in ascending sequence number.
 */
class CompletionQueue
{
  public:
    /**
     * @param horizonHint  minimum ring span in cycles; rounded up to a
     *                     power of two. Events scheduled further out
     *                     than the ring spans go to the overflow list
     *                     and migrate in as the wheel turns.
     * @param bucketEvents events each cycle's bucket holds before it
     *                     first grows (the core passes its issue
     *                     width), so a fresh core does not grow every
     *                     bucket from empty.
     */
    explicit CompletionQueue(Cycle horizonHint = 128,
                             std::size_t bucketEvents = 0)
        : horizon(Cycle{1} << ceilLog2(horizonHint < 2 ? 2 : horizonHint)),
          buckets(static_cast<std::size_t>(horizon))
    {
        for (auto &b : buckets)
            b.reserve(bucketEvents);
    }

    /** Schedule @p inst to complete at @p when. */
    void
    schedule(Cycle when, InstSeqNum seq, DynInst *inst)
    {
        VPR_ASSERT(when >= base, "scheduling into the drained past: when=",
                   when, " base=", base);
        ++nEvents;
        if (when >= base + horizon) {
            overflow.push_back({when, seq, inst});
            overflowMin = std::min(overflowMin, when);
            return;
        }
        buckets[static_cast<std::size_t>(when & (horizon - 1))].push_back(
            {when, seq, inst});
        if (when == base)
            curSorted = false;
    }

    /** Is an event due at or before @p now? (Advances the wheel past
     *  drained buckets; the wheel never skips a non-empty one.) */
    bool
    hasDue(Cycle now)
    {
        advanceTo(now);
        return base <= now && drainIdx < buckets[curBucket()].size();
    }

    /** Pop the next due event (caller must check hasDue). */
    CompletionEvent
    popDue()
    {
        auto &b = buckets[curBucket()];
        VPR_ASSERT(drainIdx < b.size(), "popDue without a due event");
        if (!curSorted) {
            std::sort(b.begin() + static_cast<std::ptrdiff_t>(drainIdx),
                      b.end(),
                      [](const CompletionEvent &a,
                         const CompletionEvent &o) { return a.seq < o.seq; });
            curSorted = true;
        }
        CompletionEvent ev = b[drainIdx++];
        --nEvents;
        if (drainIdx == b.size()) {
            b.clear();
            drainIdx = 0;
        }
        return ev;
    }

    std::size_t pendingEvents() const { return nEvents; }

    /** True if any event references @p seq (tests): walks the live
     *  bucket remainders and the overflow list. */
    bool
    pendingFor(InstSeqNum seq) const
    {
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            std::size_t from = i == curBucket() ? drainIdx : 0;
            const auto &b = buckets[i];
            for (std::size_t j = from; j < b.size(); ++j)
                if (b[j].seq == seq)
                    return true;
        }
        for (const auto &ev : overflow)
            if (ev.seq == seq)
                return true;
        return false;
    }

  private:
    std::size_t
    curBucket() const
    {
        return static_cast<std::size_t>(base & (horizon - 1));
    }

    /** Turn the wheel: advance past drained buckets up to @p now,
     *  pulling overflow events in as they come within the horizon. The
     *  wheel stops at the first non-empty bucket, so late drains (a
     *  caller that skipped cycles) still pop in (when, seq) order. */
    void
    advanceTo(Cycle now)
    {
        if (nEvents == 0 && overflow.empty()) {
            // Empty wheel: jump straight to now. This is the common
            // case after a sampled fast-forward, where the clock leaps
            // thousands of cycles past a quiesced (event-free) core —
            // walking every intervening bucket would cost O(jump).
            if (base < now) {
                base = now;
                drainIdx = 0;
                curSorted = false;
            }
            return;
        }
        while (base < now) {
            maybeMigrate();
            auto &b = buckets[curBucket()];
            if (drainIdx < b.size())
                return;
            b.clear();
            drainIdx = 0;
            ++base;
            curSorted = false;
        }
        maybeMigrate();
    }

    /** Move overflow events that fit the ring now into their buckets. */
    void
    maybeMigrate()
    {
        if (overflow.empty() || overflowMin >= base + horizon)
            return;
        std::size_t keep = 0;
        Cycle newMin = kNoCycle;
        for (const CompletionEvent &ev : overflow) {
            if (ev.when < base + horizon) {
                buckets[static_cast<std::size_t>(ev.when & (horizon - 1))]
                    .push_back(ev);
                if (ev.when == base)
                    curSorted = false;
            } else {
                overflow[keep++] = ev;
                newMin = std::min(newMin, ev.when);
            }
        }
        overflow.resize(keep);
        overflowMin = newMin;
    }

    const Cycle horizon;          ///< ring span (power of two)
    std::vector<std::vector<CompletionEvent>> buckets;
    std::vector<CompletionEvent> overflow; ///< events beyond the horizon
    Cycle overflowMin = kNoCycle; ///< earliest overflow `when`
    Cycle base = 0;               ///< no event is due before this cycle
    std::size_t drainIdx = 0;     ///< consumed prefix of bucket[base]
    bool curSorted = true;        ///< bucket[base] tail is seq-sorted
    std::size_t nEvents = 0;
};

} // namespace vpr

#endif // VPR_CORE_STAGES_LATCHES_HH
