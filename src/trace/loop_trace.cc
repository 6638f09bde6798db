#include "trace/loop_trace.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace vpr
{

InstTemplate
InstTemplate::compute(OpClass op, RegId d, RegId s0, RegId s1)
{
    InstTemplate t;
    t.op = op;
    t.dest = d;
    t.src0 = s0;
    t.src1 = s1;
    return t;
}

InstTemplate
InstTemplate::loadFrom(int stream, RegId d, RegId base)
{
    InstTemplate t;
    t.op = OpClass::Load;
    t.dest = d;
    t.src0 = base;
    t.memStream = stream;
    return t;
}

InstTemplate
InstTemplate::storeTo(int stream, RegId data, RegId base)
{
    InstTemplate t;
    t.op = OpClass::Store;
    t.src0 = data;
    t.src1 = base;
    t.memStream = stream;
    return t;
}

void
KernelDesc::validate() const
{
    VPR_ASSERT(!blocks.empty(), "kernel '", name, "' has no blocks");
    for (const auto &b : blocks) {
        for (const auto &t : b.insts) {
            if (isMemOp(t.op)) {
                VPR_ASSERT(t.memStream >= 0 &&
                           static_cast<std::size_t>(t.memStream) <
                               streams.size(),
                           "kernel '", name, "': bad memory stream index");
            }
        }
        if (b.branch.kind != BranchDesc::Kind::None) {
            VPR_ASSERT(static_cast<std::size_t>(b.branch.takenTarget) <
                           blocks.size(),
                       "kernel '", name, "': bad taken target");
            VPR_ASSERT(static_cast<std::size_t>(b.branch.fallThrough) <
                           blocks.size(),
                       "kernel '", name, "': bad fall-through");
            if (b.branch.kind == BranchDesc::Kind::Loop)
                VPR_ASSERT(b.branch.tripCount >= 1, "kernel '", name,
                           "': zero trip count");
        }
    }
    for (const auto &s : streams) {
        VPR_ASSERT(s.region >= s.elemSize, "kernel '", name,
                   "': region smaller than element");
        VPR_ASSERT(s.elemSize > 0, "kernel '", name, "': zero elem size");
    }
}

LoopTraceStream::LoopTraceStream(KernelDesc d) : desc(std::move(d)),
    rng(desc.seed)
{
    desc.validate();
    streamPos.assign(desc.streams.size(), 0);
    loopCount.assign(desc.blocks.size(), 0);

    geom.reserve(desc.streams.size());
    for (const MemStreamDesc &s : desc.streams) {
        StreamGeom g;
        g.elems = s.region / s.elemSize;
        g.regionMask = isPowerOf2(s.region) ? s.region - 1 : 0;
        g.alignMask = isPowerOf2(s.elemSize)
                          ? ~(static_cast<std::uint64_t>(s.elemSize) - 1)
                          : 0;
        geom.push_back(g);
    }

    // Lay blocks out back to back in the simulated text segment so that
    // distinct static branches map to distinct BHT entries.
    blockPc.resize(desc.blocks.size());
    Addr pc = desc.pcBase;
    for (std::size_t i = 0; i < desc.blocks.size(); ++i) {
        blockPc[i] = pc;
        std::size_t n = desc.blocks[i].insts.size();
        if (desc.blocks[i].branch.kind != BranchDesc::Kind::None)
            ++n;
        pc += n * 4;
    }
}

Addr
LoopTraceStream::pcOf(std::size_t blk, std::size_t idx) const
{
    return blockPc[blk] + idx * 4;
}

Addr
LoopTraceStream::nextAddr(int streamIdx)
{
    const MemStreamDesc &s = desc.streams[streamIdx];
    const StreamGeom &g = geom[streamIdx];
    std::uint64_t pos = streamPos[streamIdx]++;
    switch (s.kind) {
      case MemStreamDesc::Kind::Stride: {
        std::int64_t off =
            static_cast<std::int64_t>(pos) * s.stride;
        std::uint64_t wrapped = g.regionMask
            ? (static_cast<std::uint64_t>(off) & g.regionMask)
            : static_cast<std::uint64_t>(off) % s.region;
        return s.base + (g.alignMask ? (wrapped & g.alignMask)
                                     : roundDown(wrapped, s.elemSize));
      }
      case MemStreamDesc::Kind::Random:
      case MemStreamDesc::Kind::PointerChase:
        return s.base + rng.below(g.elems) * s.elemSize;
      default:
        VPR_PANIC("bad memory stream kind");
    }
}

// Forced inline: produce() is the per-record step behind both next()
// and nextBatch(); left to its own heuristics GCC outlines it, which
// costs every record several ns.
VPR_ALWAYS_INLINE bool
LoopTraceStream::produce(TraceRecord &rec)
{
    for (;;) {
        const BlockDesc &blk = desc.blocks[curBlock];

        if (curInst < blk.insts.size()) {
            const InstTemplate &t = blk.insts[curInst];
            rec = TraceRecord{};
            rec.pc = pcOf(curBlock, curInst);
            rec.op = t.op;
            rec.dest = t.dest;
            rec.src[0] = t.src0;
            rec.src[1] = t.src1;
            if (isMemOp(t.op)) {
                rec.effAddr = nextAddr(t.memStream);
                rec.memSize = desc.streams[t.memStream].elemSize;
            }
            ++curInst;
            return true;
        }

        // End of block: emit the branch (if any) and move on.
        std::size_t blkIdx = curBlock;
        curInst = 0;

        if (blk.branch.kind == BranchDesc::Kind::None) {
            curBlock = (curBlock + 1) % desc.blocks.size();
            continue;
        }

        bool taken = false;
        if (blk.branch.kind == BranchDesc::Kind::Loop) {
            ++loopCount[blkIdx];
            if (loopCount[blkIdx] < blk.branch.tripCount) {
                taken = true;
            } else {
                loopCount[blkIdx] = 0;
                taken = false;
            }
        } else {
            taken = rng.chancePermille(blk.branch.takenPermille);
        }

        std::size_t nextBlock = taken
            ? static_cast<std::size_t>(blk.branch.takenTarget)
            : static_cast<std::size_t>(blk.branch.fallThrough);

        rec = StaticInst::branch(
            blk.branch.src, taken, blockPc[nextBlock]);
        rec.pc = pcOf(blkIdx, blk.insts.size());
        curBlock = nextBlock;
        return true;
    }
}

std::optional<TraceRecord>
LoopTraceStream::next()
{
    TraceRecord rec;
    if (!produce(rec))
        return std::nullopt;
    return rec;
}

std::size_t
LoopTraceStream::nextBatch(TraceRecord *out, std::size_t max)
{
    // One virtual call for the whole batch; produce() writes records
    // in place, with no optional<> wrapping on the per-record path.
    std::size_t k = 0;
    while (k < max && produce(out[k]))
        ++k;
    return k;
}

} // namespace vpr
