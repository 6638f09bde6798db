/**
 * @file
 * LoopTrace: a procedural trace generator.
 *
 * A kernel is a small control-flow graph of basic blocks. Each block is
 * a list of instruction templates followed by an optional branch with
 * either counted-loop or Bernoulli behaviour. Memory operands draw their
 * effective addresses from named memory streams (strided, random or
 * pointer-chase). The generator replays this graph forever, producing an
 * unbounded, deterministic dynamic instruction stream — our substitute
 * for the paper's ATOM-generated SPEC95 traces (see README "Reproduce
 * the paper").
 */

#ifndef VPR_TRACE_LOOP_TRACE_HH
#define VPR_TRACE_LOOP_TRACE_HH

#include <string>
#include <vector>

#include "common/random.hh"
#include "trace/record.hh"
#include "trace/stream.hh"

namespace vpr
{

/** How a memory stream generates successive effective addresses. */
struct MemStreamDesc
{
    enum class Kind
    {
        Stride,       ///< base, base+stride, base+2*stride, ... mod region
        Random,       ///< uniform random element inside the region
        PointerChase  ///< random like Random; dependence comes from regs
    };

    Kind kind = Kind::Stride;
    Addr base = 0;            ///< starting byte address
    std::int64_t stride = 8;  ///< bytes between accesses (Stride only)
    std::uint64_t region = 1 << 20; ///< working-set size in bytes
    std::uint8_t elemSize = 8;      ///< access size / alignment
};

/** One instruction position inside a block. */
struct InstTemplate
{
    OpClass op = OpClass::Nop;
    RegId dest;
    RegId src0;
    RegId src1;
    int memStream = -1;  ///< index into KernelDesc::streams for mem ops

    /** Helpers for concise kernel descriptions. @{ */
    static InstTemplate compute(OpClass op, RegId d, RegId s0,
                                RegId s1 = RegId::none());
    static InstTemplate loadFrom(int stream, RegId d, RegId base);
    static InstTemplate storeTo(int stream, RegId data, RegId base);
    /** @} */
};

/** Terminating branch of a block. */
struct BranchDesc
{
    enum class Kind
    {
        None,      ///< fall through without a branch instruction
        Loop,      ///< taken (tripCount-1) times, then falls through
        Bernoulli  ///< taken with fixed probability each execution
    };

    Kind kind = Kind::None;
    RegId src;                   ///< condition register
    unsigned tripCount = 1;      ///< Loop kind
    unsigned takenPermille = 500; ///< Bernoulli kind
    int takenTarget = 0;         ///< block index when taken
    int fallThrough = 0;         ///< block index when not taken
};

/** A basic block: instruction templates plus the closing branch. */
struct BlockDesc
{
    std::vector<InstTemplate> insts;
    BranchDesc branch;
};

/** A complete synthetic kernel. */
struct KernelDesc
{
    std::string name;
    std::vector<MemStreamDesc> streams;
    std::vector<BlockDesc> blocks;
    std::uint64_t seed = 1;
    Addr pcBase = 0x10000;

    /** Sanity-check block/stream indices; panics on malformed graphs. */
    void validate() const;
};

/**
 * The generator: walks the kernel CFG and materializes TraceRecords.
 * Deterministic per (desc, seed).
 */
class LoopTraceStream : public TraceStream
{
  public:
    explicit LoopTraceStream(KernelDesc desc);

    std::optional<TraceRecord> next() override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;

    const KernelDesc &kernel() const { return desc; }

  private:
    /** The generator step behind next()/nextBatch: write the next
     *  record into @p rec, or return false at end of trace. */
    bool produce(TraceRecord &rec);

    /** Materialize the effective address for a template. */
    Addr nextAddr(int streamIdx);

    /** PC of instruction @p idx of block @p blk (branch is last). */
    Addr pcOf(std::size_t blk, std::size_t idx) const;

    /** Per-stream constants hoisted out of nextAddr. When region and
     *  element size are powers of two (every shipped kernel) the modulo
     *  and alignment reduce to masks — `x % 2^k == x & (2^k - 1)` for
     *  unsigned x — which keeps strided address generation free of
     *  64-bit divisions on the fast-forward path. */
    struct StreamGeom
    {
        std::uint64_t elems;      ///< region / elemSize
        std::uint64_t regionMask; ///< region - 1, or 0 if not pow2
        std::uint64_t alignMask;  ///< ~(elemSize - 1), or 0 if not pow2
    };

    KernelDesc desc;
    Random rng;
    std::size_t curBlock = 0;
    std::size_t curInst = 0;
    std::vector<std::uint64_t> streamPos;  ///< per-stream access counter
    std::vector<unsigned> loopCount;       ///< per-block loop iteration
    std::vector<Addr> blockPc;             ///< per-block starting PC
    std::vector<StreamGeom> geom;          ///< per-stream constants
};

} // namespace vpr

#endif // VPR_TRACE_LOOP_TRACE_HH
