/**
 * @file
 * TraceBuilder: a tiny DSL for writing instruction traces by hand.
 *
 * Used by unit tests and the motivating_example figure to construct
 * exact instruction sequences. PCs are assigned sequentially
 * (4 bytes per instruction) from a configurable base.
 */

#ifndef VPR_TRACE_BUILDER_HH
#define VPR_TRACE_BUILDER_HH

#include <memory>
#include <vector>

#include "trace/record.hh"
#include "trace/stream.hh"

namespace vpr
{

/** Fluent builder producing a vector of trace records. */
class TraceBuilder
{
  public:
    explicit TraceBuilder(Addr pcBase = 0x1000) : nextPc(pcBase) {}

    /** Append an arbitrary pre-built instruction (pc is overwritten). */
    TraceBuilder &append(StaticInst si);

    /** Convenience emitters mirroring StaticInst's named constructors. @{ */
    TraceBuilder &alu(RegId d, RegId s1, RegId s2 = RegId::none());
    TraceBuilder &mult(RegId d, RegId s1, RegId s2);
    TraceBuilder &div(RegId d, RegId s1, RegId s2);
    TraceBuilder &fpAdd(RegId d, RegId s1, RegId s2 = RegId::none());
    TraceBuilder &fpMul(RegId d, RegId s1, RegId s2);
    TraceBuilder &fpDiv(RegId d, RegId s1, RegId s2);
    TraceBuilder &fpSqrt(RegId d, RegId s1);
    TraceBuilder &load(RegId d, RegId base, Addr addr);
    TraceBuilder &store(RegId data, RegId base, Addr addr);
    TraceBuilder &branch(RegId s1, bool taken, Addr target);
    TraceBuilder &nop();
    /** @} */

    /** Repeat the instructions added since the last mark() @p n times. */
    TraceBuilder &mark();
    TraceBuilder &repeat(unsigned n);

    /** Number of records so far. */
    std::size_t size() const { return recs.size(); }

    /** The built trace (copy). */
    std::vector<TraceRecord> records() const { return recs; }

    /** Wrap the built trace in a stream. */
    std::unique_ptr<VectorTraceStream> stream(bool loop = false) const;

  private:
    std::vector<TraceRecord> recs;
    Addr nextPc;
    std::size_t markPos = 0;
};

} // namespace vpr

#endif // VPR_TRACE_BUILDER_HH
