/**
 * @file
 * Section 3.1 of the paper, the motivating register-pressure example,
 * as a FigureDef:
 *
 *     load f2,0(r6)    (cache miss, 20 cycles in the paper's example)
 *     fdiv f2,f2,f10   (20 cycles)
 *     fmul f2,f2,f12   (10 cycles)
 *     fadd f2,f2,f1    (5 cycles)
 *
 * The paper counts register-holding times of p1..p3 (the registers
 * renamed to f2 by the first three instructions): 42/52/57 cycles with
 * decode allocation, 21/11/6 with write-back allocation (-75% register
 * pressure) and 41/31/16 with issue allocation (-42%).
 *
 * The cells carry their own trace factory (the chain above, repeated)
 * instead of a named benchmark kernel, and replay it on the full
 * simulator with each renaming scheme, reporting the measured FP
 * register pressure (sum of holding cycles per produced value). Our
 * machine uses Table 1 latencies and a 50-cycle miss, so the absolute
 * cycle counts differ; the ranking and the large decode-allocation
 * waste are the reproduced claims.
 */

#include "figures.hh"

#include "trace/builder.hh"

namespace vpr::bench
{

namespace
{

/** The paper's four-instruction chain, repeated to reach steady state. */
std::vector<TraceRecord>
exampleTrace(unsigned repeats)
{
    TraceBuilder b;
    for (unsigned i = 0; i < repeats; ++i) {
        // A fresh line each time so every load misses, like the example.
        Addr addr = 0x10000000 + static_cast<Addr>(i) * 64;
        b.load(RegId::fpReg(2), RegId::intReg(6), addr);
        b.fpDiv(RegId::fpReg(2), RegId::fpReg(2), RegId::fpReg(10));
        b.fpMul(RegId::fpReg(2), RegId::fpReg(2), RegId::fpReg(12));
        b.fpAdd(RegId::fpReg(2), RegId::fpReg(2), RegId::fpReg(1));
    }
    return b.records();
}

GridCell
chainCell(const SimConfig &base, RenameScheme scheme)
{
    SimConfig config = base;
    config.setScheme(scheme);
    config.skipInsts = 0;
    config.measureInsts = 4000;
    // Looping stream: at the default budget (4000 < 4800 records) the
    // wrap never engages, but VPR_INSTS_SCALE > 1 keeps measuring the same
    // chain instead of silently draining the pipeline early.
    return GridCell("section3.1-chain", config, [] {
        return std::make_unique<VectorTraceStream>(exampleTrace(1200),
                                                   /*loop=*/true);
    });
}

} // namespace

FigureDef
motivatingExampleFigure()
{
    FigureDef def;
    def.name = "motivating_example";
    // The chain measures only 4,000 instructions per cell.
    def.preset = {1000, 150, 250};
    def.grid = [](const SimConfig &base) {
        return std::vector<GridCell>{
            chainCell(base, RenameScheme::Conventional),
            chainCell(base, RenameScheme::VPAllocAtIssue),
            chainCell(base, RenameScheme::VPAllocAtWriteback),
        };
    };
    def.render = [](const std::vector<GridCell> &,
                    const std::vector<SimResults> &results,
                    std::ostream &os) {
        os << "Section 3.1 motivating example: load->fdiv->fmul->fadd "
              "chain, all writing f2\n\n";

        const SimResults &conv = results[0];
        const SimResults &iss = results[1];
        const SimResults &wb = results[2];
        double base = conv.meanHoldCyclesFp();

        printTableHeader(os,
                         "FP register holding time per produced value",
                         {"cycles", "vs conv", "IPC"});
        printTableRow(os, "decode", {base, 1.0, conv.ipc()}, 2);
        printTableRow(os, "issue",
                      {iss.meanHoldCyclesFp(),
                       iss.meanHoldCyclesFp() / base, iss.ipc()},
                      2);
        printTableRow(os, "writeback",
                      {wb.meanHoldCyclesFp(),
                       wb.meanHoldCyclesFp() / base, wb.ipc()},
                      2);

        os << "\npaper reference (its latencies): decode allocation "
              "holds registers 151 cycles total per 3 values,\n"
              "write-back allocation 38 (-75%), issue allocation 88 "
              "(-42%). The ordering decode > issue > writeback\n"
              "and the magnitude of the decode-allocation waste are "
              "the reproduced claims.\n";
    };
    return def;
}

} // namespace vpr::bench
