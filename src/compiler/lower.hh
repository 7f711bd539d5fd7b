/**
 * @file
 * Lowering DNN graphs to executable workloads.
 *
 * Two backends mirror the paper's compared systems:
 *
 *  - lowerToNeuIsa(): the NeuISA path (§III-D). Every ME-involving
 *    operator is partitioned into up to nx ME uTOps (one per tile) so
 *    the hardware can grant it any number of engines at runtime; fused
 *    vector work rides in the uTOps' VE slots; operators whose
 *    non-reduction tiling cannot fill the engines are partitioned on
 *    the reduction dimension, paying a separate summation VE uTOp —
 *    the NeuISA overhead measured in Fig. 16.
 *
 *  - lowerToVliw(): the classic statically-scheduled path the PMT and
 *    V10 baselines execute. The compiler fixes the ME count k; at
 *    runtime the operator occupies all k MEs for its whole duration
 *    regardless of how many it fills (Fig. 9's false coupling).
 *
 * Both emit the same simulator-facing structure (WorkUnit groups), so
 * the event-driven core executes either honestly.
 */

#ifndef NEU10_COMPILER_LOWER_HH
#define NEU10_COMPILER_LOWER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "compiler/graph.hh"
#include "compiler/machine.hh"
#include "isa/neuisa.hh"

namespace neu10
{

/**
 * One schedulable unit of work — a uTOp under NeuISA, or a whole
 * gang-coupled VLIW operator under the classic ISA.
 */
struct WorkUnit
{
    UTopKind kind = UTopKind::Me;

    /**
     * MEs this unit must hold *simultaneously* while executing.
     * NeuISA ME uTOps: 1. Classic VLIW operators: the compiled ME
     * width k (the false coupling). VE units: 0.
     */
    unsigned gang = 1;

    /** Occupancy time of each held ME at full progress rate. */
    Cycles meTime = 0.0;

    /**
     * Fraction of held ME-cycles doing useful work; < 1 when a VLIW
     * operator cannot fill all k MEs. Used for utilization accounting
     * (Fig. 22 reports useful busy time).
     */
    double meEff = 1.0;

    /** Total VE work (VE-cycles) pipelined with this unit. */
    Cycles veTime = 0.0;

    /** HBM traffic attributed to this unit. */
    Bytes bytes = 0;
};

/** Units that may run concurrently; groups execute in sequence. */
struct WorkGroup
{
    std::vector<WorkUnit> units;
};

/** A lowered tensor operator: its group sequence plus bookkeeping. */
struct CompiledOp
{
    std::string name;
    OpKind kind = OpKind::Vector;
    std::vector<WorkGroup> groups;
    std::vector<std::uint32_t> deps;   ///< producer CompiledOp indices

    /** True if any group contains an ME unit. */
    bool usesMe() const;

    /** Aggregate VE cycles across groups. */
    Cycles totalVeTime() const;

    /** Aggregate HBM bytes across groups. */
    Bytes totalBytes() const;
};

/** A fully lowered model ready for the simulator. */
struct CompiledModel
{
    std::string model;
    unsigned batch = 1;
    unsigned nx = 0;               ///< ME width the binary was built for
    unsigned ny = 0;               ///< VE slot width
    bool neuIsa = false;           ///< NeuISA or classic VLIW
    Bytes hbmFootprint = 0;
    std::vector<CompiledOp> ops;

    /** Structural checks mirroring NeuIsaProgram::validate(). */
    void validate() const;

    /** Total useful ME busy cycles of one inference. */
    Cycles totalMeBusy() const;

    /** Total VE busy cycles of one inference. */
    Cycles totalVeBusy() const;

    /** Total HBM traffic of one inference. */
    Bytes totalBytes() const;
};

/**
 * NeuISA backend.
 *
 * @param graph  validated DNN graph.
 * @param nx     physical-core ME count to partition for (binaries run
 *               on any allocation at runtime; nx bounds group width).
 * @param ny     VE count (VE-slot width of uTOps).
 */
CompiledModel lowerToNeuIsa(const DnnGraph &graph, unsigned nx,
                            unsigned ny,
                            const MachineModel &machine = {});

/**
 * Classic VLIW backend: statically scheduled for exactly @p k_mes MEs
 * and @p k_ves VEs; operators gang-occupy all k MEs.
 */
CompiledModel lowerToVliw(const DnnGraph &graph, unsigned k_mes,
                          unsigned k_ves,
                          const MachineModel &machine = {});

/**
 * Emit an instruction-listed NeuIsaProgram for a (small) graph — the
 * artifact a real toolchain would hand the driver. Costs match
 * lowerToNeuIsa(); listings are per-uTOp push/pop/VE streams. Intended
 * for inspection, tests and the isa_inspector example; O(cycles)
 * output makes it unsuitable for full models.
 */
NeuIsaProgram emitNeuIsaProgram(const DnnGraph &graph, unsigned nx,
                                unsigned ny,
                                const MachineModel &machine = {});

} // namespace neu10

#endif // NEU10_COMPILER_LOWER_HH
