/**
 * @file
 * NeuISA: the paper's VLIW extension for virtualized NPUs (§III-D).
 *
 * NeuISA decouples the control flow of individual matrix engines by
 * re-packaging a tensor operator into micro-tensor operators (uTOps):
 *
 *  - an *ME uTOp* contains instructions with exactly one ME slot and ny
 *    VE slots — it drives one matrix engine plus the vector work fused
 *    with that engine's output stream;
 *  - a *VE uTOp* contains instructions with no ME slot and ny VE slots.
 *
 * uTOps are organized into *uTOp groups* (up to nx ME uTOps plus up to
 * one VE uTOp per group). uTOps within a group may run concurrently on
 * however many engines the scheduler grants; groups execute in sequence
 * unless a uTop.nextGroup control instruction redirects (Figs. 13-15).
 *
 * A NeuIsaProgram also carries per-uTOp aggregate costs (ME cycles, VE
 * cycles, HBM bytes). The event-driven simulator executes at uTOp
 * granularity from these aggregates — the same trace-replay strategy the
 * paper's production simulator uses (§III-G) — while the instruction
 * listings remain available for the interpreter, disassembler and tests.
 */

#ifndef NEU10_ISA_NEUISA_HH
#define NEU10_ISA_NEUISA_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/vliw.hh"

namespace neu10
{

/** The two uTOp types of §III-D. */
enum class UTopKind : std::uint8_t { Me = 0, Ve = 1 };

/** Aggregate execution cost of one uTOp, replayed by the simulator. */
struct UTopCost
{
    Cycles meCycles = 0.0;   ///< busy cycles on the single ME (ME uTOps)
    Cycles veCycles = 0.0;   ///< total VE work carried by this uTOp
    Bytes hbmBytes = 0;      ///< DMA traffic attributable to this uTOp

    bool operator==(const UTopCost &) const = default;
};

/**
 * One micro-tensor operator: a code snippet (VLIW bundles with the
 * NeuISA slot shape) plus its aggregate cost. Snippets may be shared by
 * several exec-table entries to limit code inflation (§III-D overhead
 * discussion); sharing is by snippet index.
 */
struct UTop
{
    UTopKind kind = UTopKind::Me;
    UTopCost cost;
    std::vector<VliwInstruction> code; ///< may be empty in trace mode

    bool operator==(const UTop &) const = default;
};

/**
 * A row of the uTOp execution table (Fig. 15): up to nx ME uTOp entries
 * and one optional VE uTOp entry, each naming a snippet index.
 */
struct UTopGroup
{
    std::vector<std::uint32_t> meUTops;       ///< snippet indices
    std::optional<std::uint32_t> veUTop;      ///< snippet index

    bool operator==(const UTopGroup &) const = default;

    size_t
    size() const
    {
        return meUTops.size() + (veUTop ? 1 : 0);
    }
};

/** A NeuISA binary: snippets + uTOp execution table + metadata. */
struct NeuIsaProgram
{
    /** Physical-core shape the binary was verified against. The program
     * can *run* on any engine allocation at runtime (that is NeuISA's
     * point); nx/ny only bound the group width and VE slot count. */
    unsigned maxMeUTopsPerGroup = 0;   ///< nx
    unsigned numVeSlots = 0;           ///< ny

    std::vector<UTop> snippets;
    std::vector<UTopGroup> table;

    /**
     * Structural verification per §III-D:
     *  - every group has <= nx ME uTOps and <= 1 VE uTOp;
     *  - entries reference existing snippets of the right kind;
     *  - ME uTOp snippets carry exactly 1 ME slot; VE uTOp snippets 0;
     *  - every snippet carries ny VE slots;
     *  - a snippet with code ends in uTop.finish.
     * @throws FatalError describing the first violation.
     */
    void validate() const;

    /** Total aggregate cost over the static table (each entry counted
     * once per appearance, since shared snippets re-execute). */
    UTopCost staticCost() const;

    /** Disassembly of the execution table and snippets. */
    std::string toString() const;
};

} // namespace neu10

#endif // NEU10_ISA_NEUISA_HH
