#include "compiler/lower.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.hh"
#include "common/strings.hh"

namespace neu10
{

namespace
{

/** Below this many ME cycles an operator is not worth splitting. */
constexpr Cycles kMinUTopMeCycles = 256.0;

/** Reduction partitioning pays off only for substantial operators. */
constexpr Cycles kReductionThreshold = 2048.0;

/**
 * Target uTOp size. Real compilers emit tile-granular uTOps; chunking
 * large operators into successive groups bounds the occupancy of any
 * single uTOp, which is what makes fine-grained scheduling (and cheap
 * harvest reclaim) possible.
 */
constexpr Cycles kUTopTargetCycles = 16384.0;

/** Cap on chunk groups per operator (bounds simulator event counts). */
constexpr unsigned kMaxChunksPerOp = 16;

/** Number of successive chunk groups for a given per-stream size. */
unsigned
chunkCount(Cycles per_chunk_stream)
{
    const auto chunks = static_cast<unsigned>(
        std::ceil(per_chunk_stream / kUTopTargetCycles));
    return std::clamp(chunks, 1u, kMaxChunksPerOp);
}

/** Per-op fusion bookkeeping gathered in a pre-pass. */
struct FusedExtra
{
    double veElems = 0.0;
    Bytes bytes = 0;
    double outElems = 0.0;
};

std::vector<FusedExtra>
gatherFusion(const DnnGraph &graph)
{
    std::vector<FusedExtra> extra(graph.ops.size());
    for (const auto &op : graph.ops) {
        if (!op.fuseWithPrev)
            continue;
        const std::uint32_t producer = op.deps[0];
        extra[producer].veElems += op.veElems;
        extra[producer].bytes += op.bytes;
    }
    return extra;
}

/** Pick the uTOp count for an ME operator on an nx-wide core. */
unsigned
pickTiles(const TensorOp &op, Cycles me_cycles, unsigned nx)
{
    unsigned t = std::min(nx, op.parallelTiles);
    // Do not shatter small operators into sub-kMinUTopMeCycles shards:
    // dispatch would dominate and the real compiler would not either.
    while (t > 1 && me_cycles / t < kMinUTopMeCycles)
        --t;
    return std::max(1u, t);
}

/**
 * The lowering skeleton both ISAs share: the output header, the fusion
 * fold, the dependency remap and each operator's ME, VE and byte
 * costs. @p emit appends one operator's work groups to its CompiledOp
 * from (op, cop, ME cycles, VE cycles, bytes); the VE cycles are the
 * operator's own plus its fused consumers', the only way either ISA
 * uses them.
 */
template <typename Emit>
CompiledModel
lowerWith(const DnnGraph &graph, unsigned nx, unsigned ny, bool neu_isa,
          const MachineModel &machine, const Emit &emit)
{
    NEU10_ASSERT(nx > 0 && ny > 0, "need engines to lower for");
    graph.validate();

    CompiledModel out;
    out.model = graph.model;
    out.batch = graph.batch;
    out.nx = nx;
    out.ny = ny;
    out.neuIsa = neu_isa;
    out.hbmFootprint = graph.hbmFootprint;

    const auto fused = gatherFusion(graph);
    // graph index -> compiled index (fused ops map to their producer).
    std::vector<std::uint32_t> where(graph.ops.size());

    for (std::uint32_t gi = 0; gi < graph.ops.size(); ++gi) {
        const TensorOp &op = graph.ops[gi];
        if (op.fuseWithPrev) {
            where[gi] = where[op.deps[0]];
            continue;
        }

        CompiledOp cop;
        cop.name = op.name;
        cop.kind = op.kind;
        for (auto d : op.deps) {
            const std::uint32_t cd = where[d];
            if (std::find(cop.deps.begin(), cop.deps.end(), cd) ==
                cop.deps.end()) {
                cop.deps.push_back(cd);
            }
        }

        const Cycles me_cycles =
            usesMe(op.kind) && op.macs > 0
                ? machine.meCyclesFor(op.macs, op.meEfficiency)
                : 0.0;
        const Cycles ve_own = machine.veCyclesFor(op.veElems);
        const Cycles ve_fused = machine.veCyclesFor(fused[gi].veElems);
        emit(op, cop, me_cycles, ve_own + ve_fused,
             op.bytes + fused[gi].bytes);

        where[gi] = static_cast<std::uint32_t>(out.ops.size());
        out.ops.push_back(std::move(cop));
    }

    out.validate();
    return out;
}

} // anonymous namespace

bool
CompiledOp::usesMe() const
{
    for (const auto &g : groups)
        for (const auto &u : g.units)
            if (u.kind == UTopKind::Me)
                return true;
    return false;
}

Cycles
CompiledOp::totalVeTime() const
{
    Cycles total = 0.0;
    for (const auto &g : groups)
        for (const auto &u : g.units)
            total += u.veTime;
    return total;
}

Bytes
CompiledOp::totalBytes() const
{
    Bytes total = 0;
    for (const auto &g : groups)
        for (const auto &u : g.units)
            total += u.bytes;
    return total;
}

void
CompiledModel::validate() const
{
    if (ops.empty())
        fatal("compiled model '%s' is empty", model.c_str());
    if (nx == 0 || ny == 0)
        fatal("compiled model '%s' has zero engine widths",
              model.c_str());
    for (size_t i = 0; i < ops.size(); ++i) {
        const CompiledOp &op = ops[i];
        if (op.groups.empty())
            fatal("compiled op '%s' has no work", op.name.c_str());
        for (const auto &g : op.groups) {
            unsigned me_units = 0, ve_units = 0;
            for (const auto &u : g.units) {
                if (u.kind == UTopKind::Me) {
                    ++me_units;
                    if (u.gang == 0)
                        fatal("op '%s': ME unit with gang 0",
                              op.name.c_str());
                    if (neuIsa && u.gang != 1)
                        fatal("op '%s': NeuISA ME uTOp with gang %u",
                              op.name.c_str(), u.gang);
                    if (!neuIsa && u.gang != nx)
                        fatal("op '%s': VLIW operator ganged to %u of "
                              "%u MEs", op.name.c_str(), u.gang, nx);
                    if (u.meTime <= 0.0)
                        fatal("op '%s': ME unit with no ME time",
                              op.name.c_str());
                } else {
                    ++ve_units;
                    if (u.gang != 0)
                        fatal("op '%s': VE unit holding MEs",
                              op.name.c_str());
                    if (u.meTime != 0.0)
                        fatal("op '%s': VE unit with ME time",
                              op.name.c_str());
                }
                if (u.meEff <= 0.0 || u.meEff > 1.0)
                    fatal("op '%s': unit efficiency %.3f out of range",
                          op.name.c_str(), u.meEff);
            }
            if (neuIsa && me_units > nx)
                fatal("op '%s': group has %u ME uTOps, nx=%u",
                      op.name.c_str(), me_units, nx);
            if (neuIsa && ve_units > 1)
                fatal("op '%s': group has %u VE uTOps, max is 1",
                      op.name.c_str(), ve_units);
        }
        for (auto d : op.deps)
            if (d >= i)
                fatal("compiled op '%s' has forward dep %u",
                      op.name.c_str(), d);
    }
}

Cycles
CompiledModel::totalMeBusy() const
{
    Cycles total = 0.0;
    for (const auto &op : ops)
        for (const auto &g : op.groups)
            for (const auto &u : g.units)
                total += u.meTime * u.gang * u.meEff;
    return total;
}

Cycles
CompiledModel::totalVeBusy() const
{
    Cycles total = 0.0;
    for (const auto &op : ops)
        total += op.totalVeTime();
    return total;
}

Bytes
CompiledModel::totalBytes() const
{
    Bytes total = 0;
    for (const auto &op : ops)
        total += op.totalBytes();
    return total;
}

CompiledModel
lowerToNeuIsa(const DnnGraph &graph, unsigned nx, unsigned ny,
              const MachineModel &machine)
{
    const auto emit = [&](const TensorOp &op, CompiledOp &cop,
                          Cycles me_cycles, Cycles ve, Bytes bytes) {
        if (me_cycles > 0.0) {
            const bool reduction =
                op.parallelTiles < nx && me_cycles >= kReductionThreshold;
            const unsigned tiles =
                reduction ? nx : pickTiles(op, me_cycles, nx);
            const unsigned chunks = chunkCount(me_cycles / tiles);

            const Cycles me_per = me_cycles / (tiles * chunks);
            const Cycles ve_per = reduction ? 0.0 : ve / (tiles * chunks);
            const Bytes bytes_per = bytes / (tiles * chunks);

            for (unsigned c = 0; c < chunks; ++c) {
                WorkGroup g;
                for (unsigned t = 0; t < tiles; ++t) {
                    WorkUnit u;
                    u.kind = UTopKind::Me;
                    u.gang = 1;
                    u.meTime = me_per;
                    // Occupancy time already includes the array-fill
                    // loss; meEff reports the useful fraction so
                    // perf-counter-style utilization sees through it.
                    u.meEff = op.meEfficiency;
                    // Reduction partitioning separates the summation
                    // into a VE uTOp (no ME/VE pipelining): §III-D.
                    u.veTime = ve_per;
                    u.bytes = bytes_per;
                    g.units.push_back(u);
                }
                if (c == 0) {
                    g.units[0].bytes +=
                        bytes - bytes_per * tiles * chunks;
                }
                cop.groups.push_back(std::move(g));
            }

            if (reduction) {
                // Partial-sum accumulation: (tiles - 1) adds per output
                // element, plus the operator's own vector work, all in
                // one serialized VE uTOp group.
                const double out_elems =
                    op.veElems > 0 ? op.veElems
                                   : machine.veElemsPerCycle();
                WorkGroup sum;
                WorkUnit u;
                u.kind = UTopKind::Ve;
                u.gang = 0;
                u.veTime =
                    ve + machine.veCyclesFor(out_elems * (tiles - 1));
                sum.units.push_back(u);
                cop.groups.push_back(std::move(sum));
            }
        } else {
            const unsigned chunks = chunkCount(ve);
            for (unsigned c = 0; c < chunks; ++c) {
                WorkGroup g;
                WorkUnit u;
                u.kind = UTopKind::Ve;
                u.gang = 0;
                u.veTime = ve / chunks;
                u.bytes = bytes / chunks;
                g.units.push_back(u);
                if (c == 0)
                    g.units[0].bytes += bytes - (bytes / chunks) * chunks;
                cop.groups.push_back(std::move(g));
            }
        }
    };
    return lowerWith(graph, nx, ny, /*neu_isa=*/true, machine, emit);
}

CompiledModel
lowerToVliw(const DnnGraph &graph, unsigned k_mes, unsigned k_ves,
            const MachineModel &machine)
{
    const auto emit = [&](const TensorOp &op, CompiledOp &cop,
                          Cycles me_cycles, Cycles ve, Bytes bytes) {
        WorkGroup g;
        WorkUnit u;
        if (me_cycles > 0.0) {
            // Classic VLIW: either enough independent tiles exist to
            // fill all k MEs, or the compiler partitions the reduction
            // dimension (pipelining the partial-sum adds into the VE
            // slots — no serialization penalty, unlike NeuISA), or the
            // operator genuinely cannot fill the machine and the spare
            // MEs idle while still being occupied (Fig. 9).
            unsigned eff = std::min(k_mes, op.parallelTiles);
            if (eff < k_mes && me_cycles >= kReductionThreshold)
                eff = k_mes;
            u.kind = UTopKind::Me;
            u.gang = k_mes;
            u.meTime = me_cycles / eff;
            // Tile-packing waste x array-fill waste: the useful
            // fraction of the held engine-cycles.
            u.meEff = static_cast<double>(eff) / k_mes *
                      op.meEfficiency;
        } else {
            u.kind = UTopKind::Ve;
            u.gang = 0;
        }
        u.veTime = ve;
        u.bytes = bytes;
        g.units.push_back(u);
        cop.groups.push_back(std::move(g));
    };
    return lowerWith(graph, k_mes, k_ves, /*neu_isa=*/false, machine,
                     emit);
}

NeuIsaProgram
emitNeuIsaProgram(const DnnGraph &graph, unsigned nx, unsigned ny,
                  const MachineModel &machine)
{
    const CompiledModel cm = lowerToNeuIsa(graph, nx, ny, machine);

    NeuIsaProgram prog;
    prog.maxMeUTopsPerGroup = nx;
    prog.numVeSlots = ny;

    double total_insts = 0.0;
    for (const auto &op : cm.ops)
        for (const auto &g : op.groups)
            for (const auto &u : g.units)
                total_insts += u.meTime / kMePopCycles + u.veTime + 2;
    if (total_insts > 2e6)
        fatal("model '%s' is too large for full instruction listing "
              "(%.0f instructions); use lowerToNeuIsa() for simulation",
              graph.model.c_str(), total_insts);

    // Cache shared snippets: uTOps with identical costs reuse one
    // snippet, mirroring NeuISA's code-inflation mitigation.
    std::unordered_map<std::string, std::uint32_t> cache;

    auto snippet_for = [&](const WorkUnit &u) -> std::uint32_t {
        const std::string key = csprintf(
            "%d|%.6f|%.6f|%llu", static_cast<int>(u.kind), u.meTime,
            u.veTime, static_cast<unsigned long long>(u.bytes));
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;

        UTop utop;
        utop.kind = u.kind;
        utop.cost.meCycles = u.meTime;
        utop.cost.veCycles = u.veTime;
        utop.cost.hbmBytes = u.bytes;

        const unsigned me_slots = u.kind == UTopKind::Me ? 1 : 0;
        if (u.kind == UTopKind::Me) {
            const auto pops = static_cast<unsigned>(
                std::ceil(u.meTime / kMePopCycles));
            const auto ve_per_pop = pops == 0 ? 0.0 : u.veTime / pops;
            double ve_debt = 0.0;
            for (unsigned p = 0; p < pops; ++p) {
                VliwInstruction inst;
                inst.me.resize(1);
                inst.ve.resize(ny);
                inst.me[0] = {MeOpcode::Pop,
                              static_cast<std::uint8_t>(p % 256)};
                ve_debt += ve_per_pop;
                for (unsigned v = 0; v < ny && ve_debt >= 1.0; ++v) {
                    inst.ve[v] = {VeOpcode::Relu,
                                  static_cast<std::uint8_t>(v),
                                  static_cast<std::uint8_t>(v), 0};
                    ve_debt -= 1.0;
                }
                utop.code.push_back(inst);
            }
        } else {
            const auto ve_insts = static_cast<unsigned>(
                std::ceil(u.veTime / std::max(1u, ny)));
            for (unsigned i = 0; i < ve_insts; ++i) {
                VliwInstruction inst;
                inst.ve.resize(ny);
                for (unsigned v = 0; v < ny; ++v)
                    inst.ve[v] = {VeOpcode::Add,
                                  static_cast<std::uint8_t>(v),
                                  static_cast<std::uint8_t>(v), 0};
                utop.code.push_back(inst);
            }
        }
        VliwInstruction fin;
        fin.me.resize(me_slots);
        fin.ve.resize(ny);
        fin.misc.op = MiscOpcode::UTopFinish;
        utop.code.push_back(fin);

        const auto idx = static_cast<std::uint32_t>(prog.snippets.size());
        prog.snippets.push_back(std::move(utop));
        cache.emplace(key, idx);
        return idx;
    };

    for (const auto &op : cm.ops) {
        for (const auto &g : op.groups) {
            UTopGroup grp;
            for (const auto &u : g.units) {
                const std::uint32_t snip = snippet_for(u);
                if (u.kind == UTopKind::Me)
                    grp.meUTops.push_back(snip);
                else
                    grp.veUTop = snip;
            }
            prog.table.push_back(std::move(grp));
        }
    }

    prog.validate();
    return prog;
}

} // namespace neu10
