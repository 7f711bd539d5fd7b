/**
 * @file
 * Quickstart: the Fig. 11 end-to-end flow in ~80 lines.
 *
 * 1. Boot a hypervisor over one NPU board.
 * 2. Create a vNPU via hypercall (pay-as-you-go: 2 MEs + 2 VEs).
 * 3. Attach the guest driver, register a DMA buffer.
 * 4. Compile a model to NeuISA and launch an inference through the
 *    command buffer; poll for completion.
 *
 * Build: cmake --build build --target quickstart
 * Run:   ./build/examples/quickstart
 */

#include <cstdio>

#include "models/zoo.hh"
#include "npu/core_sim.hh"
#include "runtime/executor.hh"
#include "sched/policy.hh"
#include "sim/clock.hh"
#include "virt/driver.hh"
#include "virt/hypervisor.hh"

using namespace neu10;

int
main()
{
    // --- Host side: hypervisor over a 2-chip x 2-core board. -------
    NpuBoardConfig board;
    Hypervisor hv(board);

    // --- Simulated physical core 0 with two tenant slots. ----------
    EventQueue queue;
    std::vector<VnpuSlot> slots(2);
    for (auto &s : slots) {
        s.nMes = 2;
        s.nVes = 2;
    }
    NpuCoreSim core(queue, board.core, makePolicy(PolicyKind::Neu10),
                    slots);
    SimCommandExecutor executor(queue, core);

    // --- Guest side: create a 2ME+2VE vNPU and attach the driver. --
    VnpuConfig cfg;
    cfg.numMesPerCore = 2;
    cfg.numVesPerCore = 2;
    cfg.sramSizePerCore = 64_MiB;
    cfg.memSizePerCore = 2_GiB;

    VnpuDriver driver(hv, /*tenant=*/1, cfg);
    driver.bindExecutor(&executor);
    executor.bindSlot(driver.id(), /*slot=*/0);
    driver.registerDmaBuffer(/*guest_base=*/0x10000, /*size=*/16_MiB);

    std::printf("created vNPU %u: %s\n", driver.id(),
                driver.queryConfig().toString().c_str());

    // --- Compile ResNet-50 (batch 8) to NeuISA. ---------------------
    const DnnGraph graph = buildModel(ModelId::ResNet, 8);
    const CompiledModel program = lowerToNeuIsa(
        graph, board.core.numMes, board.core.numVes,
        board.core.machine());
    std::printf("compiled %s: %zu operators, %.2f GMACs\n",
                graph.model.c_str(), program.ops.size(),
                graph.totalMacs() / 1e9);

    // --- Fig. 11: memcpy input -> launch -> memcpy output. ---------
    const auto h2d = driver.memcpyToDevice(0x10000, 4_MiB);
    const auto launch = driver.launch(&program);
    queue.runUntil();
    const auto d2h = driver.memcpyToHost(0x10000, 1_MiB);
    queue.runUntil();

    const Clock clock(board.core.freqHz);
    std::printf("h2d done=%d  launch done=%d  d2h done=%d\n",
                driver.poll(h2d), driver.poll(launch),
                driver.poll(d2h));
    std::printf("inference finished at t=%.3f ms simulated\n",
                clock.toSeconds(queue.now()) * 1e3);
    std::printf("ME utilization %.1f%%, VE utilization %.1f%%\n",
                100.0 * core.meUseful().utilization(queue.now()),
                100.0 * core.veBusy().utilization(queue.now()));
    return 0;
}
