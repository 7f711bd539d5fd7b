/**
 * @file
 * Observability-subsystem tests: TraceBuffer recording semantics,
 * Trace merging/export (Chrome trace-event JSON shape, metadata,
 * async-id salting, non-finite arg sanitization, number formats,
 * same-timestamp order, file writes and their failures),
 * MetricsRegistry bookkeeping, and the determinism contract
 * end-to-end: a traced fleet run must produce byte-identical trace
 * files at any FleetConfig::threads width and under a board-loss
 * fault — and tracing must not perturb the simulation results.
 */

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "cluster/fleet.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "resilience/faults.hh"

namespace neu10
{
namespace
{

// ---------------------------------------------------- TraceBuffer

TEST(TraceBuffer, DisabledDropsEverything)
{
    TraceBuffer buf;
    EXPECT_FALSE(buf.enabled());
    buf.instant(10.0, "request", "admit", "tenant", 1.0);
    buf.span(0.0, 5.0, "engine", "advance");
    buf.asyncSpan(7, 0.0, 5.0, "request", "execute");
    EXPECT_TRUE(buf.empty());
}

TEST(TraceBuffer, RecordsPhasesAndArgs)
{
    TraceBuffer buf(true);
    buf.instant(10.0, "request", "admit", "tenant", 3.0, "depth",
                2.0);
    buf.span(20.0, 50.0, "engine", "advance", "units", 4.0);
    buf.asyncSpan(42, 30.0, 90.0, "request", "execute", "tenant",
                  1.0);
    ASSERT_EQ(buf.size(), 3u);

    const TraceEvent &i = buf.events()[0];
    EXPECT_EQ(i.phase, 'i');
    EXPECT_DOUBLE_EQ(i.at, 10.0);
    EXPECT_EQ(i.nargs, 2);
    EXPECT_STREQ(i.args[0].key, "tenant");
    EXPECT_DOUBLE_EQ(i.args[0].value, 3.0);

    const TraceEvent &x = buf.events()[1];
    EXPECT_EQ(x.phase, 'X');
    EXPECT_DOUBLE_EQ(x.dur, 30.0);

    const TraceEvent &b = buf.events()[2];
    EXPECT_EQ(b.phase, 'b');
    EXPECT_EQ(b.id, 42u);
    EXPECT_DOUBLE_EQ(b.dur, 60.0);
}

// ---------------------------------------------------------- Trace

TEST(Trace, ExportShapeMetadataAndOrdering)
{
    Trace trace;
    trace.setTopology(/*coresPerBoard=*/2, /*numBoards=*/1);
    trace.setFreqHz(1e6); // 1 cycle == 1 us: readable timestamps

    TraceBuffer core0(true);
    core0.instant(5.0, "request", "complete", "latency", 7.0);
    TraceBuffer ctl(true);
    ctl.span(0.0, 10.0, "fleet", "epoch");

    trace.append(0, core0, /*offset=*/0.0, /*idSalt=*/0);
    trace.append(Trace::kControllerTrack, ctl, 0.0, 0);
    EXPECT_EQ(trace.totalEvents(), 2u);

    const std::string json = trace.chromeJson();
    // Controller pseudo-process after the board pids.
    EXPECT_NE(json.find("\"controller\""), std::string::npos);
    EXPECT_NE(json.find("\"board 0\""), std::string::npos);
    EXPECT_NE(json.find("\"core 0\""), std::string::npos);
    // The instant, converted at 1 MHz (5 cycles -> 5 us).
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":5"), std::string::npos);
    EXPECT_NE(json.find("\"latency\":7"), std::string::npos);
    // The controller span.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":10"), std::string::npos);
}

TEST(Trace, AppendShiftsTimesAndSaltsIds)
{
    Trace trace;
    trace.setTopology(1, 1);

    TraceBuffer epoch1(true);
    epoch1.asyncSpan(3, 1.0, 2.0, "request", "execute");
    trace.append(0, epoch1, /*offset=*/100.0,
                 /*idSalt=*/std::uint64_t{2} << 56);

    const auto &events = trace.tracks().at(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_DOUBLE_EQ(events[0].at, 101.0);
    EXPECT_EQ(events[0].id, (std::uint64_t{2} << 56) + 3u);
}

TEST(Trace, AsyncSpanExpandsToBalancedBeginEnd)
{
    Trace trace;
    trace.setTopology(1, 1);
    TraceBuffer buf(true);
    buf.asyncSpan(9, 0.0, 4.0, "request", "queue");
    trace.append(0, buf, 0.0, 0);

    const std::string json = trace.chromeJson();
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":\"0x9\""), std::string::npos);
}

TEST(Trace, NonFiniteArgsExportAsMinusOne)
{
    // kCyclesInf fault durations (a board lost for good) must not
    // leak "inf" into the JSON — there is no such literal.
    Trace trace;
    trace.setTopology(1, 1);
    TraceBuffer buf(true);
    buf.instant(0.0, "fault", "fault-onset", "duration",
                std::numeric_limits<double>::infinity());
    trace.append(0, buf, 0.0, 0);

    const std::string json = trace.chromeJson();
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_NE(json.find("\"duration\":-1"), std::string::npos);
}

TEST(Trace, CarriedBacklogNegativeStampsClampToZero)
{
    // Requests carried across an epoch boundary re-anchor with
    // negative buffer-relative stamps; the export clamps to 0
    // rather than emitting negative timestamps Perfetto rejects.
    Trace trace;
    trace.setTopology(1, 1);
    TraceBuffer buf(true);
    buf.instant(-5.0, "request", "complete");
    trace.append(0, buf, 0.0, 0);

    EXPECT_NE(trace.chromeJson().find("\"ts\":0"),
              std::string::npos);
    EXPECT_EQ(trace.chromeJson().find("\"ts\":-"),
              std::string::npos);
}

TEST(Trace, FileWriteEqualsChromeJson)
{
    // Three tracks and several times stdio's buffer, so the bytes reach
    // the file in more than one write.
    Trace trace;
    trace.setTopology(2, 2);
    for (const int track : {Trace::kControllerTrack, 0, 3}) {
        TraceBuffer buf(true);
        for (int i = 0; i < 1000; ++i) {
            const double at = 10.0 * i;
            buf.asyncSpan(i + 1, at, at + 25.0, "request", "execute",
                          "tenant", i % 4);
            buf.instant(at + 3.0, "request", "admit", "tenant", 1.0,
                        "depth", i % 7);
        }
        trace.append(track, buf, 0.0, 0);
    }
    const std::string json = trace.chromeJson();
    ASSERT_GT(json.size(), 4u * 64 * 1024);

    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(trace.writeChromeJson(f));
    std::rewind(f);
    std::string written(json.size() + 1, '\0');
    written.resize(std::fread(written.data(), 1, written.size(), f));
    std::fclose(f);
    EXPECT_EQ(written, json);
}

TEST(Trace, WriteFailuresAreReported)
{
    Trace trace;
    trace.setTopology(1, 1);
    TraceBuffer buf(true);
    buf.instant(0.0, "request", "complete");
    trace.append(0, buf, 0.0, 0);
    // The file cannot be opened.
    EXPECT_FALSE(trace.writeChromeJson("/no/such/dir/trace.json"));
    EXPECT_FALSE(MetricsRegistry(true).writeJson(
        "/no/such/dir/trace.json.metrics.json", 1e9));
    // The bytes fit the stdio buffer, so only fclose() sees the full
    // device's ENOSPC.
    EXPECT_FALSE(trace.writeChromeJson("/dev/full"));
    EXPECT_FALSE(MetricsRegistry(true).writeJson("/dev/full", 1e9));
    // A read-only stream takes no bytes: the write comes up short.
    std::FILE *ro = std::fopen("/dev/null", "r");
    ASSERT_NE(ro, nullptr);
    EXPECT_FALSE(trace.writeChromeJson(ro));
    std::fclose(ro);
}

TEST(Trace, SameTimestampRowsKeepRecordingOrder)
{
    // Four rows share ts 5: an instant recorded before a 'b', that
    // 'b' event's 'e', then an instant and an 'X' recorded after it.
    // The 'e' takes its 'b' event's place in recording order.
    Trace trace;
    trace.setTopology(1, 1);
    trace.setFreqHz(1e6);
    TraceBuffer buf(true);
    buf.instant(5.0, "request", "admit");
    buf.asyncSpan(1, 0.0, 5.0, "request", "execute");
    buf.instant(5.0, "request", "complete");
    buf.span(5.0, 6.0, "engine", "advance");
    trace.append(0, buf, 0.0, 0);

    const std::string json = trace.chromeJson();
    const std::string rows[] = {
        R"({"ph":"b","pid":0,"tid":0,"ts":0.000000,"cat":"request",)"
        R"("name":"execute","id":"0x1"})",
        R"({"ph":"i","pid":0,"tid":0,"ts":5.000000,"s":"t",)"
        R"("cat":"request","name":"admit"})",
        R"({"ph":"e","pid":0,"tid":0,"ts":5.000000,"cat":"request",)"
        R"("name":"execute","id":"0x1"})",
        R"({"ph":"i","pid":0,"tid":0,"ts":5.000000,"s":"t",)"
        R"("cat":"request","name":"complete"})",
        R"({"ph":"X","pid":0,"tid":0,"ts":5.000000,"dur":1.000000,)"
        R"("cat":"engine","name":"advance"}
]})",
    };
    size_t prev = 0;
    for (const std::string &row : rows) {
        const size_t at = json.find(",\n" + row, prev);
        ASSERT_NE(at, std::string::npos) << row;
        prev = at + 1;
    }
}

TEST(Trace, ExportFormatsEdgeValues)
{
    Trace trace;
    trace.setTopology(1, 1);
    trace.setFreqHz(1e6); // 1 cycle == 1 us
    TraceBuffer buf(true);
    buf.instant(1500000000000.75, "fault", "fault-onset", "a", 1e-7,
                "b", 123456789012.0, "c", -0.5);
    buf.span(1500000000000.75, 1500000000002.25, "engine", "advance");
    buf.asyncSpan(7, 0.0, 1.0, "request", "queue");
    trace.append(0, buf, 0.0, /*idSalt=*/std::uint64_t{81} << 56);

    const std::string json = trace.chromeJson();
    // Fixed notation with six decimals, above 1e12 cycles.
    EXPECT_NE(json.find(R"("ts":1500000000000.750000,"s":"t")"),
              std::string::npos);
    EXPECT_NE(json.find(R"("ts":1500000000000.750000,"dur":1.500000,)"),
              std::string::npos);
    // Nine significant digits, exponent form where %g picks it.
    EXPECT_NE(json.find(R"("args":{"a":1e-07,"b":1.23456789e+11,)"
                        R"("c":-0.5}})"),
              std::string::npos);
    // The salt lands in the top byte; the id prints in lower-case hex.
    EXPECT_NE(json.find(R"("id":"0x5100000000000007"})"),
              std::string::npos);
    EXPECT_NE(json.find(R"("otherData": {"clock_hz": 1000000},)"),
              std::string::npos);
}

// -------------------------------------------------------- metrics

TEST(Metrics, RegistryRoundTrip)
{
    MetricsRegistry mx(true);
    const MetricId c = mx.counter("fleet.completed");
    const MetricId g = mx.gauge("fleet.backlog");
    const MetricId h = mx.histogram("fleet.epoch_completed");

    mx.add(c, 5.0);
    mx.add(c, 3.0);
    mx.set(g, 7.0);
    mx.observe(h, 10.0);
    mx.observe(h, 20.0);
    mx.sample(100.0);
    mx.set(g, 2.0);
    mx.sample(200.0);

    EXPECT_DOUBLE_EQ(mx.value(c), 8.0);
    EXPECT_DOUBLE_EQ(mx.value(g), 2.0);
    ASSERT_NE(mx.find("fleet.backlog"), nullptr);

    const std::string json = mx.json(1e6);
    EXPECT_NE(json.find("\"neu10-metrics-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"fleet.completed\""), std::string::npos);
    EXPECT_NE(json.find("\"histogram\""), std::string::npos);
}

TEST(Metrics, DuplicateRegistrationReturnsSameId)
{
    MetricsRegistry mx(true);
    EXPECT_EQ(mx.counter("a"), mx.counter("a"));
}

TEST(Metrics, DisabledRegistryIsInert)
{
    MetricsRegistry mx; // disabled
    const MetricId c = mx.counter("fleet.completed");
    mx.add(c, 5.0);
    mx.sample(100.0);
    EXPECT_DOUBLE_EQ(mx.value(c), 0.0);
    ASSERT_NE(mx.find("fleet.completed"), nullptr);
    EXPECT_TRUE(mx.find("fleet.completed")->series.empty());
}

// --------------------------------------- end-to-end determinism

/** 8 tenants on 2 boards x 4 cores, a few epochs, engine events on
 * — small enough that the string compares stay cheap, busy enough
 * that every event category fires. */
FleetConfig
tracedFleet(unsigned threads, bool board_loss = false)
{
    FleetConfig cfg;
    cfg.numBoards = 2; // x (2 chips x 2 cores) = 8 cores
    cfg.placement = PlacementPolicy::LoadBalanced;
    cfg.horizon = 2e6;
    cfg.maxCycles = 2e8;
    cfg.elastic.epochs = 3;
    cfg.threads = threads;
    cfg.trace.enabled = true;
    cfg.trace.engineEvents = true;
    cfg.trace.metrics = true;

    if (board_loss) {
        FaultEvent ev;
        ev.at = 0.4 * cfg.horizon;
        ev.kind = FaultKind::BoardLoss;
        ev.board = 1;
        ev.durationCycles = kCyclesInf;
        cfg.resilience.faults = {ev};
        cfg.resilience.failover = true;
        cfg.resilience.recoveryStallCycles = 1e5;
    }

    const ModelId models[] = {ModelId::Mnist, ModelId::Ncf};
    for (unsigned i = 0; i < 8; ++i) {
        ClusterTenantSpec t;
        t.model = models[i % 2];
        t.batch = 8;
        t.eus = 4;
        t.traffic.ratePerSec = 8000.0;
        t.traffic.seed = 100 + i;
        t.sloCycles = 2e5;
        t.maxQueueDepth = 16;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

TEST(TraceDeterminism, ByteIdenticalAcrossThreadWidths)
{
    const auto serial = runFleet(tracedFleet(1));
    const auto wide = runFleet(tracedFleet(8));
    EXPECT_GT(serial.trace.totalEvents(), 0u);
    EXPECT_EQ(serial.trace.chromeJson(), wide.trace.chromeJson());
    EXPECT_EQ(serial.metrics.json(1e9), wide.metrics.json(1e9));
}

TEST(TraceDeterminism, ByteIdenticalUnderBoardLossFailover)
{
    const auto a = runFleet(tracedFleet(1, /*board_loss=*/true));
    const auto b = runFleet(tracedFleet(4, /*board_loss=*/true));
    EXPECT_GT(a.failovers, 0u);
    const std::string ja = a.trace.chromeJson();
    EXPECT_EQ(ja, b.trace.chromeJson());
    // The failover story is reconstructable from the trace alone.
    EXPECT_NE(ja.find("fault-onset"), std::string::npos);
    EXPECT_NE(ja.find("quarantine"), std::string::npos);
    EXPECT_NE(ja.find("checkpoint"), std::string::npos);
    EXPECT_NE(ja.find("restore"), std::string::npos);
    EXPECT_NE(ja.find("hc-create-vnpu"), std::string::npos);
}

TEST(TraceDeterminism, TracingDoesNotPerturbResults)
{
    FleetConfig traced = tracedFleet(2);
    FleetConfig off = traced;
    off.trace = TraceConfig{};

    const auto rt = runFleet(traced);
    const auto ro = runFleet(off);
    EXPECT_EQ(ro.trace.totalEvents(), 0u);
    EXPECT_EQ(rt.submitted, ro.submitted);
    EXPECT_EQ(rt.completed, ro.completed);
    EXPECT_EQ(rt.rejected, ro.rejected);
    EXPECT_DOUBLE_EQ(rt.makespan, ro.makespan);
    EXPECT_DOUBLE_EQ(rt.p99(), ro.p99());
}

} // anonymous namespace
} // namespace neu10
