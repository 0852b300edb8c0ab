#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>

#include "arch/fig3.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace_scenario.hpp"

using namespace slm;
using namespace slm::trace;
using namespace slm::time_literals;

// Counts every global allocation so tests can assert that a code path makes
// none.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
    ++g_allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc{};
}
// GCC cannot see that these deletes pair with the malloc-backed new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

TEST(Trace, ExecSpansBecomeIntervals) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "B2");
    rec.exec_end(10_us, "PE0", "B2");
    rec.exec_begin(20_us, "PE0", "B2");
    rec.exec_end(25_us, "PE0", "B2");
    const auto ivs = rec.intervals("B2");
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0], (Interval{0_us, 10_us, "B2"}));
    EXPECT_EQ(ivs[1], (Interval{20_us, 25_us, "B2"}));
}

TEST(Trace, TaskStateRunningMakesIntervals) {
    TraceRecorder rec;
    rec.task_state(0_us, "PE0", "t", "Running");
    rec.task_state(5_us, "PE0", "t", "Ready");
    rec.task_state(9_us, "PE0", "t", "Running");
    rec.task_state(12_us, "PE0", "t", "Terminated");
    const auto ivs = rec.intervals("t");
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0], (Interval{0_us, 5_us, "t"}));
    EXPECT_EQ(ivs[1], (Interval{9_us, 12_us, "t"}));
}

TEST(Trace, OpenIntervalClosedAtTraceEnd) {
    TraceRecorder rec;
    rec.task_state(0_us, "PE0", "t", "Running");
    rec.marker(30_us, "end");
    const auto ivs = rec.intervals("t");
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].end, 30_us);
}

TEST(Trace, OpenExecSpanClosedAtTraceEnd) {
    TraceRecorder rec;
    rec.exec_begin(10_us, "PE0", "t");
    rec.irq(40_us, "PE0", "ext");  // last record defines the trace end
    const auto ivs = rec.intervals("t");
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].begin, 10_us);
    EXPECT_EQ(ivs[0].end, 40_us);
}

TEST(Trace, OpenIntervalAtVeryEndOfTraceIsDropped) {
    // The span opens on the final record: closing it at the trace end would
    // make it zero-length, and zero-length intervals never surface.
    TraceRecorder rec;
    rec.marker(0_us, "start");
    rec.exec_begin(10_us, "PE0", "t");
    EXPECT_TRUE(rec.intervals("t").empty());
}

TEST(Trace, ZeroLengthIntervalsDropped) {
    TraceRecorder rec;
    rec.task_state(5_us, "PE0", "t", "Running");
    rec.task_state(5_us, "PE0", "t", "Ready");
    EXPECT_TRUE(rec.intervals("t").empty());
}

TEST(Trace, BusyTimeSumsIntervals) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "", "a");
    rec.exec_end(10_us, "", "a");
    rec.exec_begin(50_us, "", "a");
    rec.exec_end(65_us, "", "a");
    EXPECT_EQ(rec.busy_time("a"), 25_us);
}

TEST(Trace, ActorsInOrderOfAppearance) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "", "z");
    rec.exec_begin(1_us, "", "a");
    rec.task_state(2_us, "", "m", "Running");
    rec.exec_end(3_us, "", "z");
    EXPECT_EQ(rec.actors(), (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Trace, ConcurrentExecutionDetected) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_begin(5_us, "PE0", "b");  // overlaps a
    rec.exec_end(10_us, "PE0", "a");
    rec.exec_end(12_us, "PE0", "b");
    EXPECT_TRUE(rec.has_concurrent_execution("PE0"));
}

TEST(Trace, SerializedExecutionPasses) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_end(5_us, "PE0", "a");
    rec.exec_begin(5_us, "PE0", "b");
    rec.exec_end(9_us, "PE0", "b");
    EXPECT_FALSE(rec.has_concurrent_execution("PE0"));
}

TEST(Trace, ZeroLengthOverlapIsNotConcurrency) {
    // b's exec span is instantaneous inside a's span: it drops out of the
    // interval view entirely, so it must not count as concurrent execution.
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_begin(5_us, "PE0", "b");
    rec.exec_end(5_us, "PE0", "b");
    rec.exec_end(10_us, "PE0", "a");
    EXPECT_FALSE(rec.has_concurrent_execution("PE0"));
}

TEST(Trace, ConcurrencyCheckScopedToCpu) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_begin(1_us, "PE1", "b");  // different PE: overlap is fine
    rec.exec_end(5_us, "PE0", "a");
    rec.exec_end(6_us, "PE1", "b");
    EXPECT_FALSE(rec.has_concurrent_execution("PE0"));
    EXPECT_FALSE(rec.has_concurrent_execution("PE1"));
}

TEST(Trace, IrqTimesFiltered) {
    TraceRecorder rec;
    rec.irq(3_us, "PE0", "uart");
    rec.irq(7_us, "PE0", "timer");
    rec.irq(9_us, "PE0", "uart");
    EXPECT_EQ(rec.irq_times().size(), 3u);
    EXPECT_EQ(rec.irq_times("uart"), (std::vector<SimTime>{3_us, 9_us}));
    EXPECT_TRUE(rec.irq_times("spurious").empty());  // unknown name: no matches
}

TEST(Trace, IrqTimesIgnoreOtherKinds) {
    // A marker or task_state sharing an IRQ's name must not leak into the
    // filtered view -- the filter is kind-first, name-second.
    TraceRecorder rec;
    rec.marker(1_us, "uart");
    rec.task_state(2_us, "PE0", "uart", "Running");
    rec.irq(5_us, "PE0", "uart");
    EXPECT_EQ(rec.irq_times("uart"), (std::vector<SimTime>{5_us}));
}

TEST(Trace, ContextSwitchCountByCpu) {
    TraceRecorder rec;
    rec.context_switch(1_us, "PE0", "a", "<idle>");
    rec.context_switch(2_us, "PE1", "x", "<idle>");
    rec.context_switch(3_us, "PE0", "b", "a");
    EXPECT_EQ(rec.context_switches(), 3u);
    EXPECT_EQ(rec.context_switches("PE0"), 2u);
    EXPECT_EQ(rec.context_switches("PE1"), 1u);
}

TEST(Trace, CountByKind) {
    TraceRecorder rec;
    rec.marker(0_us, "m1");
    rec.irq(1_us, "", "i");
    rec.marker(2_us, "m2");
    EXPECT_EQ(rec.count(RecordKind::Marker), 2u);
    EXPECT_EQ(rec.count(RecordKind::Irq), 1u);
    EXPECT_EQ(rec.count(RecordKind::ContextSwitch), 0u);
}

TEST(Trace, ClearResets) {
    TraceRecorder rec;
    rec.marker(0_us, "m");
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
}

TEST(SpecTraceAdapterTest, RecordsDelayStepsAsExecution) {
    sim::Kernel k;
    TraceRecorder rec;
    SpecTraceAdapter adapter{k, rec, "PE0"};
    k.set_observer(&adapter);
    k.spawn("B2", [&] {
        k.waitfor(30_us);
        k.waitfor(20_us);
    });
    k.spawn("B3", [&] { k.waitfor(40_us); });
    k.run();
    EXPECT_EQ(rec.busy_time("B2"), 50_us);
    EXPECT_EQ(rec.busy_time("B3"), 40_us);
    EXPECT_TRUE(rec.has_concurrent_execution("PE0"));  // spec model overlaps
    EXPECT_EQ(rec.intervals("B2").size(), 2u);
}

TEST(SpecTraceAdapterTest, EventWaitsAreNotExecution) {
    sim::Kernel k;
    TraceRecorder rec;
    SpecTraceAdapter adapter{k, rec, "PE0"};
    k.set_observer(&adapter);
    sim::Event e{k, "e"};
    k.spawn("waiter", [&] {
        k.wait(e);          // idle: no span
        k.waitfor(10_us);   // computing: span
    });
    k.spawn("notifier", [&] {
        k.waitfor(25_us);
        k.notify(e);
    });
    k.run();
    const auto ivs = rec.intervals("waiter");
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].begin, 25_us);
    EXPECT_EQ(ivs[0].end, 35_us);
}

TEST(SpecTraceAdapterTest, FilterExcludesTestbench) {
    sim::Kernel k;
    TraceRecorder rec;
    SpecTraceAdapter adapter{k, rec, "PE0"};
    adapter.set_filter([](const std::string& name) { return name != "device"; });
    k.set_observer(&adapter);
    k.spawn("device", [&] { k.waitfor(10_us); });
    k.spawn("B1", [&] { k.waitfor(10_us); });
    k.run();
    EXPECT_EQ(rec.actors(), (std::vector<std::string>{"B1"}));
}

TEST(Trace, GanttRendersRows) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "B2");
    rec.exec_end(50_us, "PE0", "B2");
    rec.exec_begin(50_us, "PE0", "B3");
    rec.irq(75_us, "PE0", "ext");
    rec.exec_end(100_us, "PE0", "B3");
    const std::string g = rec.render_gantt(0_us, 100_us, 20);
    // B2 occupies the first half, B3 the second.
    EXPECT_NE(g.find("|##########..........|"), std::string::npos) << g;
    EXPECT_NE(g.find("|..........##########|"), std::string::npos) << g;
    EXPECT_NE(g.find('^'), std::string::npos);
}

TEST(Trace, UtilizationReport) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_end(50_us, "PE0", "a");
    rec.exec_begin(50_us, "PE0", "b");
    rec.exec_end(75_us, "PE0", "b");
    const std::string rep = rec.utilization_report(SimTime::zero(), 100_us);
    EXPECT_NE(rep.find("a"), std::string::npos);
    EXPECT_NE(rep.find("50.0%"), std::string::npos) << rep;
    EXPECT_NE(rep.find("25.0%"), std::string::npos) << rep;
}

TEST(Trace, UtilizationReportClipsToWindow) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "a");
    rec.exec_end(100_us, "PE0", "a");
    // Window covers only the second half of the interval.
    const std::string rep = rec.utilization_report(50_us, 100_us);
    EXPECT_NE(rep.find("100.0%"), std::string::npos) << rep;
    EXPECT_NE(rep.find("50 us"), std::string::npos) << rep;
}

TEST(Trace, CsvExport) {
    TraceRecorder rec;
    rec.task_state(2_us, "PE0", "t", "Running");
    std::ostringstream os;
    rec.write_csv(os);
    EXPECT_EQ(os.str(), "t_ns,kind,cpu,actor,detail\n2000,task_state,PE0,t,Running\n");
}

TEST(Trace, ChromeTraceExport) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "task_a");
    rec.irq(2_us, "PE0", "ext");
    rec.exec_end(4_us, "PE0", "task_a");
    std::ostringstream os;
    rec.write_chrome_trace(os);
    const std::string j = os.str();
    EXPECT_EQ(j.front(), '[');
    EXPECT_NE(j.find(R"("name":"task_a","ph":"X")"), std::string::npos) << j;
    EXPECT_NE(j.find(R"("dur":4.000)"), std::string::npos) << j;
    EXPECT_NE(j.find(R"("name":"irq:ext","ph":"i")"), std::string::npos);
    EXPECT_NE(j.find(R"("args":{"name":"task_a"})"), std::string::npos);
}

TEST(Trace, ChromeTraceEscapesJsonMetacharacters) {
    // Actor/IRQ names with JSON metacharacters must come out escaped -- an
    // unescaped quote would truncate the string and corrupt the whole file.
    TraceRecorder rec;
    rec.exec_begin(0_us, "PE0", "say \"hi\"\\now");
    rec.irq(2_us, "PE0", "line\nbreak");
    rec.exec_end(4_us, "PE0", "say \"hi\"\\now");
    std::ostringstream os;
    rec.write_chrome_trace(os);
    const std::string j = os.str();
    EXPECT_NE(j.find(R"("name":"say \"hi\"\\now")"), std::string::npos) << j;
    EXPECT_NE(j.find(R"("name":"irq:line\nbreak")"), std::string::npos) << j;
    EXPECT_EQ(j.find("say \"hi\""), std::string::npos);  // no unescaped quotes
}

TEST(Trace, JsonEscapeCoversControlChars) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json_escape("a\tb\nc"), "a\\tb\\nc");
    EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
}

TEST(Trace, VcdExportStructure) {
    TraceRecorder rec;
    rec.exec_begin(0_us, "", "a");
    rec.exec_end(4_us, "", "a");
    std::ostringstream os;
    rec.write_vcd(os);
    const std::string vcd = os.str();
    EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 1 ! a $end"), std::string::npos);
    EXPECT_NE(vcd.find("#0\n"), std::string::npos);
    EXPECT_NE(vcd.find("1!"), std::string::npos);
    EXPECT_NE(vcd.find("#4000\n0!"), std::string::npos);
}

TEST(Trace, EmptyRecorderAllocatesNothing) {
    // The explorer builds one recorder per path, most of which record
    // nothing: construction, a move and destruction must stay free.
    const std::size_t before = g_allocations;
    {
        TraceRecorder rec;
        TraceRecorder moved = std::move(rec);
        EXPECT_EQ(moved.size(), 0u);
        EXPECT_EQ(moved.string_count(), 1u);
    }
    EXPECT_EQ(g_allocations, before);
}

TEST(Trace, RecordsOutOfTimeOrderAreRejected) {
    EXPECT_DEATH(
        {
            TraceRecorder rec;
            rec.marker(5_us, "later");
            rec.marker(1_us, "earlier");
        },
        "nondecreasing");
}

// ---- golden exports ----
//
// The exact bytes of every exporter and of the SLTB file, for the mixed
// scenario and for the Fig. 8 architecture trace. Small outputs are pinned
// as literals, larger ones as FNV-1a digests plus length. A change here is a
// change to a published output format and must be deliberate.

namespace {

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct Exports {
    std::string csv, vcd, chrome, gantt, util, sltb;
};

Exports exports_of(const TraceRecorder& rec, SimTime t1, int width) {
    std::ostringstream csv, vcd, chrome, sltb;
    rec.write_csv(csv);
    rec.write_vcd(vcd);
    rec.write_chrome_trace(chrome);
    rec.save(sltb);
    return {csv.str(),
            vcd.str(),
            chrome.str(),
            rec.render_gantt(SimTime::zero(), t1, width),
            rec.utilization_report(SimTime::zero(), t1),
            sltb.str()};
}

void expect_digest(const std::string& out, std::uint64_t fnv, std::size_t size) {
    EXPECT_EQ(out.size(), size);
    EXPECT_EQ(fnv1a(out), fnv) << out;
}

/// save() of a load()ed file reproduces the file byte for byte.
void expect_sltb_round_trip(const std::string& sltb) {
    std::istringstream in{sltb};
    TraceRecorder loaded;
    ASSERT_TRUE(loaded.load(in));
    std::ostringstream again;
    loaded.save(again);
    EXPECT_EQ(again.str(), sltb);
}

}  // namespace

TEST(TraceGolden, ScenarioExports) {
    TraceRecorder rec;
    test::record_scenario(rec);
    const Exports e = exports_of(rec, 6_us, 24);
    EXPECT_EQ(e.csv,
              "t_ns,kind,cpu,actor,detail\n"
              "0,marker,,,start \"run\"\n"
              "1000,task_state,PE0,drv,Ready\n"
              "1000,task_state,PE0,drv,Running\n"
              "1000,context_switch,PE0,drv,<idle>\n"
              "1000,exec_begin,PE0,drv,\n"
              "3000,irq,PE0,timer,\n"
              "5000,exec_end,PE0,drv,\n"
              "5000,channel_op,,bus\\link,send\n"
              "5000,task_state,PE0,drv,Terminated\n"
              "6000,marker,,,end\n");
    EXPECT_EQ(e.chrome,
              "[\n"
              R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"drv"}},)"
              "\n"
              R"({"name":"drv","ph":"X","pid":1,"tid":1,"ts":1.000,"dur":4.000},)"
              "\n"
              R"({"name":"irq:timer","ph":"i","pid":1,"tid":0,"ts":3.000,"s":"g"})"
              "\n]\n");
    EXPECT_EQ(e.gantt,
              "drv  |....################....|\n"
              "irq               ^           \n"
              "time  0 ns .. 6 us\n");
    expect_digest(e.vcd, 0xeeda85ae33e5bb4full, 127);
    expect_digest(e.util, 0x2396cbb70375ca36ull, 74);
    expect_digest(e.sltb, 0xbb193bfceca4d3aaull, 373);
    expect_sltb_round_trip(e.sltb);
}

TEST(TraceGolden, Fig8ArchitectureExports) {
    TraceRecorder rec;
    (void)arch::run_fig3_architecture(&rec);
    EXPECT_EQ(rec.size(), 31u);
    const Exports e = exports_of(rec, 170_us, 68);
    expect_digest(e.csv, 0x093003e5516f79bcull, 1189);
    expect_digest(e.vcd, 0x20340d651e0b7c43ull, 270);
    expect_digest(e.chrome, 0xa2a01ecd0776ad7full, 784);
    expect_digest(e.gantt, 0xeedefae3fa914c01ull, 339);
    expect_digest(e.util, 0xc3d4849695333b20ull, 156);
    expect_digest(e.sltb, 0xfc2e903066ff83b8ull, 886);
    expect_sltb_round_trip(e.sltb);
}
