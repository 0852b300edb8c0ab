// Unified observability layer (src/obs/): metrics registry semantics and
// exposition formats, the trace store's interning and SLTB file format, and the
// online per-task analytics observer including the priority-inversion
// detector. The cross-personality guarantees of the analytics metrics are
// pinned separately in tests/test_conformance.cpp.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analytics.hpp"
#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"
#include "trace_scenario.hpp"

using namespace slm;
using namespace slm::obs;
using namespace slm::time_literals;

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, GetOrCreateAddressesTheSameSeries) {
    Registry reg;
    Counter& a = reg.counter("slm_test_total", "h", {{"task", "x"}});
    Counter& b = reg.counter("slm_test_total", "h", {{"task", "x"}});
    Counter& c = reg.counter("slm_test_total", "h", {{"task", "y"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.family_count(), 1u);
    a.inc(2);
    EXPECT_EQ(reg.find_counter("slm_test_total", {{"task", "x"}})->value(), 2u);
}

TEST(Registry, LabelOrderDoesNotMatter) {
    Registry reg;
    Counter& a = reg.counter("slm_t", "h", {{"b", "2"}, {"a", "1"}});
    Counter& b = reg.counter("slm_t", "h", {{"a", "1"}, {"b", "2"}});
    EXPECT_EQ(&a, &b);
}

TEST(Registry, FindReturnsNullForAbsentOrWrongKind) {
    Registry reg;
    reg.counter("slm_c", "h");
    EXPECT_EQ(reg.find_counter("slm_missing"), nullptr);
    EXPECT_EQ(reg.find_counter("slm_c", {{"task", "x"}}), nullptr);
    EXPECT_EQ(reg.find_gauge("slm_c"), nullptr);  // exists, but as a counter
    EXPECT_NE(reg.find_counter("slm_c"), nullptr);
}

TEST(Registry, GaugeSourceOverridesSetValue) {
    Registry reg;
    Gauge& g = reg.gauge("slm_g", "h");
    g.set(3.0);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    double live = 7.0;
    g.set_source([&live] { return live; });
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    live = 9.0;
    EXPECT_DOUBLE_EQ(g.value(), 9.0);  // read-through, not a snapshot
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, CountsSumsAndBuckets) {
    Histogram h{{10.0, 20.0, 30.0}};
    for (const double v : {5.0, 15.0, 25.0, 100.0}) {
        h.observe(v);
    }
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 145.0);
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 36.25);
    // Non-cumulative per-bucket counts; the trailing entry is the +Inf bucket.
    const std::vector<std::uint64_t> expected{1, 1, 1, 1};
    EXPECT_EQ(h.bucket_counts(), expected);
}

TEST(HistogramTest, QuantilesAreMonotoneAndClampedToObservedRange) {
    Histogram h{{10.0, 20.0, 30.0}};
    for (const double v : {5.0, 15.0, 25.0}) {
        h.observe(v);
    }
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 25.0);
    const double p50 = h.quantile(0.5);
    EXPECT_GE(p50, 5.0);
    EXPECT_LE(p50, 25.0);
    EXPECT_LE(h.quantile(0.25), p50);
    EXPECT_LE(p50, h.quantile(0.75));
}

TEST(HistogramTest, QuantileNeverInterpolatesPastObservedMax) {
    // One sample in a very wide bucket: naive interpolation would report a
    // value far above the only observation.
    Histogram h{{1000.0}};
    h.observe(7.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.0);
}

TEST(HistogramTest, EmptyHistogramIsDefined) {
    Histogram h{Histogram::default_time_bounds_ns()};
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Exposition formats

TEST(Exposition, PrometheusTextFormat) {
    Registry reg;
    reg.counter("slm_events_total", "events seen", {{"task", "drv"}}).inc(4);
    reg.gauge("slm_depth", "queue depth").set(2.5);
    Histogram& h = reg.histogram("slm_lat_ns", "latency", {10.0, 100.0});
    h.observe(5.0);
    h.observe(50.0);
    std::ostringstream os;
    reg.write_prometheus(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("# HELP slm_events_total events seen\n"), std::string::npos)
        << out;
    EXPECT_NE(out.find("# TYPE slm_events_total counter\n"), std::string::npos);
    EXPECT_NE(out.find("slm_events_total{task=\"drv\"} 4\n"), std::string::npos);
    EXPECT_NE(out.find("# TYPE slm_depth gauge\n"), std::string::npos);
    EXPECT_NE(out.find("slm_depth 2.5\n"), std::string::npos);
    EXPECT_NE(out.find("# TYPE slm_lat_ns histogram\n"), std::string::npos);
    // Buckets are cumulative and end with +Inf; _sum/_count close the series.
    EXPECT_NE(out.find("slm_lat_ns_bucket{le=\"10\"} 1\n"), std::string::npos) << out;
    EXPECT_NE(out.find("slm_lat_ns_bucket{le=\"100\"} 2\n"), std::string::npos);
    EXPECT_NE(out.find("slm_lat_ns_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
    EXPECT_NE(out.find("slm_lat_ns_sum 55\n"), std::string::npos);
    EXPECT_NE(out.find("slm_lat_ns_count 2\n"), std::string::npos);
}

TEST(Exposition, PrometheusEscapesLabelValues) {
    Registry reg;
    reg.counter("slm_esc_total", "h", {{"task", "a\"b\\c\nd"}}).inc();
    std::ostringstream os;
    reg.write_prometheus(os);
    EXPECT_NE(os.str().find(R"(task="a\"b\\c\nd")"), std::string::npos) << os.str();
}

TEST(Exposition, JsonSharesTheChromeTraceEscaper) {
    const std::string nasty = "a\"b\\c\nd";
    Registry reg;
    reg.counter("slm_esc_total", "h", {{"task", nasty}}).inc();
    std::ostringstream os;
    reg.write_json(os);
    // Whatever trace::json_escape produces is what must land in the JSON --
    // one escaping routine for both exporters (no second implementation to
    // drift).
    EXPECT_NE(os.str().find(trace::json_escape(nasty)), std::string::npos) << os.str();
    EXPECT_NE(os.str().find("\"metrics\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stats-struct re-registration

TEST(StatsRegistration, KernelStatsReadThroughLive) {
    sim::Kernel k;
    k.spawn("p", [&] { k.waitfor(5_us); });
    Registry reg;
    register_kernel_stats(reg, k);
    k.run();
    // Registered before the run, read after it: callback gauges see the
    // current struct, not a snapshot from registration time.
    const Gauge* created = reg.find_gauge("slm_kernel_processes_created");
    ASSERT_NE(created, nullptr);
    EXPECT_DOUBLE_EQ(created->value(),
                     static_cast<double>(k.stats().processes_created));
    EXPECT_DOUBLE_EQ(reg.find_gauge("slm_kernel_now_ns")->value(),
                     static_cast<double>(k.now().ns()));
}

TEST(StatsRegistration, OsAndTaskStatsCarryLabels) {
    sim::Kernel k;
    rtos::RtosModel os{k, {}};
    os.init();
    rtos::Task* t = os.task_create("worker", rtos::TaskType::Aperiodic, {}, {}, 1);
    k.spawn("worker", [&] {
        os.task_activate(t);
        os.time_wait(10_us);
        os.task_terminate();
    });
    os.start();
    k.run();
    Registry reg;
    register_os_stats(reg, os);
    const Labels cpu{{"cpu", "cpu0"}};
    const Gauge* switches = reg.find_gauge("slm_os_context_switches", cpu);
    ASSERT_NE(switches, nullptr);
    EXPECT_DOUBLE_EQ(switches->value(),
                     static_cast<double>(os.stats().context_switches));
    // register_os_stats covers every task existing at call time.
    const Gauge* act =
        reg.find_gauge("slm_task_activations", {{"cpu", "cpu0"}, {"task", "worker"}});
    ASSERT_NE(act, nullptr);
    EXPECT_DOUBLE_EQ(act->value(), 1.0);
}

// ---------------------------------------------------------------------------
// The trace store's interned records and SLTB file format

using slm::test::record_scenario;
using trace::TraceRecorder;

TEST(BinaryTrace, InternsRepeatedStringsOnce) {
    TraceRecorder bin;
    for (int i = 0; i < 1000; ++i) {
        bin.task_state(microseconds(static_cast<std::uint64_t>(i)), "PE0", "drv",
                       "Running");
    }
    EXPECT_EQ(bin.size(), 1000u);
    // "", "PE0", "drv", "Running" -- nothing else, no matter how many records.
    EXPECT_EQ(bin.string_count(), 4u);
    EXPECT_EQ(bin.str(0), "");  // the empty string is always id 0
}

TEST(BinaryTrace, RecordsCarryKindAndInternedIds) {
    TraceRecorder bin;
    bin.context_switch(2_us, "PE0", "b", "a");
    ASSERT_EQ(bin.size(), 1u);
    const TraceRecorder::BinRecord& r = bin.record(0);
    EXPECT_EQ(r.t_ns, 2000u);
    EXPECT_EQ(r.kind, trace::RecordKind::ContextSwitch);
    EXPECT_EQ(bin.str(r.cpu), "PE0");
    EXPECT_EQ(bin.str(r.actor), "b");   // incoming
    EXPECT_EQ(bin.str(r.detail), "a");  // outgoing
}

TEST(BinaryTrace, ChromeTraceSurvivesSaveLoadRoundTrip) {
    TraceRecorder bin;
    record_scenario(bin);
    std::ostringstream before;
    bin.write_chrome_trace(before);

    std::stringstream file;
    bin.save(file);
    TraceRecorder loaded;
    ASSERT_TRUE(loaded.load(file));
    std::ostringstream after;
    loaded.write_chrome_trace(after);
    EXPECT_EQ(before.str(), after.str());
}

TEST(BinaryTrace, SaveLoadRoundTrip) {
    TraceRecorder bin;
    record_scenario(bin);
    std::stringstream file;
    bin.save(file);

    TraceRecorder loaded;
    loaded.marker(0_us, "stale");  // load() must replace, not append
    ASSERT_TRUE(loaded.load(file));
    ASSERT_EQ(loaded.size(), bin.size());
    for (std::size_t i = 0; i < bin.size(); ++i) {
        const auto& a = bin.record(i);
        const auto& b = loaded.record(i);
        EXPECT_EQ(a.t_ns, b.t_ns);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(bin.str(a.cpu), loaded.str(b.cpu));
        EXPECT_EQ(bin.str(a.actor), loaded.str(b.actor));
        EXPECT_EQ(bin.str(a.detail), loaded.str(b.detail));
    }
    std::ostringstream before;
    std::ostringstream after;
    bin.write_csv(before);
    loaded.write_csv(after);
    EXPECT_EQ(before.str(), after.str());
}

TEST(BinaryTrace, LoadRejectsMalformedStreams) {
    TraceRecorder bin;
    record_scenario(bin);
    std::stringstream good;
    bin.save(good);
    const std::string bytes = good.str();

    TraceRecorder sink;
    {
        std::stringstream s{"not a trace"};
        EXPECT_FALSE(sink.load(s));
        EXPECT_EQ(sink.size(), 0u);  // left cleared, not half-loaded
    }
    {
        std::stringstream s{bytes.substr(0, bytes.size() / 2)};  // truncated
        EXPECT_FALSE(sink.load(s));
        EXPECT_EQ(sink.size(), 0u);
    }
    {
        std::string corrupt = bytes;
        corrupt[0] ^= 0xFF;  // break the magic
        std::stringstream s{corrupt};
        EXPECT_FALSE(sink.load(s));
    }
}

namespace {

/// Same PRNG the fault injector uses: deterministic, no wall clock, so a
/// fuzz failure replays exactly.
std::uint64_t fuzz_next(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace

TEST(BinaryTrace, CorruptionFuzzNeverCrashes) {
    // Every prefix truncation plus a seeded storm of bit flips and byte
    // stomps. load() must either reject the stream (leaving the sink
    // cleared) or yield a well-formed trace that is safe to re-export; it
    // must never crash or index out of bounds (the caps and per-record
    // validation in load() bound every field).
    TraceRecorder bin;
    record_scenario(bin);
    std::stringstream good;
    bin.save(good);
    const std::string bytes = good.str();
    ASSERT_GT(bytes.size(), 16u);

    const auto probe = [](const std::string& data) {
        TraceRecorder sink;
        std::stringstream s{data};
        if (sink.load(s)) {
            // Whatever survived the damage must still walk and export.
            std::ostringstream out;
            sink.write_csv(out);
            sink.write_vcd(out);
            sink.write_chrome_trace(out);
        } else {
            EXPECT_EQ(sink.size(), 0u);  // rejected = cleared, not half-loaded
        }
    };

    for (std::size_t len = 0; len < bytes.size(); ++len) {
        probe(bytes.substr(0, len));
    }
    std::uint64_t rng = 0xF00DFEEDF00DFEEDull;
    for (int round = 0; round < 400; ++round) {
        std::string mutated = bytes;
        const int edits = 1 + static_cast<int>(fuzz_next(rng) % 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = fuzz_next(rng) % mutated.size();
            if (fuzz_next(rng) % 2 == 0) {
                mutated[pos] = static_cast<char>(
                    static_cast<unsigned char>(mutated[pos]) ^
                    (1u << (fuzz_next(rng) % 8)));
            } else {
                mutated[pos] = static_cast<char>(fuzz_next(rng) & 0xFF);
            }
        }
        if (fuzz_next(rng) % 4 == 0) {
            mutated.resize(fuzz_next(rng) % (mutated.size() + 1));
        }
        probe(mutated);
    }
}

TEST(BinaryTrace, ClearResetsRecordsAndAcceptsEarlierTimes) {
    TraceRecorder bin;
    bin.marker(10_us, "m");
    bin.clear();
    EXPECT_EQ(bin.size(), 0u);
    bin.marker(1_us, "after-clear");  // earlier than the cleared record: fine
    EXPECT_EQ(bin.size(), 1u);
}

TEST(BinaryTrace, ChunkBoundaryIsSeamless) {
    // Chunks double from 64 records, so 2^16 + 17 records cross ten chunk
    // boundaries; check indexed access on both sides of each.
    TraceRecorder bin;
    const std::size_t n = (1u << 16) + 17;
    for (std::size_t i = 0; i < n; ++i) {
        bin.marker(nanoseconds(i), "m");
    }
    ASSERT_EQ(bin.size(), n);
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < n; ++i) {
        mismatched += bin.record(i).t_ns == i ? 0 : 1;
    }
    EXPECT_EQ(mismatched, 0u);
    for (std::size_t start = 64; start < n; start = 2 * start + 64) {
        EXPECT_EQ(bin.record(start - 1).t_ns, start - 1);
        EXPECT_EQ(bin.record(start).t_ns, start);
    }
}

// ---------------------------------------------------------------------------
// RtosAnalytics

TEST(Analytics, LatencyResponseAndPreemptionCounters) {
    sim::Kernel kernel;
    rtos::RtosConfig cfg;
    cfg.preemption_granularity = 5_us;  // let hp preempt inside lp's time_wait
    rtos::RtosModel os{kernel, cfg};
    Registry reg;
    RtosAnalytics analytics{os, reg};
    os.init();
    rtos::Task* hp = os.task_create("hp", rtos::TaskType::Aperiodic, {}, {}, 1);
    rtos::Task* lp = os.task_create("lp", rtos::TaskType::Aperiodic, {}, {}, 5);
    kernel.spawn("hp", [&] {
        os.task_activate(hp);
        os.task_delay(10_us);
        os.time_wait(10_us);
        os.task_terminate();
    });
    kernel.spawn("lp", [&] {
        os.task_activate(lp);
        os.time_wait(30_us);
        os.task_terminate();
    });
    os.start();
    kernel.run();

    const Labels lp_labels{{"cpu", "cpu0"}, {"task", "lp"}};
    const Labels hp_labels{{"cpu", "cpu0"}, {"task", "hp"}};
    // lp loses the CPU exactly once: when hp's delay expires at 10 us.
    EXPECT_EQ(reg.find_counter("slm_task_preempted_total", lp_labels)->value(), 1u);
    EXPECT_EQ(reg.find_counter("slm_task_jobs_total", hp_labels)->value(), 1u);
    EXPECT_EQ(reg.find_counter("slm_task_jobs_total", lp_labels)->value(), 1u);
    EXPECT_EQ(reg.find_counter("slm_task_missed_total", hp_labels)->value(), 0u);
    const Histogram* lat = analytics.latency_histogram("hp");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->count(), 0u);
    const Histogram* resp = analytics.response_histogram("lp");
    ASSERT_NE(resp, nullptr);
    ASSERT_EQ(resp->count(), 1u);
    // lp runs 30 us of work but finishes at 40 us (10 us stolen by hp).
    EXPECT_DOUBLE_EQ(resp->max(), 40000.0);
    EXPECT_GT(reg.find_counter("slm_os_dispatches_total", {{"cpu", "cpu0"}})->value(),
              0u);
}

TEST(Analytics, BlockingTimeUnderPriorityInheritance) {
    sim::Kernel kernel;
    rtos::RtosConfig cfg;
    cfg.preemption_granularity = 5_us;
    rtos::RtosModel os{kernel, cfg};
    Registry reg;
    RtosAnalytics analytics{os, reg};
    os.init();
    rtos::OsMutex mtx{os, rtos::OsMutex::Protocol::PriorityInheritance, "mtx"};
    rtos::Task* low = os.task_create("low", rtos::TaskType::Aperiodic, {}, {}, 20);
    rtos::Task* high = os.task_create("high", rtos::TaskType::Aperiodic, {}, {}, 10);
    kernel.spawn("low", [&] {
        os.task_activate(low);
        mtx.lock();
        os.time_wait(50_us);
        mtx.unlock();
        os.task_terminate();
    });
    kernel.spawn("high", [&] {
        os.task_activate(high);
        os.task_delay(10_us);
        mtx.lock();
        mtx.unlock();
        os.task_terminate();
    });
    os.start();
    kernel.run();

    // high blocks from 10 us until low releases at 50 us: 40 us of blocking,
    // bounded by inheritance -- so no inversion window may be reported.
    const Labels high_labels{{"cpu", "cpu0"}, {"task", "high"}};
    EXPECT_EQ(reg.find_counter("slm_task_blocking_ns_total", high_labels)->value(),
              40000u);
    EXPECT_TRUE(analytics.findings().empty());
    EXPECT_EQ(reg.find_counter("slm_os_inversions_total", {{"cpu", "cpu0"}})->value(),
              0u);
}

namespace {

/// The Mars-Pathfinder shape: low holds the lock, high blocks on it, mid
/// (lock-free) starves low. `protocol` decides whether the window can open.
std::unique_ptr<RtosAnalytics> run_inversion_model(rtos::OsMutex::Protocol protocol,
                                                   Registry& reg) {
    sim::Kernel kernel;
    rtos::RtosConfig cfg;
    cfg.preemption_granularity = 5_us;  // preemption inside the critical section
    rtos::RtosModel os{kernel, cfg};
    auto analytics = std::make_unique<RtosAnalytics>(os, reg);
    os.init();
    rtos::OsMutex bus{os, protocol, "bus"};
    rtos::Task* low = os.task_create("low", rtos::TaskType::Aperiodic, {}, {}, 30);
    rtos::Task* mid = os.task_create("mid", rtos::TaskType::Aperiodic, {}, {}, 20);
    rtos::Task* high = os.task_create("high", rtos::TaskType::Aperiodic, {}, {}, 10);
    kernel.spawn("low", [&] {
        os.task_activate(low);
        bus.lock();
        os.time_wait(100_us);
        bus.unlock();
        os.task_terminate();
    });
    kernel.spawn("mid", [&] {
        os.task_activate(mid);
        os.task_delay(10_us);
        os.time_wait(200_us);
        os.task_terminate();
    });
    kernel.spawn("high", [&] {
        os.task_activate(high);
        os.task_delay(20_us);
        bus.lock();
        os.time_wait(10_us);
        bus.unlock();
        os.task_terminate();
    });
    os.start();
    kernel.run();
    return analytics;  // the core died with the kernel scope -- results live on
}

}  // namespace

TEST(Analytics, DetectsUnboundedInversionUnderProtocolNone) {
    Registry reg;
    const auto analytics = run_inversion_model(rtos::OsMutex::Protocol::None, reg);
    ASSERT_FALSE(analytics->findings().empty());
    const InversionFinding& f = analytics->findings().front();
    EXPECT_EQ(f.blocked, "high");
    EXPECT_EQ(f.holder, "low");
    EXPECT_EQ(f.intervener, "mid");
    EXPECT_EQ(f.resource, "bus");
    ASSERT_FALSE(f.chain.empty());
    EXPECT_EQ(f.chain.front(), "low");
    EXPECT_GT(f.end.ns(), f.start.ns());
    EXPECT_GE(reg.find_counter("slm_os_inversions_total", {{"cpu", "cpu0"}})->value(),
              1u);
}

TEST(Analytics, InheritanceClosesTheInversionWindow) {
    Registry reg;
    const auto analytics =
        run_inversion_model(rtos::OsMutex::Protocol::PriorityInheritance, reg);
    // Boosted low runs instead of mid while high waits: no unbounded window.
    EXPECT_TRUE(analytics->findings().empty());
}

TEST(Analytics, SurvivesCoreTeardown) {
    // run_inversion_model destroys kernel + core before returning; the
    // observer must have detached via on_core_teardown and still serve its
    // collected numbers (and destruct cleanly -- end of this test).
    Registry reg;
    auto analytics = run_inversion_model(rtos::OsMutex::Protocol::None, reg);
    const Histogram* lat = analytics->latency_histogram("high");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->count(), 0u);
    analytics.reset();  // must not touch the dead core
}
