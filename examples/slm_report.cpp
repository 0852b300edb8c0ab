// slm-report: a full observability run report from the unified obs layer.
//
// Three sections, each exercising a different part of src/obs/:
//
//   1. Fig. 8 architecture model — recorded into a trace::TraceRecorder
//      (interned fixed-width records) for the Gantt chart and utilization
//      table; online per-task analytics (scheduling latency, response times)
//      from an obs::RtosAnalytics observer, no trace walk.
//   2. Vocoder architecture model — same instrumentation on a bigger model.
//   3. Vocoder mapping sweep — the slm::sys design-space comparison: every
//      task->PE assignment on the heterogeneous ARM+DSP platform, ranked by
//      deadline misses and latency quantiles (sys::SweepResult::ranking).
//   4. Fault injection & recovery — a deterministic slm::fault plan (overrun
//      window + one-shot crash) against a watchdog-protected workload; the
//      injection and recovery counters land in the shared registry as
//      slm_fault_* gauges.
//   5. Token span tracing — the two-PE vocoder under an obs::SpanRecorder:
//      per-frame critical paths with the exact per-category latency
//      breakdown (docs/span-tracing.md), slm_span_* gauges in the shared
//      registry, and optional exports: --spans FILE (canonical span dump)
//      and --perfetto FILE (Chrome trace-event JSON). Exporting from an
//      empty recorder is a hard error, never a silent skip.
//   6. Randomized soak sample — a small seeded slice of the slm::soak corpus
//      (docs/soak-testing.md) run under the invariant monitors and the RTA
//      differential oracle; the aggregates land in the shared registry as
//      slm_soak_* gauges.
//   7. Priority-inversion demo — three tasks sharing a Protocol::None mutex;
//      the analytics inversion detector reports the unbounded-inversion
//      window with its blocking chain, and the shared metrics registry
//      (kernel + OS gauges, analytics counters/histograms, fault counters)
//      is exported as Prometheus text (--prom) and JSON (--json).
//      ci/check_prom.sh validates that export.
//
// Usage: slm-report [--frames N] [--prom FILE] [--json FILE] [--spans FILE]
//                   [--perfetto FILE] [--quiet]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "arch/arch.hpp"
#include "arch/fig3.hpp"
#include "fault/fault.hpp"
#include "obs/analytics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "sim/kernel.hpp"
#include "soak/soak.hpp"
#include "sys/sweep.hpp"
#include "trace/trace.hpp"
#include "vocoder/models.hpp"
#include "vocoder/system.hpp"

using namespace slm;
using namespace slm::time_literals;

namespace {

bool g_quiet = false;

void heading(const char* text) {
    if (!g_quiet) {
        std::printf("\n==== %s ====\n\n", text);
    }
}

void print_task_timing(const obs::RtosAnalytics& analytics,
                       const std::vector<std::string>& tasks) {
    if (g_quiet) {
        return;
    }
    std::printf("%-14s %6s %12s %12s %12s %12s\n", "task", "jobs", "lat p50",
                "lat max", "resp mean", "resp max");
    for (const std::string& name : tasks) {
        const obs::Histogram* lat = analytics.latency_histogram(name);
        const obs::Histogram* resp = analytics.response_histogram(name);
        if (lat == nullptr) {
            continue;
        }
        const auto us = [](double ns) { return ns / 1000.0; };
        std::printf("%-14s %6llu %9.1f us %9.1f us", name.c_str(),
                    static_cast<unsigned long long>(resp ? resp->count() : 0),
                    us(lat->quantile(0.5)), us(lat->max()));
        if (resp != nullptr && resp->count() > 0) {
            std::printf(" %9.1f us %9.1f us", us(resp->mean()), us(resp->max()));
        }
        std::printf("\n");
    }
}

void print_findings(const obs::RtosAnalytics& analytics) {
    if (g_quiet) {
        return;
    }
    if (analytics.findings().empty()) {
        std::printf("no unbounded priority-inversion windows detected\n");
        return;
    }
    for (const obs::InversionFinding& f : analytics.findings()) {
        std::printf(
            "INVERSION %s..%s: %s blocked on %s (holder %s) while %s ran; chain:",
            f.start.to_string().c_str(), f.end.to_string().c_str(),
            f.blocked.c_str(), f.resource.c_str(), f.holder.c_str(),
            f.intervener.c_str());
        for (const std::string& c : f.chain) {
            std::printf(" %s", c.c_str());
        }
        std::printf("\n");
    }
}

void section_fig8() {
    heading("Fig. 8: architecture model (binary trace sink + online analytics)");
    trace::TraceRecorder rec;
    obs::Registry reg;
    std::unique_ptr<obs::RtosAnalytics> analytics;
    const arch::Fig3Result res = arch::run_fig3_architecture(
        &rec, {}, {}, [&](rtos::OsCore& os) {
            analytics = std::make_unique<obs::RtosAnalytics>(os, reg);
        });
    if (!g_quiet) {
        std::printf("%s\n",
                    rec.render_gantt(SimTime::zero(), 160_us, 72).c_str());
        std::printf("%s\n",
                    rec.utilization_report(SimTime::zero(), 160_us).c_str());
        std::printf("binary records: %zu (interned strings: %zu)\n\n",
                    rec.size(), rec.string_count());
    }
    print_task_timing(*analytics, {"task_b2", "task_b3", "task_pe"});
    if (!g_quiet) {
        std::printf("\nB2 done %s, B3 done %s, %llu context switches\n",
                    res.b2_done.to_string().c_str(), res.b3_done.to_string().c_str(),
                    static_cast<unsigned long long>(res.context_switches));
    }
}

void section_vocoder(std::size_t frames) {
    heading("Vocoder: architecture model");
    trace::TraceRecorder rec;
    obs::Registry reg;
    std::unique_ptr<obs::RtosAnalytics> analytics;
    vocoder::VocoderConfig cfg;
    cfg.frames = frames;
    cfg.tracer = &rec;
    cfg.on_os = [&](rtos::OsCore& os) {
        analytics = std::make_unique<obs::RtosAnalytics>(os, reg);
    };
    const vocoder::VocoderResult res = vocoder::run_vocoder_architecture(cfg);
    print_task_timing(*analytics, {"driver", "encoder", "decoder"});
    if (!g_quiet) {
        std::printf("\n%s\n",
                    rec.render_gantt(SimTime::zero(), res.sim_duration, 72).c_str());
        std::printf("%zu frames, %llu context switches, avg delay %s, data %s\n",
                    res.frames,
                    static_cast<unsigned long long>(res.context_switches),
                    res.avg_transcoding_delay.to_string().c_str(),
                    res.data_ok ? "ok" : "CORRUPT");
    }
}

void section_mapping_sweep(std::size_t frames) {
    heading("Vocoder mapping sweep (heterogeneous ARM+DSP platform)");
    vocoder::VocoderConfig cfg;
    cfg.frames = frames;
    const sys::AppSpec app = vocoder::vocoder_app_spec(cfg.frames);
    const sys::PlatformSpec platform = vocoder::vocoder_sweep_platform(cfg);
    const std::vector<sys::MappingSpec> candidates =
        sys::enumerate_mappings(app, platform, vocoder::vocoder_enum_options());
    sys::SweepConfig scfg;
    scfg.options.base_rtos = cfg.rtos;
    scfg.attribute = true;  // every candidate annotated with its bottleneck
    const sys::SweepResult result = sys::run_sweep(app, platform, candidates, scfg,
                                                   vocoder::vocoder_setup(cfg));
    if (g_quiet) {
        return;
    }
    const std::vector<std::size_t> ranking = result.ranking();
    std::printf("%-4s %-42s %6s %12s %12s %10s %-10s\n", "rank", "mapping", "misses",
                "lat p95", "lat max", "bus busy", "bottleneck");
    for (std::size_t r = 0; r < ranking.size(); ++r) {
        const sys::CandidateResult& c = result.candidates[ranking[r]];
        SimTime bus_busy;
        for (const sys::BusMetrics& b : c.metrics.buses) {
            bus_busy += b.busy;
        }
        std::printf("%-4zu %-42s %6llu %12s %12s %10s %-10s\n", r + 1,
                    c.mapping.summary().c_str(),
                    static_cast<unsigned long long>(c.metrics.task_deadline_misses +
                                                    c.metrics.latency_misses),
                    c.metrics.latency_p95.to_string().c_str(),
                    c.metrics.latency_max.to_string().c_str(),
                    bus_busy.to_string().c_str(),
                    c.attribution.valid ? obs::to_string(c.attribution.bottleneck())
                                        : "-");
    }
    const sys::CandidateResult& best = result.candidates[ranking.front()];
    std::printf("\nbest mapping: %s (%s)", best.mapping.name.c_str(),
                best.mapping.summary().c_str());
    if (best.attribution.valid) {
        std::printf(" — worst frame %llu ns, critical path dominated by %s",
                    static_cast<unsigned long long>(best.attribution.total_ns),
                    obs::to_string(best.attribution.bottleneck()));
    }
    std::printf("\n");
}

/// Section 5: the two-PE vocoder under span tracing — per-frame critical
/// paths (exactness checked), slm_span_* gauges, optional exports.
int section_spans(obs::Registry& reg, std::size_t frames, const std::string& spans_path,
                  const std::string& perfetto_path) {
    heading("Token span tracing (two-PE vocoder, critical-path attribution)");
    vocoder::VocoderConfig cfg;
    cfg.frames = frames;
    obs::SpanRecorder rec;
    {
        sys::SystemOptions opts;
        opts.base_rtos = cfg.rtos;
        opts.spans = &rec;
        sys::System system{vocoder::vocoder_app_spec(cfg.frames),
                           vocoder::vocoder_two_pe_platform(cfg),
                           vocoder::vocoder_split_mapping(), opts};
        (void)vocoder::attach_vocoder_behaviors(system, cfg);
        system.run();
    }
    const std::vector<obs::CriticalPath> paths = obs::extract_critical_paths(rec);
    bool all_exact = true;
    for (const obs::CriticalPath& cp : paths) {
        all_exact = all_exact && cp.exact();
    }
    if (!g_quiet) {
        std::printf("%zu spans over %zu frames; critical-path sums %s\n", rec.size(),
                    paths.size(), all_exact ? "exact" : "INEXACT");
        const obs::CriticalPath worst = obs::worst_critical_path(rec);
        if (worst.valid) {
            std::printf("worst frame %llu: %llu ns end-to-end, %zu hops\n",
                        static_cast<unsigned long long>(worst.token_id),
                        static_cast<unsigned long long>(worst.total_ns), worst.hops);
            for (std::size_t c = 0; c < obs::kPathCategoryCount; ++c) {
                if (worst.by_category[c] != 0) {
                    std::printf("    %-8s %9llu ns\n",
                                obs::to_string(static_cast<obs::PathCategory>(c)),
                                static_cast<unsigned long long>(worst.by_category[c]));
                }
            }
        }
    }
    obs::register_span_stats(reg, rec);
    // Export requests against an empty recorder are configuration errors —
    // fail loudly rather than writing a vacuous file.
    if ((!spans_path.empty() || !perfetto_path.empty()) && rec.size() == 0) {
        std::fprintf(stderr,
                     "slm-report: no spans recorded; --spans/--perfetto need a "
                     "traced run (frames > 0)\n");
        return 1;
    }
    if (!spans_path.empty()) {
        std::ofstream out{spans_path};
        obs::write_span_json(out, rec);
        if (!out.good()) {
            std::fprintf(stderr, "slm-report: cannot write %s\n", spans_path.c_str());
            return 1;
        }
        if (!g_quiet) {
            std::printf("wrote span dump to %s\n", spans_path.c_str());
        }
    }
    if (!perfetto_path.empty()) {
        std::ofstream out{perfetto_path};
        obs::write_perfetto_json(out, rec);
        if (!out.good()) {
            std::fprintf(stderr, "slm-report: cannot write %s\n",
                         perfetto_path.c_str());
            return 1;
        }
        if (!g_quiet) {
            std::printf("wrote Chrome trace-event JSON to %s\n", perfetto_path.c_str());
        }
    }
    return all_exact ? 0 : 1;
}

void section_faults(obs::Registry& reg) {
    heading("Fault injection & recovery (deterministic plan, seed 7)");
    std::string err;
    const std::optional<fault::FaultPlan> plan = fault::FaultPlan::parse(
        "seed 7\n"
        "exec_scale worker factor=2.0 after=20ms until=60ms\n"
        "crash logger at=15ms\n",
        &err);
    if (!plan) {
        std::fprintf(stderr, "fault plan: %s\n", err.c_str());
        return;
    }
    fault::FaultInjector inj(*plan);

    sim::Kernel kernel;
    rtos::RtosConfig cfg;
    cfg.default_miss_policy = rtos::MissPolicy::SkipJob;
    arch::ProcessingElement pe{kernel, "FPE", cfg};
    inj.attach(pe.os());

    // A periodic worker that misses deadlines inside the overrun window and
    // sheds the backlog via SkipJob.
    rtos::Task* worker = pe.add_periodic_task(
        "worker", 1, 10_ms, 6_ms, [&] { pe.os().time_wait(6_ms); }, 10, 10_ms);

    // A watchdog-protected background job: the plan crashes it at 15 ms and
    // the 12 ms watchdog (kicked every 5 ms while running) restarts it. The
    // watchdog also trips while the overrunning worker starves the logger —
    // every fire shows up in the recovery counters below.
    rtos::TaskParams logger_params;
    logger_params.name = "logger";
    logger_params.priority = 5;
    rtos::Task* logger = pe.os().task_create(std::move(logger_params));
    pe.os().task_set_body(logger, [&] {
        for (int i = 0; i < 8; ++i) {
            pe.os().time_wait(5_ms);
            pe.os().watchdog_kick(logger);
        }
    });
    pe.os().task_start(logger);
    pe.os().watchdog_arm(logger, 12_ms, rtos::MissPolicy::Restart);

    pe.start();
    kernel.run_until(milliseconds(200));

    const fault::FaultStats& fs = inj.stats();
    const rtos::RtosStats& os_stats = pe.os().stats();
    // Plain gauges (final values) — the injector and OS die with this scope,
    // so callback sources would dangle by export time in section_inversion.
    const obs::Labels seed_label{{"seed", std::to_string(inj.seed())}};
    const auto set = [&](const char* name, const char* help, double v) {
        reg.gauge(name, help, seed_label).set(v);
    };
    set("slm_fault_injected_total", "Faults injected by the demo plan", double(fs.total()));
    set("slm_fault_exec_scaled_total", "Execution-scale faults fired", double(fs.exec_scaled));
    set("slm_fault_crashes_injected_total", "Crash faults fired", double(fs.crashes_injected));
    set("slm_fault_recovery_deadline_misses", "Deadline misses under fault",
        double(os_stats.deadline_misses));
    set("slm_fault_recovery_jobs_skipped", "Jobs shed by MissPolicy::SkipJob",
        double(os_stats.jobs_skipped));
    set("slm_fault_recovery_crashes", "Task crashes observed", double(os_stats.crashes));
    set("slm_fault_recovery_watchdog_fires", "Watchdog expirations",
        double(os_stats.watchdog_fires));
    set("slm_fault_recovery_restarts", "Task restarts performed", double(os_stats.restarts));

    if (!g_quiet) {
        std::printf("plan: worker 2x overrun in [20ms,60ms), logger crash at 15ms\n");
        std::printf("injected: %llu (%llu exec-scale, %llu crash)\n",
                    static_cast<unsigned long long>(fs.total()),
                    static_cast<unsigned long long>(fs.exec_scaled),
                    static_cast<unsigned long long>(fs.crashes_injected));
        std::printf(
            "worker: %llu completions, %llu misses, %llu jobs skipped (SkipJob)\n",
            static_cast<unsigned long long>(worker->stats().completions),
            static_cast<unsigned long long>(worker->stats().deadline_misses),
            static_cast<unsigned long long>(worker->stats().jobs_skipped));
        std::printf("logger: %llu crash -> %llu watchdog fire -> %llu restart; "
                    "completions %llu\n",
                    static_cast<unsigned long long>(os_stats.crashes),
                    static_cast<unsigned long long>(os_stats.watchdog_fires),
                    static_cast<unsigned long long>(logger->stats().restarts),
                    static_cast<unsigned long long>(logger->stats().completions));
    }
}

void section_soak(obs::Registry& reg) {
    heading("Randomized soak sample (seeded scenarios, invariants + RTA oracle)");
    soak::SoakConfig cfg;
    cfg.scenarios = 8;
    cfg.gen.jobs_target = 150;
    const soak::SoakResult res = soak::run_soak(cfg);
    soak::register_soak_stats(reg, res);
    if (!g_quiet) {
        std::printf("%zu scenarios (seeds %llu..%llu): %llu jobs, %llu violations, "
                    "%llu suspicious\n",
                    res.verdicts.size(),
                    static_cast<unsigned long long>(cfg.first_seed),
                    static_cast<unsigned long long>(cfg.first_seed + cfg.scenarios - 1),
                    static_cast<unsigned long long>(res.total_jobs()),
                    static_cast<unsigned long long>(res.total_violations()),
                    static_cast<unsigned long long>(res.total_suspicious()));
        std::printf("oracle: %llu checked, %llu RTA-schedulable — every schedulable "
                    "set met its response bound in simulation\n",
                    static_cast<unsigned long long>(res.oracle_checked()),
                    static_cast<unsigned long long>(res.rta_schedulable_count()));
        for (const soak::ScenarioVerdict& v : res.verdicts) {
            if (v.failed()) {
                std::printf("FAIL %s: %s\n", v.name.c_str(),
                            v.violations.front().c_str());
            }
        }
    }
}

void section_inversion(obs::Registry& reg, const std::string& prom_path,
                       const std::string& json_path) {
    heading("Priority-inversion demo (Protocol::None mutex)");
    sim::Kernel kernel;
    rtos::RtosConfig cfg;
    cfg.cpu_name = "CPU0";
    cfg.policy = rtos::SchedPolicy::Priority;
    // Chop delays so preemption lands inside low's critical section — with
    // the default one-chunk granularity low would never be preempted while
    // holding the lock and no inversion could occur (paper §4.3).
    cfg.preemption_granularity = 5_us;
    rtos::RtosModel os{kernel, cfg};
    obs::RtosAnalytics analytics{os, reg};
    os.init();

    rtos::OsMutex bus{os, rtos::OsMutex::Protocol::None, "shared_bus"};

    rtos::Task* low = os.task_create("low", rtos::TaskType::Aperiodic, {}, {}, 30);
    rtos::Task* mid = os.task_create("mid", rtos::TaskType::Aperiodic, {}, {}, 20);
    rtos::Task* high = os.task_create("high", rtos::TaskType::Aperiodic, {}, {}, 10);

    kernel.spawn("low", [&] {
        os.task_activate(low);
        bus.lock();
        os.time_wait(100_us);  // long critical section
        bus.unlock();
        os.task_terminate();
    });
    kernel.spawn("mid", [&] {
        os.task_activate(mid);
        os.task_delay(10_us);   // arrive after low has the lock
        os.time_wait(200_us);   // pure computation: starves low -> starves high
        os.task_terminate();
    });
    kernel.spawn("high", [&] {
        os.task_activate(high);
        os.task_delay(20_us);
        bus.lock();  // blocks on low; mid keeps running -> unbounded inversion
        os.time_wait(10_us);
        bus.unlock();
        os.task_terminate();
    });

    os.start();
    kernel.run();

    print_findings(analytics);

    // Export the full registry while every referenced object is still alive:
    // kernel + OS gauges read the live stats structs at write time.
    obs::register_kernel_stats(reg, kernel);
    obs::register_os_stats(reg, os);
    if (!prom_path.empty()) {
        std::ofstream out{prom_path};
        reg.write_prometheus(out);
        if (!g_quiet) {
            std::printf("wrote Prometheus metrics to %s\n", prom_path.c_str());
        }
    }
    if (!json_path.empty()) {
        std::ofstream out{json_path};
        reg.write_json(out);
        if (!g_quiet) {
            std::printf("wrote JSON metrics to %s\n", json_path.c_str());
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t frames = 10;
    std::string prom_path;
    std::string json_path;
    std::string spans_path;
    std::string perfetto_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
            frames = static_cast<std::size_t>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
            prom_path = argv[++i];
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--spans") == 0 && i + 1 < argc) {
            spans_path = argv[++i];
        } else if (std::strcmp(argv[i], "--perfetto") == 0 && i + 1 < argc) {
            perfetto_path = argv[++i];
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            g_quiet = true;
        } else {
            std::fprintf(stderr,
                         "usage: slm-report [--frames N] [--prom FILE] "
                         "[--json FILE] [--spans FILE] [--perfetto FILE] "
                         "[--quiet]\n");
            return 2;
        }
    }
    obs::Registry reg;  // shared by the span + fault + inversion sections
    section_fig8();
    section_vocoder(frames);
    section_mapping_sweep(frames);
    const int spans_rc = section_spans(reg, frames, spans_path, perfetto_path);
    if (spans_rc != 0) {
        return spans_rc;
    }
    section_faults(reg);
    section_soak(reg);
    section_inversion(reg, prom_path, json_path);
    return 0;
}
