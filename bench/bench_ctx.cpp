// Fast-context engine benchmarks. Unlike the google-benchmark binaries, this
// one times its own loops and emits a machine-readable BENCH_kernel.json so
// the kernel's perf trajectory (ns/switch, switches/sec, spawn throughput,
// RTOS dispatch latency, timed-queue wakeups) is tracked from change to
// change, with the assembly backend and the ucontext baseline measured side
// by side in one run.
//
// Usage: bench_ctx [--smoke] [--out FILE]
//   --smoke   tiny iteration counts for CI (seconds -> milliseconds)
//   --out     output path (default: BENCH_kernel.json in the CWD)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "rtos/rtos.hpp"
#include "sim/context.hpp"
#include "sim/kernel.hpp"
#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

using namespace slm;
using namespace slm::time_literals;

namespace {

struct Measurement {
    double ns_per_item = 0.0;
    double items_per_sec = 0.0;
    std::uint64_t items = 0;
};

double elapsed_ns(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                    t0)
        .count();
}

Measurement finish(std::uint64_t items, double ns) {
    Measurement m;
    m.items = items;
    m.ns_per_item = ns / static_cast<double>(items);
    m.items_per_sec = 1e9 * static_cast<double>(items) / ns;
    return m;
}

/// Raw cost of the context-switch engine itself: a bare Context::switch_to
/// ping-pong between the thread context and one coroutine, no scheduler in
/// the loop. Items = individual switches (one round trip = 2 switches).
/// This isolates what the assembly backend replaces: swapcontext's register
/// save/restore plus its two sigprocmask syscalls.
struct PingPong {
    sim::Context main_ctx;
    sim::Context fib_ctx;
    sim::ContextBackend backend;
    bool done = false;
};

void pingpong_entry(void* raw) {
    auto* pp = static_cast<PingPong*>(raw);
    while (!pp->done) {
        sim::Context::switch_to(pp->fib_ctx, pp->main_ctx, pp->backend);
    }
    sim::Context::switch_to(pp->fib_ctx, pp->main_ctx, pp->backend,
                            /*finishing=*/true);
}

Measurement bm_raw_switch(sim::ContextBackend backend, int round_trips) {
    const sim::StackBlock stack = sim::StackPool::acquire(64 * 1024, /*guarded=*/false).block;
    PingPong pp;
    pp.backend = backend;
    pp.main_ctx.adopt_thread_stack();
    pp.fib_ctx.init(stack.base, stack.size, &pingpong_entry, &pp, backend);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < round_trips; ++i) {
        sim::Context::switch_to(pp.main_ctx, pp.fib_ctx, backend);
    }
    const double ns = elapsed_ns(t0);
    pp.done = true;
    sim::Context::switch_to(pp.main_ctx, pp.fib_ctx, backend);
    sim::StackPool::release(stack);
    return finish(2 * static_cast<std::uint64_t>(round_trips), ns);
}

/// Round-trip coroutine switch cost through the full kernel scheduler: two
/// processes yielding to each other. Items = kernel process activations (one
/// activation = switch in + out), so this includes ready-queue and state
/// bookkeeping on top of the raw switch above.
Measurement bm_kernel_yield(sim::ContextBackend backend, int yields) {
    sim::KernelConfig cfg;
    cfg.backend = backend;
    sim::Kernel k{cfg};
    k.spawn("a", [&] {
        for (int i = 0; i < yields; ++i) {
            k.yield();
        }
    });
    k.spawn("b", [&] {
        for (int i = 0; i < yields; ++i) {
            k.yield();
        }
    });
    const auto t0 = std::chrono::steady_clock::now();
    k.run();
    const double ns = elapsed_ns(t0);
    return finish(k.stats().process_activations, ns);
}

/// Spawn throughput across waves of short-lived processes; later waves are
/// served from the stack pool's free list. Out-params expose the pool's
/// recycle behavior for the JSON report.
Measurement bm_spawn(sim::ContextBackend backend, int waves, int per_wave,
                     std::uint64_t* recycled, double* hit_rate) {
    sim::KernelConfig cfg;
    cfg.backend = backend;
    sim::Kernel k{cfg};
    const auto t0 = std::chrono::steady_clock::now();
    for (int w = 0; w < waves; ++w) {
        for (int i = 0; i < per_wave; ++i) {
            k.spawn("p", [] {});
        }
        k.run();
    }
    const double ns = elapsed_ns(t0);
    *recycled = k.stats().stacks_recycled;
    *hit_rate = static_cast<double>(k.stats().stacks_recycled) /
                static_cast<double>(k.stats().processes_created);
    return finish(k.stats().processes_created, ns);
}

/// Timed-queue path: `sleepers` processes that only sleep. Process i first
/// waits i+1 ns, then `sleepers` ns each time, so every wakeup falls on its
/// own instant and the queue holds one entry per other sleeper. A lone
/// sleeper is next due at every step and never enters the queue. The first
/// wakeup of each process (its first switch onto a fresh stack) is untimed.
/// Items = wakeups (process activations).
Measurement bm_kernel_waitfor(sim::ContextBackend backend, int sleepers, int rounds) {
    sim::KernelConfig cfg;
    cfg.backend = backend;
    cfg.stack_size = sim::KernelConfig::kMinStackSize;
    sim::Kernel k{cfg};
    const auto period = SimTime{static_cast<std::uint64_t>(sleepers)};
    for (int i = 0; i < sleepers; ++i) {
        k.spawn("s", [&k, period, i] {
            k.waitfor(SimTime{static_cast<std::uint64_t>(i) + 1});
            for (;;) {
                k.waitfor(period);
            }
        });
    }
    (void)k.run_until(period);
    const std::uint64_t warm = k.stats().process_activations;
    const auto t0 = std::chrono::steady_clock::now();
    (void)k.run_until(period * static_cast<std::uint64_t>(rounds + 1));
    const double ns = elapsed_ns(t0);
    return finish(k.stats().process_activations - warm, ns);
}

/// RTOS dispatch latency: `tasks` priority-scheduled tasks wake every delay
/// tick and contend for the CPU, so each wake exercises ready-queue insert +
/// pick + dispatch. Items = RTOS dispatches.
Measurement bm_rtos_dispatch(sim::ContextBackend backend, int tasks, int cycles) {
    sim::KernelConfig cfg;
    cfg.backend = backend;
    sim::Kernel k{cfg};
    rtos::RtosConfig rcfg;
    rcfg.policy = rtos::SchedPolicy::Priority;
    rtos::RtosModel os{k, rcfg};
    os.init();
    std::vector<rtos::Task*> handles;
    for (int i = 0; i < tasks; ++i) {
        handles.push_back(os.task_create("t" + std::to_string(i),
                                         rtos::TaskType::Aperiodic, {}, {}, i));
    }
    for (int i = 0; i < tasks; ++i) {
        rtos::Task* t = handles[static_cast<std::size_t>(i)];
        k.spawn("t" + std::to_string(i), [&os, t, cycles] {
            os.task_activate(t);
            for (int c = 0; c < cycles; ++c) {
                os.task_delay(1_us);
            }
            os.task_terminate();
        });
    }
    k.spawn("starter", [&os] { os.start(); });
    const auto t0 = std::chrono::steady_clock::now();
    k.run();
    const double ns = elapsed_ns(t0);
    return finish(os.stats().dispatches, ns);
}

void emit(std::FILE* f, const char* name, const char* unit,
          const std::vector<std::pair<std::string, Measurement>>& rows,
          const char* extra_json = nullptr) {
    std::fprintf(f, "    \"%s\": {\n      \"unit\": \"%s\"", name, unit);
    for (const auto& [backend, m] : rows) {
        std::fprintf(f,
                     ",\n      \"%s\": {\"ns_per_item\": %.2f, "
                     "\"items_per_sec\": %.0f, \"items\": %llu}",
                     backend.c_str(), m.ns_per_item, m.items_per_sec,
                     static_cast<unsigned long long>(m.items));
    }
    if (rows.size() == 2) {
        std::fprintf(f, ",\n      \"speedup_fast_over_ucontext\": %.2f",
                     rows[0].second.items_per_sec / rows[1].second.items_per_sec);
    }
    if (extra_json != nullptr) {
        std::fprintf(f, ",\n      %s", extra_json);
    }
    std::fprintf(f, "\n    }");
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_kernel.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: bench_ctx [--smoke] [--out FILE]\n");
            return 2;
        }
    }

    const int round_trips = smoke ? 50'000 : 2'000'000;
    const int yields = smoke ? 10'000 : 500'000;
    const int waves = smoke ? 10 : 100;
    const int per_wave = smoke ? 50 : 500;
    const int rtos_tasks = 64;
    const int rtos_cycles = smoke ? 20 : 1'000;
    // (sleepers, rounds) for BM_KernelWaitfor/<sleepers>: a lone sleeper, 64
    // staggered ones, and 100k (10k in smoke mode, to stay light in CI).
    const int waitfor_cases[3][2] = {{1, smoke ? 20'000 : 2'000'000},
                                     {64, smoke ? 300 : 30'000},
                                     {smoke ? 10'000 : 100'000, smoke ? 2 : 10}};

    std::vector<sim::ContextBackend> backends;
    if (sim::fast_context_compiled()) {
        backends.push_back(sim::ContextBackend::Fast);
    }
    backends.push_back(sim::ContextBackend::Ucontext);

    std::vector<std::pair<std::string, Measurement>> ctx, yield_rows, spawn,
        rtos_rows, waitfor_rows[3];
    std::uint64_t recycled = 0;
    double hit_rate = 0.0;
    for (const auto b : backends) {
        const std::string name = to_string(b);
        std::fprintf(stderr, "bench_ctx: backend=%s...\n", name.c_str());
        ctx.emplace_back(name, bm_raw_switch(b, round_trips));
        yield_rows.emplace_back(name, bm_kernel_yield(b, yields));
        spawn.emplace_back(name, bm_spawn(b, waves, per_wave, &recycled, &hit_rate));
        rtos_rows.emplace_back(name, bm_rtos_dispatch(b, rtos_tasks, rtos_cycles));
        for (int c = 0; c < 3; ++c) {
            waitfor_rows[c].emplace_back(
                name, bm_kernel_waitfor(b, waitfor_cases[c][0], waitfor_cases[c][1]));
        }
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("bench_ctx: fopen");
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"slm-bench-kernel-v1\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"fast_context_compiled\": %s,\n",
                 sim::fast_context_compiled() ? "true" : "false");
    std::fprintf(f, "  \"benchmarks\": {\n");
    emit(f, "BM_KernelContextSwitch", "switch", ctx);
    std::fprintf(f, ",\n");
    emit(f, "BM_KernelYield", "activation", yield_rows);
    std::fprintf(f, ",\n");
    char pool_extra[128];
    std::snprintf(pool_extra, sizeof(pool_extra),
                  "\"stack_pool\": {\"stacks_recycled\": %llu, \"hit_rate\": %.3f}",
                  static_cast<unsigned long long>(recycled), hit_rate);
    emit(f, "BM_KernelSpawn", "spawn", spawn, pool_extra);
    std::fprintf(f, ",\n");
    emit(f, "BM_RtosDispatch", "dispatch", rtos_rows);
    for (int c = 0; c < 3; ++c) {
        const std::string name = "BM_KernelWaitfor/" + std::to_string(waitfor_cases[c][0]);
        std::fprintf(f, ",\n");
        emit(f, name.c_str(), "wakeup", waitfor_rows[c]);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);

    // Human-readable summary on stdout.
    for (const auto& [name, rows] :
         {std::pair<const char*, const std::vector<std::pair<std::string, Measurement>>&>{
              "context switch", ctx},
          {"kernel yield", yield_rows},
          {"spawn", spawn},
          {"rtos dispatch", rtos_rows},
          {"waitfor 1", waitfor_rows[0]},
          {"waitfor 64", waitfor_rows[1]},
          {"waitfor many", waitfor_rows[2]}}) {
        for (const auto& [backend, m] : rows) {
            std::printf("%-16s %-9s %10.1f ns/item %14.0f items/s\n", name,
                        backend.c_str(), m.ns_per_item, m.items_per_sec);
        }
    }
    if (ctx.size() == 2) {
        std::printf("context-switch speedup fast/ucontext: %.1fx\n",
                    ctx[0].second.items_per_sec / ctx[1].second.items_per_sec);
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
