// Allocation budgets for short runs rebuilt from t=0: a warm thread serves
// process stacks from its stack cache, a warm kernel dispatches and advances
// time without allocating, a consulted choice point reuses its candidate
// buffer, and one explored path of a small RtosModel stays within a fixed
// number of heap allocations and bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "explore/explore.hpp"
#include "rtos/rtos.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"

using namespace slm;
using namespace slm::time_literals;

// Counts every global allocation and its bytes.
namespace {
std::size_t g_allocations = 0;
std::size_t g_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
    ++g_allocations;
    g_bytes += n;
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

namespace {

/// Answers every choice point with the default and counts them by kind.
struct DefaultController final : sim::ScheduleController {
    std::size_t choose(const sim::SchedulePoint& pt) override {
        ++(pt.kind == sim::SchedulePoint::Kind::DeltaOrder ? delta_order : task_dispatch);
        return 0;
    }
    std::uint64_t delta_order = 0;
    std::uint64_t task_dispatch = 0;
};

/// Allocations made while `k` runs from now to `t`.
std::size_t allocations_until(sim::Kernel& k, SimTime t) {
    const std::size_t before = g_allocations;
    (void)k.run_until(t);
    return g_allocations - before;
}

/// Three processes that wake at the same instants: every instant raises
/// DeltaOrder choice points when a controller is installed.
void spawn_sleepers(sim::Kernel& k) {
    for (const char* name : {"p0", "p1", "p2"}) {
        k.spawn(name, [&k] {
            for (;;) {
                k.waitfor(1_us);
            }
        });
    }
}

/// Three equal-priority periodic tasks on one core, released together: while
/// one computes the others wait ready, so every cycle raises TaskDispatch
/// (and DeltaOrder) choice points.
void create_tied_tasks(sim::Kernel& k, rtos::RtosModel& os) {
    for (const char* name : {"t0", "t1", "t2"}) {
        rtos::Task* t = os.task_create(name, rtos::TaskType::Periodic, 10_us, 1_us, 1);
        k.spawn(name, [&os, t] {
            os.task_activate(t);
            for (;;) {
                os.time_wait(1_us);
                os.task_endcycle();
            }
        });
    }
}

/// The search family's Independent model: tasks a and b plus `extra` side
/// tasks, all equal priority, waking at 1 ms and computing `slices` 50 us
/// slices.
explore::Explorer::BuildFn independent_model(unsigned extra, unsigned slices) {
    return [extra, slices](explore::Run& run) {
        rtos::RtosConfig cfg;
        cfg.cpu_name = "CPU0";
        auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
        os.init();
        const auto task = [&](const std::string& name) {
            rtos::Task* t = os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
            run.kernel().spawn(name, [&os, t, slices] {
                os.task_activate(t);
                os.task_delay(1_ms);
                for (unsigned s = 0; s < slices; ++s) {
                    os.time_wait(50_us);
                }
                os.task_terminate();
            });
        };
        task("a");
        task("b");
        for (unsigned e = 0; e < extra; ++e) {
            task("side" + std::to_string(e));
        }
        os.start();
    };
}

}  // namespace

TEST(AllocBudget, WarmThreadServesEverySpawnFromTheStackCache) {
    // Three processes alive at the end and one finished, run twice.
    const auto run_once = [](sim::Kernel& k) {
        spawn_sleepers(k);
        k.spawn("done", [] {});
        (void)k.run_until(1_us);
    };
    {
        sim::Kernel warm;
        run_once(warm);
    }
    sim::Kernel k;
    run_once(k);
    EXPECT_EQ(k.stats().processes_created, 4u);
    EXPECT_EQ(k.stats().stacks_recycled, k.stats().processes_created);
}

TEST(AllocBudget, WarmDispatchAndTimedQueueAllocateNothing) {
    // Sleepers sharing instants, a yielder cycling through the runnable
    // queue, and a timer re-posted and cancelled every step: once warm, the
    // intrusive runnable FIFO, the timed queue and the reused timer slots
    // allocate nothing however many dispatches follow.
    sim::Kernel k;
    spawn_sleepers(k);
    k.spawn("yielder", [&k] {
        for (;;) {
            k.yield();
            k.cancel_timer(k.post_at(k.now() + 1_us, [] {}));
            k.waitfor(1_us);
        }
    });
    (void)k.run_until(10_us);
    const std::uint64_t warm = k.stats().process_activations;
    EXPECT_EQ(allocations_until(k, 1_ms), 0u);
    EXPECT_GT(k.stats().process_activations - warm, 3000u);
}

TEST(AllocBudget, WarmDeltaOrderChoicePointAllocatesNothing) {
    // The same run with and without a controller, measured after both have
    // warmed up: the consults make the only difference, and it is zero.
    DefaultController ctl;
    sim::Kernel with;
    with.set_schedule_controller(&ctl);
    sim::Kernel without;
    spawn_sleepers(with);
    spawn_sleepers(without);
    (void)with.run_until(10_us);
    (void)without.run_until(10_us);
    const std::uint64_t warm_points = ctl.delta_order;
    const std::size_t consulted = allocations_until(with, 1_ms);
    const std::size_t plain = allocations_until(without, 1_ms);
    EXPECT_GT(ctl.delta_order, warm_points);
    EXPECT_EQ(consulted, plain);
}

TEST(AllocBudget, WarmTaskDispatchChoicePointAllocatesNothing) {
    DefaultController ctl;
    sim::Kernel with;
    with.set_schedule_controller(&ctl);
    sim::Kernel without;
    rtos::RtosModel os_with{with};
    rtos::RtosModel os_without{without};
    for (auto [k, os] : {std::pair{&with, &os_with}, std::pair{&without, &os_without}}) {
        os->init();
        create_tied_tasks(*k, *os);
        os->start();
        (void)k->run_until(100_us);
    }
    const std::uint64_t warm_points = ctl.task_dispatch;
    const std::size_t consulted = allocations_until(with, 1_ms);
    const std::size_t plain = allocations_until(without, 1_ms);
    EXPECT_GT(ctl.task_dispatch, warm_points);
    EXPECT_EQ(consulted, plain);
}

TEST(AllocBudget, ExploredPathOfIndependentModelStaysInBudget) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 2;
    cfg.max_paths = 1'000'000;
    cfg.max_violations = 1'000'000;
    cfg.record_choices = false;
    explore::Explorer ex{independent_model(/*extra=*/4, /*slices=*/2), cfg};
    const explore::ExploreResult warm = ex.explore();  // warms stacks and buffers
    ASSERT_TRUE(warm.exhausted);

    const std::size_t allocs0 = g_allocations;
    const std::size_t bytes0 = g_bytes;
    const explore::ExploreResult res = ex.explore();
    const double paths = static_cast<double>(res.stats.paths);
    const double allocs_per_path = static_cast<double>(g_allocations - allocs0) / paths;
    const double bytes_per_path = static_cast<double>(g_bytes - bytes0) / paths;
    ASSERT_EQ(res.stats.paths, warm.stats.paths);
    ASSERT_TRUE(res.violations.empty());
    EXPECT_LE(allocs_per_path, 55.0);
    EXPECT_LE(bytes_per_path, 12.0 * 1024);
    std::printf("paths %llu, %.2f allocations and %.0f bytes per path\n",
                static_cast<unsigned long long>(res.stats.paths), allocs_per_path,
                bytes_per_path);
}
