#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

using namespace slm;
using namespace slm::sim;
using namespace slm::time_literals;

TEST(Kernel, StartsAtTimeZero) {
    Kernel k;
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Kernel, RunWithNoProcessesTerminates) {
    Kernel k;
    k.run();
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Kernel, SingleProcessRunsToCompletion) {
    Kernel k;
    bool ran = false;
    k.spawn("p", [&] { ran = true; });
    k.run();
    EXPECT_TRUE(ran);
}

TEST(Kernel, WaitforAdvancesTime) {
    Kernel k;
    SimTime seen;
    k.spawn("p", [&] {
        k.waitfor(10_us);
        seen = k.now();
    });
    k.run();
    EXPECT_EQ(seen, 10_us);
    EXPECT_EQ(k.now(), 10_us);
}

TEST(Kernel, SequentialWaitforsAccumulate) {
    Kernel k;
    k.spawn("p", [&] {
        k.waitfor(3_us);
        k.waitfor(4_us);
        k.waitfor(5_us);
    });
    k.run();
    EXPECT_EQ(k.now(), 12_us);
}

TEST(Kernel, ParallelWaitforsOverlap) {
    // Two concurrent processes delay "in parallel": total simulated time is
    // the max, not the sum — the defining property of the unscheduled model.
    Kernel k;
    k.spawn("a", [&] { k.waitfor(30_us); });
    k.spawn("b", [&] { k.waitfor(20_us); });
    k.run();
    EXPECT_EQ(k.now(), 30_us);
}

TEST(Kernel, ProcessesRunInSpawnOrder) {
    Kernel k;
    std::vector<std::string> order;
    for (const char* n : {"a", "b", "c"}) {
        k.spawn(n, [&order, n] { order.push_back(n); });
    }
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Kernel, SimultaneousTimeoutsFireInScheduleOrder) {
    Kernel k;
    std::vector<std::string> order;
    k.spawn("a", [&] {
        k.waitfor(5_us);
        order.push_back("a");
    });
    k.spawn("b", [&] {
        k.waitfor(5_us);
        order.push_back("b");
    });
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

TEST(Kernel, NotifyWakesWaiter) {
    Kernel k;
    Event e{k, "e"};
    bool woke = false;
    k.spawn("waiter", [&] {
        k.wait(e);
        woke = true;
    });
    k.spawn("notifier", [&] {
        k.waitfor(1_us);
        k.notify(e);
    });
    k.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(k.now(), 1_us);
}

TEST(Kernel, NotifyWakesAllWaiters) {
    Kernel k;
    Event e{k, "e"};
    int woke = 0;
    for (int i = 0; i < 5; ++i) {
        k.spawn("w" + std::to_string(i), [&] {
            k.wait(e);
            ++woke;
        });
    }
    k.spawn("notifier", [&] {
        k.waitfor(1_us);
        k.notify(e);
    });
    k.run();
    EXPECT_EQ(woke, 5);
}

TEST(Kernel, NotifyIsStickyWithinDelta) {
    // SpecC semantics: a wait() later in the same delta cycle sees the
    // notification and does not block.
    Kernel k;
    Event e{k, "e"};
    bool continued = false;
    k.spawn("notifier", [&] { k.notify(e); });
    k.spawn("late_waiter", [&] {
        k.wait(e);  // runs in the same delta as the notify
        continued = true;
    });
    k.run();
    EXPECT_TRUE(continued);
}

TEST(Kernel, NotifyIsLostAcrossTime) {
    // A notification in an earlier time step does not satisfy a later wait.
    Kernel k;
    Event e{k, "e"};
    bool woke = false;
    k.spawn("notifier", [&] { k.notify(e); });
    k.spawn("late_waiter", [&] {
        k.waitfor(1_us);  // move past the delta where the notify happened
        k.wait(e);
        woke = true;
    });
    k.run();
    EXPECT_FALSE(woke);
    EXPECT_EQ(k.blocked_processes().size(), 1u);
}

TEST(Kernel, NotifyIsLostAcrossDelta) {
    Kernel k;
    Event e{k, "e"};
    bool woke = false;
    k.spawn("notifier", [&] { k.notify(e); });
    k.spawn("late_waiter", [&] {
        k.waitfor(SimTime::zero());  // next delta, same time
        k.wait(e);
        woke = true;
    });
    k.run();
    EXPECT_FALSE(woke);
}

TEST(Kernel, WaitforZeroYieldsToNextDelta) {
    Kernel k;
    std::vector<int> order;
    k.spawn("a", [&] {
        k.waitfor(SimTime::zero());
        order.push_back(1);
    });
    k.spawn("b", [&] { order.push_back(0); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Kernel, YieldRunsAfterOtherRunnables) {
    Kernel k;
    std::vector<int> order;
    k.spawn("a", [&] {
        k.yield();
        order.push_back(1);
    });
    k.spawn("b", [&] { order.push_back(0); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Kernel, ParForksAndJoins) {
    Kernel k;
    std::vector<std::string> log;
    k.spawn("parent", [&] {
        log.push_back("pre");
        k.par({[&] {
                   k.waitfor(5_us);
                   log.push_back("c1");
               },
               [&] {
                   k.waitfor(3_us);
                   log.push_back("c2");
               }});
        log.push_back("post");
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"pre", "c2", "c1", "post"}));
    EXPECT_EQ(k.now(), 5_us);  // children overlap
}

TEST(Kernel, ParChildrenSeeParent) {
    Kernel k;
    const Process* parent_of_child = nullptr;
    Process* parent = k.spawn("parent", [&] {
        k.par({[&] { parent_of_child = this_process()->parent(); }});
    });
    k.run();
    EXPECT_EQ(parent_of_child, parent);
}

TEST(Kernel, NestedPar) {
    Kernel k;
    int leaves = 0;
    k.spawn("root", [&] {
        k.par({[&] {
                   k.par({[&] { ++leaves; }, [&] { ++leaves; }});
               },
               [&] {
                   k.par({[&] { ++leaves; }, [&] { ++leaves; }});
               }});
    });
    k.run();
    EXPECT_EQ(leaves, 4);
}

TEST(Kernel, EmptyParReturnsImmediately) {
    Kernel k;
    bool after = false;
    k.spawn("p", [&] {
        k.par(std::vector<Branch>{});
        after = true;
    });
    k.run();
    EXPECT_TRUE(after);
}

TEST(Kernel, NamedParBranches) {
    Kernel k;
    std::vector<std::string> names;
    k.spawn("p", [&] {
        std::vector<Branch> branches;
        branches.push_back({"left", [&] { names.push_back(this_process()->name()); }});
        branches.push_back({"right", [&] { names.push_back(this_process()->name()); }});
        k.par(std::move(branches));
    });
    k.run();
    EXPECT_EQ(names, (std::vector<std::string>{"left", "right"}));
}

TEST(Kernel, JoinFinishedProcessReturnsImmediately) {
    Kernel k;
    bool joined = false;
    Process* worker = k.spawn("worker", [] {});
    k.spawn("joiner", [&] {
        k.waitfor(1_us);  // worker finishes first
        k.join(*worker);
        joined = true;
    });
    k.run();
    EXPECT_TRUE(joined);
}

TEST(Kernel, JoinBlocksUntilDone) {
    Kernel k;
    SimTime join_time;
    Process* worker = k.spawn("worker", [&] { k.waitfor(10_us); });
    k.spawn("joiner", [&] {
        k.join(*worker);
        join_time = k.now();
    });
    k.run();
    EXPECT_EQ(join_time, 10_us);
}

TEST(Kernel, SpawnDuringRunExecutesChild) {
    Kernel k;
    bool child_ran = false;
    k.spawn("parent", [&] {
        Process* c = k.spawn("child", [&] { child_ran = true; });
        k.join(*c);
    });
    k.run();
    EXPECT_TRUE(child_ran);
}

TEST(Kernel, RunUntilStopsAtLimit) {
    Kernel k;
    int ticks = 0;
    k.spawn("ticker", [&] {
        for (int i = 0; i < 100; ++i) {
            k.waitfor(1_ms);
            ++ticks;
        }
    });
    const bool more = k.run_until(5_ms);
    EXPECT_TRUE(more);
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(k.now(), 5_ms);
}

TEST(Kernel, RunUntilCanResume) {
    Kernel k;
    int ticks = 0;
    k.spawn("ticker", [&] {
        for (int i = 0; i < 10; ++i) {
            k.waitfor(1_ms);
            ++ticks;
        }
    });
    EXPECT_TRUE(k.run_until(3_ms));
    EXPECT_EQ(ticks, 3);
    EXPECT_FALSE(k.run_until(20_ms));
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(k.now(), 20_ms);
}

TEST(Kernel, RunUntilWithNoActivityAdvancesClock) {
    Kernel k;
    EXPECT_FALSE(k.run_until(7_ms));
    EXPECT_EQ(k.now(), 7_ms);
}

TEST(Kernel, KillReadyProcessUnwindsBeforeBody) {
    Kernel k;
    bool ran = false;
    Process* victim = k.spawn("victim", [&] { ran = true; });
    k.kill(*victim);
    k.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(victim->state(), ProcState::Killed);
}

TEST(Kernel, KillWaitingProcessRunsDestructors) {
    Kernel k;
    Event e{k, "never"};
    bool cleaned_up = false;
    struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
    };
    Process* victim = k.spawn("victim", [&] {
        Raii raii{cleaned_up};
        k.wait(e);
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*victim);
    });
    k.run();
    EXPECT_TRUE(cleaned_up);
    EXPECT_EQ(victim->state(), ProcState::Killed);
}

TEST(Kernel, KillSleepingProcessCancelsTimeout) {
    Kernel k;
    bool resumed = false;
    Process* victim = k.spawn("victim", [&] {
        k.waitfor(100_ms);
        resumed = true;
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*victim);
    });
    k.run();
    EXPECT_FALSE(resumed);
    // The victim's 100 ms timeout must not drag simulated time forward.
    EXPECT_EQ(k.now(), 1_us);
}

TEST(Kernel, SelfKillUnwinds) {
    Kernel k;
    bool after = false;
    Process* p = k.spawn("p", [&] {
        k.kill(*this_process());
        after = true;
    });
    k.run();
    EXPECT_FALSE(after);
    EXPECT_EQ(p->state(), ProcState::Killed);
}

TEST(Kernel, KillIsIdempotent) {
    Kernel k;
    Event e{k, "never"};
    Process* victim = k.spawn("victim", [&] { k.wait(e); });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*victim);
        k.kill(*victim);
    });
    k.run();
    EXPECT_EQ(victim->state(), ProcState::Killed);
    k.kill(*victim);  // killing a dead process is a no-op
}

TEST(Kernel, KilledParentStopsButChildrenFinish) {
    Kernel k;
    bool child_done = false;
    bool parent_post = false;
    Process* parent = k.spawn("parent", [&] {
        k.par({[&] {
            k.waitfor(10_us);
            child_done = true;
        }});
        parent_post = true;
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*parent);
    });
    k.run();
    EXPECT_TRUE(child_done);
    EXPECT_FALSE(parent_post);
}

TEST(Kernel, DeadlockedProcessesAreReported) {
    Kernel k;
    Event e1{k, "e1"}, e2{k, "e2"};
    k.spawn("a", [&] {
        k.wait(e1);
        k.notify(e2);
    });
    k.spawn("b", [&] {
        k.wait(e2);
        k.notify(e1);
    });
    k.run();
    EXPECT_EQ(k.blocked_processes().size(), 2u);
}

TEST(Kernel, StatsCountActivity) {
    Kernel k;
    Event e{k, "e"};
    k.spawn("a", [&] {
        k.waitfor(1_us);
        k.notify(e);
    });
    k.spawn("b", [&] { k.wait(e); });
    k.run();
    const KernelStats& s = k.stats();
    EXPECT_EQ(s.processes_created, 2u);
    EXPECT_GE(s.process_activations, 3u);
    EXPECT_EQ(s.events_notified, 1u);
    EXPECT_EQ(s.time_advances, 1u);
    EXPECT_GE(s.delta_cycles, 2u);
}

TEST(Kernel, ObserverSeesStateTransitions) {
    struct Recorder : KernelObserver {
        std::vector<std::string> log;
        void on_process_state(const Process& p, ProcState, ProcState to) override {
            log.push_back(p.name() + ":" + to_string(to));
        }
    } rec;
    Kernel k;
    k.set_observer(&rec);
    k.spawn("p", [&] { k.waitfor(1_us); });
    k.run();
    EXPECT_EQ(rec.log, (std::vector<std::string>{"p:Ready", "p:Running", "p:WaitingTime",
                                                 "p:Ready", "p:Running", "p:Done"}));
}

TEST(Kernel, ObserverSeesTimeAdvances) {
    struct Recorder : KernelObserver {
        std::vector<SimTime> times;
        void on_time_advance(SimTime t) override { times.push_back(t); }
    } rec;
    Kernel k;
    k.set_observer(&rec);
    k.spawn("p", [&] {
        k.waitfor(2_us);
        k.waitfor(3_us);
    });
    k.run();
    EXPECT_EQ(rec.times, (std::vector<SimTime>{2_us, 5_us}));
}

TEST(Kernel, ThisKernelAndThisProcess) {
    Kernel k;
    Kernel* seen_kernel = nullptr;
    Process* seen_process = nullptr;
    Process* p = k.spawn("p", [&] {
        seen_kernel = &this_kernel();
        seen_process = this_process();
    });
    k.run();
    EXPECT_EQ(seen_kernel, &k);
    EXPECT_EQ(seen_process, p);
    EXPECT_EQ(this_process(), nullptr);
}

TEST(Kernel, ManyProcessesManySwitches) {
    // Stress: 200 processes ping-ponging through time steps stay deterministic.
    Kernel k;
    constexpr int kProcs = 200;
    constexpr int kSteps = 50;
    std::uint64_t total = 0;
    for (int i = 0; i < kProcs; ++i) {
        k.spawn("p" + std::to_string(i), [&, i] {
            for (int s = 0; s < kSteps; ++s) {
                k.waitfor(nanoseconds(static_cast<std::uint64_t>(i) + 1));
                ++total;
            }
        });
    }
    k.run();
    EXPECT_EQ(total, static_cast<std::uint64_t>(kProcs) * kSteps);
    EXPECT_EQ(k.now(), nanoseconds(kProcs * kSteps));
}

TEST(Kernel, DeterministicTraceAcrossRuns) {
    auto run_once = [] {
        Kernel k;
        std::vector<std::string> log;
        Event e{k, "e"};
        k.spawn("a", [&] {
            for (int i = 0; i < 10; ++i) {
                k.waitfor(3_us);
                log.push_back("a" + std::to_string(i));
                k.notify(e);
            }
        });
        k.spawn("b", [&] {
            for (int i = 0; i < 5; ++i) {
                k.wait(e);
                log.push_back("b" + std::to_string(i));
                k.waitfor(4_us);
            }
        });
        k.run();
        return log;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Kernel, EventWaiterCountTracksBlockedProcesses) {
    Kernel k;
    Event e{k, "e"};
    k.spawn("w1", [&] { k.wait(e); });
    k.spawn("w2", [&] { k.wait(e); });
    k.spawn("check", [&] {
        k.waitfor(1_us);
        EXPECT_EQ(e.waiter_count(), 2u);
        k.notify(e);
    });
    k.run();
    EXPECT_EQ(e.waiter_count(), 0u);
}

// --- fast-context engine regressions -------------------------------------

TEST(Kernel, BackendResolvesToSomethingRunnable) {
    Kernel k;
    // Auto must resolve to a concrete backend, never stay Auto.
    EXPECT_NE(k.backend(), ContextBackend::Auto);
    if (!fast_context_compiled()) {
        EXPECT_EQ(k.backend(), ContextBackend::Ucontext);
    }
}

TEST(Kernel, TinyStackSizeIsClampedToMinimum) {
    // A stack_size below the documented minimum is clamped, not rejected:
    // the process still runs with at least kMinStackSize bytes.
    KernelConfig cfg;
    cfg.stack_size = 1;  // absurdly small; would fault if honored literally
    Kernel k{cfg};
    bool ran = false;
    k.spawn("p", [&] {
        // Burn some genuine stack to prove the clamped size is usable.
        volatile char burn[4096];
        burn[0] = 1;
        burn[sizeof(burn) - 1] = 1;
        ran = burn[0] == 1 && burn[sizeof(burn) - 1] == 1;
    });
    // The stack is acquired at spawn time, already clamped.
    EXPECT_GE(k.stats().stack_bytes_in_use, KernelConfig::kMinStackSize);
    k.run();
    EXPECT_TRUE(ran);
}

TEST(Kernel, StackPoolRecyclesAcrossWaves) {
    Kernel k;
    for (int wave = 0; wave < 3; ++wave) {
        for (int i = 0; i < 8; ++i) {
            k.spawn("p", [] {});
        }
        k.run();
    }
    // Waves 2 and 3 must be served from the pool's free list.
    EXPECT_EQ(k.stats().processes_created, 24u);
    EXPECT_GE(k.stats().stacks_recycled, 16u);
    // All short-lived stacks were returned; only the pool holds them now.
    EXPECT_EQ(k.stats().stack_bytes_in_use, 0u);
}

TEST(Kernel, KillDuringSwitchOnRecycledStackRunsDestructors) {
    // Regression for the stack pool: process A finishes and its stack returns
    // to the pool; process B is spawned onto that recycled stack, blocks (so
    // its saved context lives in the recycled memory), and is then killed.
    // The ProcessKilled unwinding must run B's destructors on that stack.
    Kernel k;
    Event e{k, "never"};
    bool a_done = false;
    bool b_cleaned_up = false;
    bool b_resumed = false;
    struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
    };
    k.spawn("a", [&] { a_done = true; });
    k.run();  // A finishes; its stack is now on the pool free list
    ASSERT_TRUE(a_done);
    ASSERT_EQ(k.stats().stack_bytes_in_use, 0u);  // A's stack is pooled, not live

    Process* b = k.spawn("b", [&] {
        Raii raii{b_cleaned_up};
        k.wait(e);  // suspend mid-body: context saved on the recycled stack
        b_resumed = true;
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*b);
    });
    k.run();
    EXPECT_GE(k.stats().stacks_recycled, 1u);  // B really reused A's stack
    EXPECT_TRUE(b_cleaned_up);
    EXPECT_FALSE(b_resumed);
    EXPECT_EQ(b->state(), ProcState::Killed);
}

TEST(Kernel, GuardPagesBackendRunsProcesses) {
    KernelConfig cfg;
    cfg.guard_pages = true;
    Kernel k{cfg};
    int sum = 0;
    for (int i = 0; i < 4; ++i) {
        k.spawn("p", [&sum, i] { sum += i; });
    }
    k.run();
    EXPECT_EQ(sum, 6);
    // Guarded stacks recycle through the pool exactly like plain ones.
    for (int i = 0; i < 4; ++i) {
        k.spawn("q", [&sum] { ++sum; });
    }
    k.run();
    EXPECT_EQ(sum, 10);
    EXPECT_GE(k.stats().stacks_recycled, 4u);
}

TEST(Kernel, ExplicitUcontextBackendMatchesFastSemantics) {
    // The same program must produce identical scheduling under both backends.
    auto run_with = [](ContextBackend backend) {
        KernelConfig cfg;
        cfg.backend = backend;
        Kernel k{cfg};
        std::vector<std::string> log;
        Event e{k, "e"};
        k.spawn("a", [&] {
            log.push_back("a0");
            k.notify(e);
            k.waitfor(2_us);
            log.push_back("a1");
        });
        k.spawn("b", [&] {
            k.wait(e);
            log.push_back("b0");
            k.waitfor(1_us);
            log.push_back("b1");
        });
        k.run();
        return log;
    };
    const auto uc = run_with(ContextBackend::Ucontext);
    const auto fast = run_with(ContextBackend::Fast);  // degrades if absent
    EXPECT_EQ(uc, fast);
    EXPECT_EQ(uc, (std::vector<std::string>{"a0", "b0", "b1", "a1"}));
}

// ---- One-shot timers (post_at / cancel_timer) ----

TEST(Kernel, PostAtFiresAtRequestedTime) {
    Kernel k;
    SimTime fired_at = SimTime::max();
    k.post_at(10_us, [&] { fired_at = k.now(); });
    k.spawn("p", [&] { k.waitfor(20_us); });
    k.run();
    EXPECT_EQ(fired_at, 10_us);
}

TEST(Kernel, TimerCallbackRunsInSchedulerContext) {
    Kernel k;
    bool saw_null_process = false;
    k.post_at(5_us, [&] { saw_null_process = this_process() == nullptr; });
    k.spawn("p", [&] { k.waitfor(10_us); });
    k.run();
    EXPECT_TRUE(saw_null_process);
}

TEST(Kernel, TimerFiresBeforeSameInstantProcessWakeup) {
    Kernel k;
    std::vector<std::string> log;
    k.post_at(10_us, [&] { log.push_back("timer"); });
    k.spawn("p", [&] {
        k.waitfor(10_us);
        log.push_back("process");
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"timer", "process"}));
}

TEST(Kernel, SameInstantTimersFireInPostingOrder) {
    Kernel k;
    std::vector<int> order;
    k.post_at(5_us, [&] { order.push_back(1); });
    k.post_at(5_us, [&] { order.push_back(2); });
    k.post_at(5_us, [&] { order.push_back(3); });
    k.spawn("p", [&] { k.waitfor(10_us); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, CancelTimerPreventsFiring) {
    Kernel k;
    bool fired = false;
    const Kernel::TimerId id = k.post_at(10_us, [&] { fired = true; });
    EXPECT_TRUE(k.timer_pending(id));
    k.cancel_timer(id);
    EXPECT_FALSE(k.timer_pending(id));
    k.spawn("p", [&] { k.waitfor(20_us); });
    k.run();
    EXPECT_FALSE(fired);
}

TEST(Kernel, TimerPendingClearsAfterFiring) {
    // Pending until it fires: already false inside its own callback and for
    // a process waking at the same instant.
    Kernel k;
    std::vector<bool> pending;
    Kernel::TimerId id = 0;
    id = k.post_at(5_us, [&] { pending.push_back(k.timer_pending(id)); });
    k.spawn("p", [&] {
        pending.push_back(k.timer_pending(id));
        k.waitfor(5_us);
        pending.push_back(k.timer_pending(id));
        k.waitfor(5_us);
    });
    k.run();
    EXPECT_EQ(pending, (std::vector<bool>{true, false, false}));
    EXPECT_FALSE(k.timer_pending(id));
    k.cancel_timer(id);  // cancelling a fired timer is a harmless no-op
}

TEST(Kernel, RunUntilAdvancesThroughTimerOnlyActivity) {
    // A pending timer alone counts as activity: run_until() must advance to
    // it even with no runnable processes.
    Kernel k;
    SimTime fired_at{};
    k.post_at(30_us, [&] { fired_at = k.now(); });
    k.run_until(100_us);
    EXPECT_EQ(fired_at, 30_us);
    EXPECT_EQ(k.now(), 100_us);
}

TEST(Kernel, TimerCallbackCanChainAnotherTimer) {
    Kernel k;
    std::vector<SimTime> fires;
    std::function<void()> tick = [&] {
        fires.push_back(k.now());
        if (fires.size() < 3) {
            k.post_at(k.now() + 10_us, tick);
        }
    };
    k.post_at(10_us, tick);
    k.run_until(100_us);
    EXPECT_EQ(fires, (std::vector<SimTime>{10_us, 20_us, 30_us}));
}

// ---- Dispatch without the scheduler round trip ----

TEST(Kernel, LoneProcessResumesInlineWithoutHostSwitches) {
    // Each waitfor() of a process with no company resumes the process that
    // blocked: it is dispatched every time but switched to only once, and
    // switches back only when it finishes.
    constexpr std::uint64_t kSteps = 1000;
    Kernel k;
    k.spawn("p", [&] {
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            k.waitfor(1_us);
        }
    });
    k.run();
    EXPECT_EQ(k.now(), microseconds(kSteps));
    EXPECT_EQ(k.stats().process_activations, kSteps + 1);
    EXPECT_EQ(k.stats().time_advances, kSteps);
    EXPECT_EQ(k.stats().host_switches, 2u);
}

TEST(Kernel, PingPongTakesOneHostSwitchPerActivation) {
    // Two processes alternating over events hand the CPU straight to each
    // other: one switch per activation, plus one back to the scheduler
    // context when each process finishes.
    constexpr int kRounds = 500;
    Kernel k;
    Event ping{k, "ping"};
    Event pong{k, "pong"};
    std::vector<int> order;
    k.spawn("b", [&] {
        for (int i = 0; i < kRounds; ++i) {
            k.wait(ping);
            order.push_back(2 * i + 1);
            k.notify(pong);
        }
    });
    k.spawn("a", [&] {
        for (int i = 0; i < kRounds; ++i) {
            order.push_back(2 * i);
            k.notify(ping);
            k.wait(pong);
        }
    });
    k.run();
    ASSERT_EQ(order.size(), 2u * kRounds);
    for (int i = 0; i < 2 * kRounds; ++i) {
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
    }
    const KernelStats& s = k.stats();
    EXPECT_EQ(s.process_activations, 2u * kRounds + 2);
    EXPECT_EQ(s.host_switches, s.process_activations + 2);
}

TEST(Kernel, AbortReportsOnlyLiveActivityAsRemaining) {
    // After an abort, run_until() answers "activity remains" from live timed
    // entries only: a killed sleeper's wakeup and a wait_timeout() deadline
    // superseded by its notify are stale and do not count.
    for (const bool live_sleeper : {false, true}) {
        Kernel k;
        Event e{k, "e"};
        Process* sleeper = k.spawn("sleeper", [&] { k.waitfor(100_us); });
        k.spawn("waiter", [&] { (void)k.wait_timeout(e, 50_us); });
        if (live_sleeper) {
            k.spawn("live", [&] { k.waitfor(150_us); });
        }
        k.spawn("stopper", [&] {
            k.notify(e);
            k.kill(*sleeper);
            k.waitfor(1_us);
            throw SimulationAbort{"stop"};
        });
        EXPECT_EQ(k.run_until(200_us), live_sleeper);
        EXPECT_TRUE(k.aborted());
        EXPECT_EQ(k.now(), 1_us);
    }
}

TEST(Kernel, ObserversAndControllerSeeNoCurrentProcessWhileDispatching) {
    // A blocked process drives dispatch on its own stack, but the loop runs
    // as the scheduler context did: this_process() is null inside kernel
    // observer callbacks and choice points raised by the loop.
    struct Probe final : KernelObserver, ScheduleController {
        void on_process_state(const Process&, ProcState from, ProcState) override {
            // Transitions a process makes itself (Running -> blocked/done)
            // happen in its own context; everything else is the loop's.
            if (from != ProcState::Running) {
                non_null += this_process() != nullptr ? 1 : 0;
            }
        }
        void on_time_advance(SimTime) override {
            non_null += this_process() != nullptr ? 1 : 0;
        }
        std::size_t choose(const SchedulePoint&) override {
            non_null += this_process() != nullptr ? 1 : 0;
            ++points;
            return 0;
        }
        int non_null = 0;
        int points = 0;
    } probe;
    Kernel k;
    k.set_observer(&probe);
    k.set_schedule_controller(&probe);
    Event e{k, "e"};
    for (int i = 0; i < 3; ++i) {
        k.spawn("w" + std::to_string(i), [&] {
            k.wait(e);
            k.waitfor(1_us);
        });
    }
    k.spawn("n", [&] {
        k.waitfor(1_us);
        k.notify(e);
        k.yield();
    });
    k.run();
    EXPECT_GT(probe.points, 0);
    EXPECT_EQ(probe.non_null, 0);
}

TEST(Kernel, AbortThrownInsideProcessDrivenDispatchUnwindsThatProcess) {
    // A lone process advances time itself, so an observer throwing
    // SimulationAbort from on_time_advance throws on that process's stack:
    // the process unwinds (running its destructors) and the run aborts.
    struct Thrower final : KernelObserver {
        void on_time_advance(SimTime now) override {
            if (now == 3_us) {
                throw SimulationAbort{"observer"};
            }
        }
    } thrower;
    Kernel k;
    k.set_observer(&thrower);
    bool unwound = false;
    k.spawn("p", [&] {
        struct Guard {
            bool& flag;
            ~Guard() { flag = true; }
        } guard{unwound};
        for (;;) {
            k.waitfor(1_us);
        }
    });
    EXPECT_FALSE(k.run_until(10_us));
    EXPECT_TRUE(k.aborted());
    EXPECT_EQ(k.abort_reason().value_or(""), "observer");
    EXPECT_TRUE(unwound);
    EXPECT_EQ(k.now(), 3_us);
}

// ---- The wakeup stays in hand (run under both context backends) ----

class InHandWakeup : public ::testing::TestWithParam<ContextBackend> {
protected:
    KernelConfig cfg() const {
        KernelConfig c;
        c.backend = GetParam();
        return c;
    }
};

INSTANTIATE_TEST_SUITE_P(Backends, InHandWakeup,
                         ::testing::Values(ContextBackend::Fast, ContextBackend::Ucontext),
                         [](const ::testing::TestParamInfo<ContextBackend>& info) {
                             return std::string(to_string(info.param));
                         });

TEST_P(InHandWakeup, SameInstantTimerFiresFirst) {
    // The lone sleeper's wakeup and a timer posted for the same instant: the
    // timer wins, so the wakeup is queued behind it instead of held.
    Kernel k{cfg()};
    std::vector<std::string> log;
    k.spawn("p", [&] {
        k.post_at(k.now() + 10_us, [&] { log.push_back("timer at " + k.now().to_string()); });
        k.waitfor(10_us);
        log.push_back("process at " + k.now().to_string());
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"timer at 10 us", "process at 10 us"}));
    EXPECT_EQ(k.stats().time_advances, 1u);
}

TEST_P(InHandWakeup, TwoSleepersDueTogetherRaiseOneDeltaOrderPoint) {
    // The second sleeper to block is due at the same instant as the first:
    // both wake in one advance and the controller chooses between them once.
    struct Recorder final : ScheduleController {
        std::size_t choose(const SchedulePoint& pt) override {
            if (pt.now == 5_us) {
                sizes.push_back(pt.candidates.size());
            }
            return 0;
        }
        std::vector<std::size_t> sizes;
    } rec;
    Kernel k{cfg()};
    k.set_schedule_controller(&rec);
    std::vector<std::string> order;
    for (const char* name : {"a", "b"}) {
        k.spawn(name, [&k, &order, name] {
            k.waitfor(5_us);
            order.emplace_back(name);
        });
    }
    k.run();
    EXPECT_EQ(rec.sizes, (std::vector<std::size_t>{2}));
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(k.stats().time_advances, 1u);
}

TEST_P(InHandWakeup, RunUntilStoppingShortLeavesSleeperPendingAndResumable) {
    Kernel k{cfg()};
    std::vector<SimTime> woke;
    Process* p = k.spawn("p", [&] {
        k.waitfor(10_us);
        woke.push_back(k.now());
        k.waitfor(10_us);
        woke.push_back(k.now());
    });
    EXPECT_TRUE(k.run_until(5_us));
    EXPECT_EQ(k.now(), 5_us);
    EXPECT_EQ(p->state(), ProcState::WaitingTime);
    EXPECT_TRUE(woke.empty());
    EXPECT_TRUE(k.run_until(15_us));
    EXPECT_EQ(woke, (std::vector<SimTime>{10_us}));
    EXPECT_EQ(k.now(), 15_us);
    EXPECT_FALSE(k.run_until(100_us));
    EXPECT_EQ(woke, (std::vector<SimTime>{10_us, 20_us}));
    EXPECT_TRUE(p->done());
}

TEST_P(InHandWakeup, KilledSleeperAndBeatenDeadlineLeaveNoActivity) {
    // Neither the killed sleeper's wakeup nor the deadline its notify beat
    // keeps run() alive or drags now() to their instants.
    for (const bool bounded : {false, true}) {
        Kernel k{cfg()};
        Event e{k, "e"};
        bool got = false;
        Process* sleeper = k.spawn("sleeper", [&] { k.waitfor(100_us); });
        k.spawn("waiter", [&] { got = k.wait_timeout(e, 50_us); });
        k.spawn("driver", [&] {
            k.waitfor(1_us);
            k.notify(e);
            k.kill(*sleeper);
            k.waitfor(1_us);
        });
        if (bounded) {
            EXPECT_FALSE(k.run_until(200_us));
            EXPECT_EQ(k.now(), 200_us);
        } else {
            k.run();
            EXPECT_EQ(k.now(), 2_us);
        }
        EXPECT_TRUE(got);
        EXPECT_EQ(sleeper->state(), ProcState::Killed);
        EXPECT_EQ(k.stats().time_advances, 2u);
    }
}

TEST_P(InHandWakeup, ObserverThrowingFromTimeAdvanceUnwindsTheSleeper) {
    // The lone sleeper advances time on its own stack; the throw unwinds it,
    // and its wakeup, held at that moment, is not left behind as activity.
    struct Thrower final : KernelObserver {
        void on_time_advance(SimTime now) override {
            if (now == 3_us) {
                throw SimulationAbort{"observer"};
            }
        }
    } thrower;
    for (const bool company : {false, true}) {
        Kernel k{cfg()};
        k.set_observer(&thrower);
        bool unwound = false;
        Process* p = k.spawn("p", [&] {
            struct Guard {
                bool& flag;
                ~Guard() { flag = true; }
            } guard{unwound};
            for (;;) {
                k.waitfor(1_us);
            }
        });
        if (company) {
            k.spawn("late", [&] { k.waitfor(50_us); });
        }
        EXPECT_EQ(k.run_until(10_us), company);
        EXPECT_TRUE(k.aborted());
        EXPECT_TRUE(unwound);
        EXPECT_EQ(p->state(), ProcState::Killed);
        EXPECT_EQ(k.now(), 3_us);
    }
}

TEST_P(InHandWakeup, LoneWaitforZeroCountsOneAdvanceWithoutMovingTime) {
    // time_advances counts advance_to steps, the same-instant one of
    // waitfor(0) included.
    Kernel k{cfg()};
    k.spawn("p", [&] { k.waitfor(SimTime::zero()); });
    k.run();
    EXPECT_EQ(k.now(), SimTime::zero());
    EXPECT_EQ(k.stats().time_advances, 1u);
    EXPECT_EQ(k.stats().delta_cycles, 2u);
}

TEST(Kernel, TimerPostedWhileWakeupsFireWaitsForTheNextAdvance) {
    // An observer posting a timer for the current instant while that
    // instant's wakeups are delivered: every wakeup still lands in this
    // advance, and the timer fires in a second advance to the same instant.
    struct Poster final : KernelObserver {
        void on_process_state(const Process&, ProcState from, ProcState to) override {
            if (!posted && from == ProcState::WaitingTime && to == ProcState::Ready) {
                posted = true;
                k->post_at(k->now(), [this] { log->push_back("timer"); });
            }
        }
        Kernel* k = nullptr;
        std::vector<std::string>* log = nullptr;
        bool posted = false;
    } poster;
    Kernel k;
    std::vector<std::string> log;
    poster.k = &k;
    poster.log = &log;
    k.set_observer(&poster);
    for (const char* name : {"a", "b"}) {
        k.spawn(name, [&k, &log, name] {
            k.waitfor(5_us);
            log.emplace_back(name);
        });
    }
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "timer"}));
    EXPECT_EQ(k.stats().time_advances, 2u);
    EXPECT_EQ(k.now(), 5_us);
}

// ---- Timer handles ----

TEST(KernelTimer, CancelAfterFiringAndCancelTwiceAreNoOps) {
    Kernel k;
    int fired = 0;
    const Kernel::TimerId done = k.post_at(1_us, [&] { ++fired; });
    const Kernel::TimerId twice = k.post_at(2_us, [&] { fired += 10; });
    k.cancel_timer(twice);
    k.cancel_timer(twice);
    EXPECT_FALSE(k.run_until(5_us));
    EXPECT_EQ(fired, 1);
    k.cancel_timer(done);
    k.cancel_timer(done);
    const Kernel::TimerId later = k.post_at(8_us, [&] { fired += 100; });
    k.cancel_timer(done);
    k.cancel_timer(twice);
    EXPECT_TRUE(k.timer_pending(later));
    k.run();
    EXPECT_EQ(fired, 101);
}

TEST(KernelTimer, IdOfAReusedSlotNeverCancelsTheNewTimer) {
    Kernel k;
    std::vector<int> fired;
    const Kernel::TimerId cancelled = k.post_at(1_us, [&] { fired.push_back(0); });
    k.cancel_timer(cancelled);
    const Kernel::TimerId second = k.post_at(2_us, [&] { fired.push_back(2); });
    EXPECT_NE(second, cancelled);
    k.cancel_timer(cancelled);
    EXPECT_TRUE(k.timer_pending(second));
    EXPECT_FALSE(k.timer_pending(cancelled));
    (void)k.run_until(3_us);
    const Kernel::TimerId third = k.post_at(4_us, [&] { fired.push_back(4); });
    EXPECT_NE(third, second);
    k.cancel_timer(second);  // fired; its slot now holds `third`
    k.cancel_timer(cancelled);
    EXPECT_TRUE(k.timer_pending(third));
    k.run();
    EXPECT_EQ(fired, (std::vector<int>{2, 4}));
}

TEST(KernelTimer, CancelDestroysTheCallbackCaptures) {
    Kernel k;
    auto token = std::make_shared<int>(0);
    const Kernel::TimerId id = k.post_at(1_ms, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    k.cancel_timer(id);
    EXPECT_EQ(token.use_count(), 1);
    k.run();
    EXPECT_EQ(*token, 0);
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(KernelTimer, PendingCallbacksDieWithTheKernel) {
    auto token = std::make_shared<int>(0);
    {
        Kernel k;
        for (int i = 0; i < 3; ++i) {
            k.post_at(microseconds(10 + i), [token] { ++*token; });
        }
        (void)k.post_at(1_us, [token] { ++*token; });
        EXPECT_TRUE(k.run_until(5_us));
        EXPECT_EQ(token.use_count(), 4);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 1);
}

// ---- Guard-page fallback (satellite: StackPool robustness) ----

TEST(Kernel, GuardFailureFallsBackToUnguardedStacks) {
    StackPool::force_guard_failure_for_testing(true);
    {
        KernelConfig cfg;
        cfg.guard_pages = true;
        Kernel k{cfg};
        int sum = 0;
        for (int i = 0; i < 4; ++i) {
            k.spawn("p", [&sum, i] { sum += i; });
        }
        k.run();
        EXPECT_EQ(sum, 6);  // processes still ran, just without guards
        EXPECT_EQ(k.stats().guard_pages_disabled, 1u);
    }
    StackPool::force_guard_failure_for_testing(false);
    KernelConfig cfg;
    cfg.guard_pages = true;
    Kernel k{cfg};
    k.spawn("p", [] {});
    k.run();
    EXPECT_EQ(k.stats().guard_pages_disabled, 0u);
}

// ---- Per-thread stack cache ----

TEST(StackCache, KernelBuiltOnOneThreadIsDestroyedOnAnother) {
    // Live processes' stacks go back to the destroying thread's cache.
    KernelConfig cfg;
    cfg.stack_size = 64 * 1024;
    std::unique_ptr<Kernel> k;
    std::thread builder([&] {
        k = std::make_unique<Kernel>(cfg);
        for (int i = 0; i < 4; ++i) {
            k->spawn("sleeper" + std::to_string(i), [&] { k->waitfor(1_s); });
        }
        k->spawn("done", [] {});
        EXPECT_TRUE(k->run_until(1_us));
        EXPECT_EQ(k->stats().stack_bytes_in_use, 4u * cfg.stack_size);
    });
    builder.join();
    std::size_t returned = 0;
    std::thread destroyer([&] {
        const std::size_t before = StackPool::cached_bytes_for_testing(false);
        k.reset();
        returned = StackPool::cached_bytes_for_testing(false) - before;
    });
    destroyer.join();
    EXPECT_EQ(returned, 4u * cfg.stack_size);
}

TEST(StackCache, KernelOutlivingItsThreadsCacheFreesItsStacks) {
    // A thread_local kernel constructed before the thread's stack cache is
    // destroyed after it at thread exit; its live stack is freed, not cached.
    std::thread t([] {
        thread_local Kernel k;
        k.spawn("sleeper", [] { this_kernel().waitfor(1_s); });
        EXPECT_TRUE(k.run_until(1_us));
        EXPECT_GT(k.stats().stack_bytes_in_use, 0u);
    });
    t.join();
}

TEST(StackCache, GuardedKernelAfterPlainKernelsGetsGuardPages) {
    std::thread t([] {  // a fresh thread starts with an empty cache
        {
            // More finished processes than the cache keeps: it fills with
            // plain stacks.
            Kernel plain;
            const std::size_t n = StackPool::kMaxCachedBytes / KernelConfig{}.stack_size + 8;
            for (std::size_t i = 0; i < n; ++i) {
                plain.spawn("p", [] {});
            }
            plain.run();
        }
        ASSERT_EQ(StackPool::cached_bytes_for_testing(false), StackPool::kMaxCachedBytes);
        KernelConfig cfg;
        cfg.guard_pages = true;
        {
            Kernel guarded{cfg};
            for (int i = 0; i < 4; ++i) {
                guarded.spawn("g", [] {});
            }
            EXPECT_EQ(guarded.stats().stacks_recycled, 0u);  // no plain stack handed out
            guarded.run();
            EXPECT_EQ(guarded.stats().guard_pages_disabled, 0u);
        }
        // The guarded stacks displaced plain ones and serve the next kernel.
        EXPECT_EQ(StackPool::cached_bytes_for_testing(true), 4u * cfg.stack_size);
        Kernel again{cfg};
        for (int i = 0; i < 4; ++i) {
            again.spawn("g", [] {});
        }
        EXPECT_EQ(again.stats().stacks_recycled, 4u);
        again.run();
    });
    t.join();
}

TEST(StackCache, CapHoldsAfterKernelWithThousandLiveProcessesDies) {
    std::thread t([] {
        KernelConfig cfg;
        cfg.stack_size = 64 * 1024;
        {
            Kernel k{cfg};
            for (int i = 0; i < 1000; ++i) {
                k.spawn("sleeper", [&k] { k.waitfor(1_s); });
            }
            EXPECT_TRUE(k.run_until(1_us));
            EXPECT_EQ(k.stats().stack_bytes_in_use, 1000u * cfg.stack_size);
        }
        // Full, and no more than full.
        EXPECT_EQ(StackPool::cached_bytes_for_testing(false) +
                      StackPool::cached_bytes_for_testing(true),
                  StackPool::kMaxCachedBytes);
    });
    t.join();
}

// ---- Dispatch-order golden ----

namespace {

/// Logs every kernel-observed transition and time advance as
/// "process from>to @time" / "time @time", interleaved with the processes'
/// own log lines, so one vector pins the complete (process, event, time)
/// order of a run.
struct GoldenLog final : KernelObserver {
    explicit GoldenLog(Kernel& k) : k(k) {}
    void on_process_state(const Process& p, ProcState from, ProcState to) override {
        lines.push_back(p.name() + " " + to_string(from) + ">" + to_string(to) + " @" +
                        k.now().to_string());
    }
    void on_time_advance(SimTime now) override {
        lines.push_back("time @" + now.to_string());
    }
    void note(const std::string& what) {
        lines.push_back(what + " @" + k.now().to_string());
    }
    Kernel& k;
    std::vector<std::string> lines;
};

/// Logs every choice point offered and answers it: the FIFO front on even
/// points, the last candidate on odd ones.
struct AlternatingController final : ScheduleController {
    std::size_t choose(const SchedulePoint& pt) override {
        std::string line = std::string(to_string(pt.kind)) + " @" + pt.now.to_string() + ":";
        for (std::string_view c : pt.candidates) {
            line += ' ';
            line += c;
        }
        const std::size_t pick = points.size() % 2 == 1 ? pt.candidates.size() - 1 : 0;
        points.push_back(line + " -> " + std::to_string(pick));
        return pick;
    }
    std::vector<std::string> points;
};

/// One run through every dispatch path: waitfor(0) and yield, a notify
/// releasing several waiters, wait_timeout losing and winning a race against a
/// notify, par/join, a kill from a post_at callback, a timer due at the same
/// instant as a solo wakeup, run_until stopping at its limit while one process
/// sleeps past it, and a SimulationAbort thrown by a process entered straight
/// from the process that blocked before it. Returns the observer log.
std::vector<std::string> run_golden_scenario(ScheduleController* ctl) {
    Kernel k;
    GoldenLog g{k};
    k.set_observer(&g);
    k.set_schedule_controller(ctl);
    Event e1{k, "e1"};
    Event e2{k, "e2"};
    Event e3{k, "e3"};
    Event e4{k, "e4"};
    Event e5{k, "e5"};
    struct Unwind {
        GoldenLog& g;
        ~Unwind() { g.note("V unwound"); }
    };

    Process* a = k.spawn("A", [&] {
        g.note("A start");
        k.waitfor(0_ns);
        g.note("A after waitfor0");
        k.yield();
        g.note("A after yield");
        k.notify(e1);
        const bool got = k.wait_timeout(e2, 3_us);
        g.note(std::string("A wait_timeout ") + (got ? "event" : "timeout"));
        k.par({[&] {
                   k.waitfor(1_us);
                   g.note("A.par0 done");
               },
               [&] { g.note("A.par1 done"); }});
        g.note("A joined");
    });
    k.spawn("B", [&] {
        k.wait(e1);
        g.note("B woke");
        k.waitfor(3_us);
        k.notify(e2);
        g.note("B notified e2");
    });
    k.spawn("C", [&] {
        k.wait(e1);
        g.note("C woke");
        k.waitfor(4_us);
        k.notify(e3);
        g.note("C notified e3");
    });
    k.spawn("D", [&] {
        const bool got = k.wait_timeout(e3, 5_us);
        g.note(std::string("D wait_timeout ") + (got ? "event" : "timeout"));
    });
    k.spawn("J", [&] {
        k.join(*a);
        g.note("J joined A");
    });
    Process* v = k.spawn("V", [&] {
        Unwind u{g};
        k.waitfor(100_us);
        g.note("V never");
    });
    k.spawn("F", [&] {
        k.waitfor(8_us);
        g.note("F at 8");
        k.waitfor(4_us);
        g.note("F at 12");
        k.waitfor(3_us);
        k.notify(e4);
        k.wait(e5);
        g.note("F never");
    });
    k.spawn("I", [&] {
        k.wait(e4);
        g.note("I aborts");
        throw SimulationAbort{"golden stop"};
    });
    k.post_at(6_us, [&] {
        g.note("timer kills V");
        k.kill(*v);
    });
    k.post_at(8_us, [&] { g.note("timer at 8"); });

    EXPECT_TRUE(k.run_until(10_us));
    g.note("run_until(10us) returned");
    (void)k.run_until(50_us);
    g.note("run_until(50us) returned");
    g.note("aborted: " + k.abort_reason().value_or("no"));

    const KernelStats& s = k.stats();
    g.lines.push_back("activations " + std::to_string(s.process_activations) +
                      " deltas " + std::to_string(s.delta_cycles) + " advances " +
                      std::to_string(s.time_advances) + " notified " +
                      std::to_string(s.events_notified));
    return g.lines;
}

}  // namespace

TEST(KernelGolden, MixedScenarioOrderIsPinned) {
    const std::vector<std::string> expected = {
        "A Created>Ready @0 ns",
        "B Created>Ready @0 ns",
        "C Created>Ready @0 ns",
        "D Created>Ready @0 ns",
        "J Created>Ready @0 ns",
        "V Created>Ready @0 ns",
        "F Created>Ready @0 ns",
        "I Created>Ready @0 ns",
        "A Ready>Running @0 ns",
        "A start @0 ns",
        "A Running>WaitingTime @0 ns",
        "B Ready>Running @0 ns",
        "B Running>WaitingEvent @0 ns",
        "C Ready>Running @0 ns",
        "C Running>WaitingEvent @0 ns",
        "D Ready>Running @0 ns",
        "D Running>WaitingEvent @0 ns",
        "J Ready>Running @0 ns",
        "J Running>WaitingEvent @0 ns",
        "V Ready>Running @0 ns",
        "V Running>WaitingTime @0 ns",
        "F Ready>Running @0 ns",
        "F Running>WaitingTime @0 ns",
        "I Ready>Running @0 ns",
        "I Running>WaitingEvent @0 ns",
        "time @0 ns",
        "A WaitingTime>Ready @0 ns",
        "A Ready>Running @0 ns",
        "A after waitfor0 @0 ns",
        "A Running>Ready @0 ns",
        "A Ready>Running @0 ns",
        "A after yield @0 ns",
        "A Running>WaitingEvent @0 ns",
        "B WaitingEvent>Ready @0 ns",
        "C WaitingEvent>Ready @0 ns",
        "B Ready>Running @0 ns",
        "B woke @0 ns",
        "B Running>WaitingTime @0 ns",
        "C Ready>Running @0 ns",
        "C woke @0 ns",
        "C Running>WaitingTime @0 ns",
        "time @3 us",
        "A WaitingEvent>Ready @3 us",
        "B WaitingTime>Ready @3 us",
        "A Ready>Running @3 us",
        "A wait_timeout timeout @3 us",
        "A.par0 Created>Ready @3 us",
        "A.par1 Created>Ready @3 us",
        "A Running>Joining @3 us",
        "B Ready>Running @3 us",
        "B notified e2 @3 us",
        "B Running>Done @3 us",
        "A.par0 Ready>Running @3 us",
        "A.par0 Running>WaitingTime @3 us",
        "A.par1 Ready>Running @3 us",
        "A.par1 done @3 us",
        "A.par1 Running>Done @3 us",
        "time @4 us",
        "C WaitingTime>Ready @4 us",
        "A.par0 WaitingTime>Ready @4 us",
        "C Ready>Running @4 us",
        "C notified e3 @4 us",
        "C Running>Done @4 us",
        "A.par0 Ready>Running @4 us",
        "A.par0 done @4 us",
        "A.par0 Running>Done @4 us",
        "A Joining>Ready @4 us",
        "A Ready>Running @4 us",
        "A joined @4 us",
        "A Running>Done @4 us",
        "D WaitingEvent>Ready @4 us",
        "J WaitingEvent>Ready @4 us",
        "D Ready>Running @4 us",
        "D wait_timeout event @4 us",
        "D Running>Done @4 us",
        "J Ready>Running @4 us",
        "J joined A @4 us",
        "J Running>Done @4 us",
        "time @6 us",
        "timer kills V @6 us",
        "V WaitingTime>Ready @6 us",
        "V Ready>Running @6 us",
        "V unwound @6 us",
        "V Running>Killed @6 us",
        "time @8 us",
        "timer at 8 @8 us",
        "F WaitingTime>Ready @8 us",
        "F Ready>Running @8 us",
        "F at 8 @8 us",
        "F Running>WaitingTime @8 us",
        "run_until(10us) returned @10 us",
        "time @12 us",
        "F WaitingTime>Ready @12 us",
        "F Ready>Running @12 us",
        "F at 12 @12 us",
        "F Running>WaitingTime @12 us",
        "time @15 us",
        "F WaitingTime>Ready @15 us",
        "F Ready>Running @15 us",
        "F Running>WaitingEvent @15 us",
        "I WaitingEvent>Ready @15 us",
        "I Ready>Running @15 us",
        "I aborts @15 us",
        "I Running>Killed @15 us",
        "run_until(50us) returned @15 us",
        "aborted: golden stop @15 us",
        "activations 26 deltas 11 advances 7 notified 5",
    };
    EXPECT_EQ(run_golden_scenario(nullptr), expected);
}

TEST(KernelGolden, MixedScenarioChoicePointsArePinned) {
    // The same scenario under a controller: every DeltaOrder point is offered
    // with the same candidates in the same order, and answering it reorders
    // the run the same way.
    AlternatingController ctl;
    const std::vector<std::string> lines = run_golden_scenario(&ctl);
    const std::vector<std::string> expected_points = {
        "delta_order @0 ns: A B C D J V F I -> 0",
        "delta_order @0 ns: B C D J V F I -> 6",
        "delta_order @0 ns: B C D J V F -> 0",
        "delta_order @0 ns: C D J V F -> 4",
        "delta_order @0 ns: C D J V -> 0",
        "delta_order @0 ns: D J V -> 2",
        "delta_order @0 ns: D J -> 0",
        "delta_order @0 ns: B C -> 1",
        "delta_order @3 us: A B -> 0",
        "delta_order @3 us: B A.par0 A.par1 -> 2",
        "delta_order @3 us: B A.par0 -> 0",
        "delta_order @4 us: C A.par0 -> 1",
        "delta_order @4 us: C A -> 0",
        "delta_order @4 us: D J -> 1",
    };
    EXPECT_EQ(ctl.points, expected_points);
    const std::vector<std::string> expected = {
        "A Created>Ready @0 ns",
        "B Created>Ready @0 ns",
        "C Created>Ready @0 ns",
        "D Created>Ready @0 ns",
        "J Created>Ready @0 ns",
        "V Created>Ready @0 ns",
        "F Created>Ready @0 ns",
        "I Created>Ready @0 ns",
        "A Ready>Running @0 ns",
        "A start @0 ns",
        "A Running>WaitingTime @0 ns",
        "I Ready>Running @0 ns",
        "I Running>WaitingEvent @0 ns",
        "B Ready>Running @0 ns",
        "B Running>WaitingEvent @0 ns",
        "F Ready>Running @0 ns",
        "F Running>WaitingTime @0 ns",
        "C Ready>Running @0 ns",
        "C Running>WaitingEvent @0 ns",
        "V Ready>Running @0 ns",
        "V Running>WaitingTime @0 ns",
        "D Ready>Running @0 ns",
        "D Running>WaitingEvent @0 ns",
        "J Ready>Running @0 ns",
        "J Running>WaitingEvent @0 ns",
        "time @0 ns",
        "A WaitingTime>Ready @0 ns",
        "A Ready>Running @0 ns",
        "A after waitfor0 @0 ns",
        "A Running>Ready @0 ns",
        "A Ready>Running @0 ns",
        "A after yield @0 ns",
        "A Running>WaitingEvent @0 ns",
        "B WaitingEvent>Ready @0 ns",
        "C WaitingEvent>Ready @0 ns",
        "C Ready>Running @0 ns",
        "C woke @0 ns",
        "C Running>WaitingTime @0 ns",
        "B Ready>Running @0 ns",
        "B woke @0 ns",
        "B Running>WaitingTime @0 ns",
        "time @3 us",
        "A WaitingEvent>Ready @3 us",
        "B WaitingTime>Ready @3 us",
        "A Ready>Running @3 us",
        "A wait_timeout timeout @3 us",
        "A.par0 Created>Ready @3 us",
        "A.par1 Created>Ready @3 us",
        "A Running>Joining @3 us",
        "A.par1 Ready>Running @3 us",
        "A.par1 done @3 us",
        "A.par1 Running>Done @3 us",
        "B Ready>Running @3 us",
        "B notified e2 @3 us",
        "B Running>Done @3 us",
        "A.par0 Ready>Running @3 us",
        "A.par0 Running>WaitingTime @3 us",
        "time @4 us",
        "C WaitingTime>Ready @4 us",
        "A.par0 WaitingTime>Ready @4 us",
        "A.par0 Ready>Running @4 us",
        "A.par0 done @4 us",
        "A.par0 Running>Done @4 us",
        "A Joining>Ready @4 us",
        "C Ready>Running @4 us",
        "C notified e3 @4 us",
        "C Running>Done @4 us",
        "A Ready>Running @4 us",
        "A joined @4 us",
        "A Running>Done @4 us",
        "D WaitingEvent>Ready @4 us",
        "J WaitingEvent>Ready @4 us",
        "J Ready>Running @4 us",
        "J joined A @4 us",
        "J Running>Done @4 us",
        "D Ready>Running @4 us",
        "D wait_timeout event @4 us",
        "D Running>Done @4 us",
        "time @6 us",
        "timer kills V @6 us",
        "V WaitingTime>Ready @6 us",
        "V Ready>Running @6 us",
        "V unwound @6 us",
        "V Running>Killed @6 us",
        "time @8 us",
        "timer at 8 @8 us",
        "F WaitingTime>Ready @8 us",
        "F Ready>Running @8 us",
        "F at 8 @8 us",
        "F Running>WaitingTime @8 us",
        "run_until(10us) returned @10 us",
        "time @12 us",
        "F WaitingTime>Ready @12 us",
        "F Ready>Running @12 us",
        "F at 12 @12 us",
        "F Running>WaitingTime @12 us",
        "time @15 us",
        "F WaitingTime>Ready @15 us",
        "F Ready>Running @15 us",
        "F Running>WaitingEvent @15 us",
        "I WaitingEvent>Ready @15 us",
        "I Ready>Running @15 us",
        "I aborts @15 us",
        "I Running>Killed @15 us",
        "run_until(50us) returned @15 us",
        "aborted: golden stop @15 us",
        "activations 26 deltas 11 advances 7 notified 5",
    };
    EXPECT_EQ(lines, expected);
}
