// Contract-violation tests: misuse of the modeling APIs must abort loudly
// with a location message (SLM_ASSERT), never corrupt the simulation. These
// use gtest death tests; each scenario runs in a forked child.

#include <gtest/gtest.h>

#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "sim/channels.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::sim;
using namespace slm::rtos;
using namespace slm::time_literals;

TEST(Contracts, WaitOutsideProcessContextAborts) {
    Kernel k;
    Event e{k, "e"};
    EXPECT_DEATH(k.wait(e), "process context");
}

TEST(Contracts, WaitforOutsideProcessContextAborts) {
    Kernel k;
    EXPECT_DEATH(k.waitfor(1_us), "process context");
}

TEST(Contracts, ParOutsideProcessContextAborts) {
    Kernel k;
    EXPECT_DEATH(k.par({[] {}}), "par\\(\\) requires process context");
}

TEST(Contracts, WaitforForeverAborts) {
    Kernel k;
    k.spawn("p", [&] { k.waitfor(SimTime::max()); });
    EXPECT_DEATH(k.run(), "never wake");
}

TEST(Contracts, SpawnWithoutBodyAborts) {
    Kernel k;
    EXPECT_DEATH((void)k.spawn("empty", nullptr), "process body");
}

TEST(Contracts, MutexUnlockByNonOwnerAborts) {
    Kernel k;
    Mutex m{k};
    k.spawn("owner", [&] {
        m.lock();
        k.waitfor(10_us);
        m.unlock();
    });
    k.spawn("thief", [&] {
        k.waitfor(1_us);
        m.unlock();  // not the owner
    });
    EXPECT_DEATH(k.run(), "non-owner");
}

TEST(Contracts, RecursiveMutexLockAborts) {
    Kernel k;
    Mutex m{k};
    k.spawn("p", [&] {
        m.lock();
        m.lock();
    });
    EXPECT_DEATH(k.run(), "not recursive");
}

TEST(Contracts, TimeWaitFromNonTaskAborts) {
    Kernel k;
    RtosModel os{k};
    k.spawn("raw", [&] { os.time_wait(1_us); });
    os.start();
    EXPECT_DEATH(k.run(), "running task");
}

TEST(Contracts, DoubleStartAborts) {
    Kernel k;
    RtosModel os{k};
    os.start();
    EXPECT_DEATH(os.start(), "twice");
}

TEST(Contracts, PeriodicTaskNeedsPeriod) {
    Kernel k;
    RtosModel os{k};
    EXPECT_DEATH((void)os.task_create("p", TaskType::Periodic, SimTime::zero(),
                                      1_us, 0),
                 "period");
}

TEST(Contracts, EndcycleOnAperiodicAborts) {
    Kernel k;
    RtosModel os{k};
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 0);
    k.spawn("t", [&] {
        os.task_activate(t);
        os.task_endcycle();
    });
    os.start();
    EXPECT_DEATH(k.run(), "periodic");
}

TEST(Contracts, EventDelWithWaitersAborts) {
    Kernel k;
    RtosModel os{k};
    OsEvent* e = os.event_new("e");
    Task* waiter = os.task_create("waiter", TaskType::Aperiodic, {}, {}, 1);
    Task* deleter = os.task_create("deleter", TaskType::Aperiodic, {}, {}, 2);
    k.spawn("waiter", [&] {
        os.task_activate(waiter);
        os.event_wait(e);
    });
    k.spawn("deleter", [&] {
        os.task_activate(deleter);
        os.event_del(e);
    });
    os.start();
    EXPECT_DEATH(k.run(), "waiting");
}

TEST(Contracts, ActivateBoundTaskFromOtherProcessAborts) {
    Kernel k;
    RtosModel os{k};
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    k.spawn("a", [&] {
        os.task_activate(t);
        os.time_wait(10_us);
    });
    k.spawn("b", [&] {
        os.task_activate(t);  // New-task activation from a foreign process is
                              // fine only for the task's own process... but t
                              // is already bound once "a" ran.
        os.time_wait(10_us);
    });
    os.start();
    // "b" reaches task_activate while t is Running -> no-op; then b tries to
    // bind itself to a second task? No: b has no task, so time_wait aborts.
    EXPECT_DEATH(k.run(), "running task");
}

TEST(Contracts, ParEndWithoutParStartAborts) {
    Kernel k;
    RtosModel os{k};
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    k.spawn("t", [&] {
        os.task_activate(t);
        os.par_end(t);  // t is Running, not ParWait
    });
    os.start();
    EXPECT_DEATH(k.run(), "par_start");
}

TEST(Contracts, GanttNeedsWindow) {
    trace::TraceRecorder rec;
    EXPECT_DEATH((void)rec.render_gantt(10_us, 10_us), "window");
}
