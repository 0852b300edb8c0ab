#include "arch/fig3.hpp"

#include "arch/arch.hpp"
#include "rtos/os_channels.hpp"
#include "sim/channels.hpp"
#include "sim/kernel.hpp"

namespace slm::arch {

namespace {

/// Zero-latency bus for the example: the paper's Fig. 8 timeline attributes
/// no time to the transfer itself, only to the computation steps.
Bus::Config ideal_bus() {
    return Bus::Config{SimTime::zero(), SimTime::zero()};
}

}  // namespace

Fig3Result run_fig3_unscheduled(trace::TraceRecorder* rec, const Fig3Delays& d) {
    sim::Kernel k;
    Bus bus{k, "bus", ideal_bus()};
    BusLink<int> link{k, bus, "ext"};
    sim::Semaphore sem{k, 0, "sem"};
    sim::Queue<int> c1{k, 1, "c1"};
    sim::Queue<int> c2{k, 1, "c2"};
    Fig3Result res{};

    // Execute one behavior step of `who`, recording the span.
    const auto exec = [&](const char* who, SimTime dt) {
        if (rec != nullptr) {
            rec->exec_begin(k.now(), "PE0", who);
        }
        k.waitfor(dt);
        if (rec != nullptr) {
            rec->exec_end(k.now(), "PE0", who);
        }
    };

    // Interrupt handler: generated as part of the bus driver during
    // communication synthesis; signals the driver through `sem`.
    k.spawn("ISR", [&] {
        for (;;) {
            k.wait(link.irq().event());
            if (rec != nullptr) {
                rec->irq(k.now(), "PE0", "ext");
            }
            sem.release();
        }
    });

    // The external PE posting data onto the bus at t4.
    k.spawn("ExtPE", [&] {
        k.waitfor(d.irq_at);
        link.post(42, [&](SimTime dt) { k.waitfor(dt); });
    });

    k.spawn("PE", [&] {
        exec("B1", d.b1);
        k.par({sim::Branch{"B2",
                           [&] {
                               exec("B2", d.d5);
                               c1.send(1);
                               exec("B2", d.d6);
                               exec("B2", d.d7);
                               (void)c2.receive();
                               exec("B2", d.d8);
                               res.b2_done = k.now();
                           }},
               sim::Branch{"B3", [&] {
                               exec("B3", d.d1);
                               (void)c1.receive();
                               exec("B3", d.d2);
                               sem.acquire();
                               int data = 0;
                               (void)link.try_fetch(data);
                               res.bus_data_seen = k.now();
                               exec("B3", d.d3);
                               c2.send(2);
                               exec("B3", d.d4);
                               res.b3_done = k.now();
                           }}});
        res.pe_done = k.now();
    });

    k.run();
    res.context_switches = 0;  // no RTOS: behaviors are truly concurrent
    return res;
}

Fig3Result run_fig3_architecture(trace::TraceRecorder* rec, const Fig3Delays& d,
                                 rtos::RtosConfig cfg,
                                 const std::function<void(rtos::OsCore&)>& attach) {
    sim::Kernel k;
    cfg.cpu_name = "PE0";
    cfg.tracer = rec;
    rtos::RtosModel os{k, cfg};
    if (attach) {
        attach(os);
    }
    os.init();

    Bus bus{k, "bus", ideal_bus()};
    BusLink<int> link{k, bus, "ext"};
    rtos::OsSemaphore sem{os, 0, "sem"};
    rtos::OsQueue<int> c1{os, 1, "c1"};
    rtos::OsQueue<int> c2{os, 1, "c2"};
    Fig3Result res{};

    // ISR: wait on the interrupt line, release the driver semaphore, return
    // through the RTOS so the scheduler runs.
    k.spawn("ISR", [&] {
        for (;;) {
            k.wait(link.irq().event());
            os.isr_deliver("ext", [&] { sem.release(); });
        }
    });

    k.spawn("ExtPE", [&] {
        k.waitfor(d.irq_at);
        link.post(42, [&](SimTime dt) { k.waitfor(dt); });
    });

    // Task priorities: B3 > B2 > Task_PE (smaller number = higher priority).
    rtos::Task* tb2 = os.task_create("task_b2", rtos::TaskType::Aperiodic, {}, {}, 2);
    rtos::Task* tb3 = os.task_create("task_b3", rtos::TaskType::Aperiodic, {}, {}, 1);

    k.spawn("Task_PE", [&] {
        rtos::Task* me = os.task_create("task_pe", rtos::TaskType::Aperiodic, {}, {}, 3);
        os.task_activate(me);
        os.time_wait(d.b1);  // B1
        rtos::Task* parent = os.par_start();
        k.par({sim::Branch{"task_b2",
                           [&] {
                               os.task_activate(tb2);
                               os.time_wait(d.d5);
                               c1.send(1);
                               os.time_wait(d.d6);
                               os.time_wait(d.d7);
                               (void)c2.receive();
                               os.time_wait(d.d8);
                               res.b2_done = k.now();
                               os.task_terminate();
                           }},
               sim::Branch{"task_b3", [&] {
                               os.task_activate(tb3);
                               os.time_wait(d.d1);
                               (void)c1.receive();
                               os.time_wait(d.d2);
                               sem.acquire();
                               int data = 0;
                               (void)link.try_fetch(data);
                               res.bus_data_seen = k.now();
                               os.time_wait(d.d3);
                               c2.send(2);
                               os.time_wait(d.d4);
                               res.b3_done = k.now();
                               os.task_terminate();
                           }}});
        os.par_end(parent);
        res.pe_done = k.now();
        os.task_terminate();
    });

    os.start();
    k.run();
    res.context_switches = os.stats().context_switches;
    return res;
}

}  // namespace slm::arch
