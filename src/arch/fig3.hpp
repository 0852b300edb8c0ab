#pragma once

#include <functional>

#include "rtos/rtos.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace slm::arch {

/// The paper's running example (Fig. 3): one PE executing behavior B1 followed
/// by the parallel composition of B2 and B3. B2 and B3 communicate through
/// channels c1 and c2; B3 additionally receives data from another PE through a
/// bus driver whose interrupt handler signals a semaphore.
///
/// Timeline structure (Fig. 8):
///   B2: d5 | c1.send | d6 | d7 | c2.receive | d8
///   B3: d1 | c1.receive | d2 | bus receive (sem) | d3 | c2.send | d4
///   external PE posts the bus message at `irq_at` (the paper's t4).
struct Fig3Delays {
    SimTime b1 = microseconds(10);
    SimTime d1 = microseconds(20);
    SimTime d2 = microseconds(25);
    SimTime d3 = microseconds(15);
    SimTime d4 = microseconds(5);
    SimTime d5 = microseconds(30);
    SimTime d6 = microseconds(25);
    SimTime d7 = microseconds(20);
    SimTime d8 = microseconds(10);
    SimTime irq_at = microseconds(95);
};

/// Measured outcomes of one Fig. 3 simulation.
struct Fig3Result {
    SimTime b2_done;         ///< completion time of behavior/task B2
    SimTime b3_done;         ///< completion time of behavior/task B3
    SimTime pe_done;         ///< completion of the whole PE (join + B1 epilogue)
    SimTime bus_data_seen;   ///< when B3 obtained the external data (t4 vs t4')
    std::uint64_t context_switches = 0;  ///< 0 for the unscheduled model
};

/// Simulate the unscheduled model (paper Fig. 3(a) / trace Fig. 8(a)): B2 and
/// B3 run truly in parallel on the SLDL kernel; synchronization uses spec
/// channels. Execution spans are recorded into `rec` (may be null).
Fig3Result run_fig3_unscheduled(trace::TraceRecorder* rec, const Fig3Delays& d = {});

/// Simulate the architecture model (paper Fig. 3(b) / trace Fig. 8(b)): the
/// behaviors are refined into tasks on an RTOS model instance; B3 has higher
/// priority than B2. `cfg` lets callers vary policy / preemption granularity;
/// cpu name and tracer are set internally. `attach` (optional) is invoked
/// with the OS core after construction and before any task exists — the hook
/// for observers such as obs::RtosAnalytics.
Fig3Result run_fig3_architecture(trace::TraceRecorder* rec, const Fig3Delays& d = {},
                                 rtos::RtosConfig cfg = {},
                                 const std::function<void(rtos::OsCore&)>& attach = {});

}  // namespace slm::arch
