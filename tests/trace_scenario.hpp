#pragma once

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace slm::test {

/// A mixed-kind trace touching every record kind. Names include JSON
/// metacharacters so export tests also exercise the escaper.
inline void record_scenario(trace::TraceRecorder& s) {
    using namespace slm::time_literals;
    s.marker(0_us, "start \"run\"");
    s.task_state(1_us, "PE0", "drv", "Ready");
    s.task_state(1_us, "PE0", "drv", "Running");
    s.context_switch(1_us, "PE0", "drv", "<idle>");
    s.exec_begin(1_us, "PE0", "drv");
    s.irq(3_us, "PE0", "timer");
    s.exec_end(5_us, "PE0", "drv");
    s.channel_op(5_us, "bus\\link", "send");
    s.task_state(5_us, "PE0", "drv", "Terminated");
    s.marker(6_us, "end");
}

}  // namespace slm::test
