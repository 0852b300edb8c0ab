#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace slm::sim {

/// One nondeterministic scheduling decision exposed to a ScheduleController.
///
/// The kernel and the RTOS model are deterministic by construction: every tie
/// (simultaneous wakeups, equal-priority tasks, IRQ arrival order within one
/// delta) is broken FIFO. Those tie-breaks are exactly the points where a real
/// concurrent system could behave differently. A SchedulePoint reifies one
/// such point: `candidates[0]` is always the default FIFO choice, so a
/// controller that returns 0 everywhere reproduces the uncontrolled run
/// bit-for-bit.
struct SchedulePoint {
    enum class Kind {
        /// Kernel level: which runnable process executes next within the
        /// current delta cycle (covers simultaneous timeout wakeups, multiple
        /// event waiters released together, and ISR processes racing tasks).
        DeltaOrder,
        /// RTOS level: which of several policy-equivalent ready tasks (same
        /// effective priority / deadline / period key) gets the CPU.
        TaskDispatch,
    };

    Kind kind = Kind::DeltaOrder;
    SimTime now{};
    /// Candidate names, index-aligned with the controller's return value.
    /// Always size() >= 2 — trivial decisions are never surfaced. The views
    /// point into process and task names and are valid only inside choose():
    /// the kernel and the RTOS model reuse one point, so a consult allocates
    /// nothing. A controller that keeps a name copies it.
    std::vector<std::string_view> candidates;
};

[[nodiscard]] inline const char* to_string(SchedulePoint::Kind k) {
    return k == SchedulePoint::Kind::DeltaOrder ? "delta_order" : "task_dispatch";
}

/// Override hook for schedule-space exploration (see slm::explore). Installed
/// with Kernel::set_schedule_controller(); consulted synchronously at every
/// SchedulePoint. Implementations must be deterministic functions of the
/// decision sequence if replayability is desired, and must return an index
/// `< pt.candidates.size()`.
class ScheduleController {
public:
    virtual ~ScheduleController() = default;
    [[nodiscard]] virtual std::size_t choose(const SchedulePoint& pt) = 0;
};

}  // namespace slm::sim
