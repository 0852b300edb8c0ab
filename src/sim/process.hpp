#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/context.hpp"
#include "sim/stack_pool.hpp"
#include "sim/timed_queue.hpp"

namespace slm::sim {

class Kernel;
class Event;

/// Lifecycle states of an SLDL process (kernel-level, not RTOS-level — the RTOS
/// model layers its own task states on top of these, see slm::rtos::TaskState).
enum class ProcState {
    Created,       ///< spawned, never dispatched yet
    Ready,         ///< in the runnable queue of the current delta cycle
    Running,       ///< currently executing on the kernel
    WaitingEvent,  ///< blocked in wait(Event&)
    WaitingTime,   ///< blocked in waitfor(SimTime)
    Joining,       ///< blocked in par()/join() waiting for children
    Done,          ///< body returned normally
    Killed,        ///< terminated via Kernel::kill()
};

[[nodiscard]] const char* to_string(ProcState s);

/// Exception used internally to unwind a killed process's stack so that RAII
/// cleanup on that stack runs. Model code must not catch it (catching by
/// `...` and swallowing would break kill()); the kernel trampoline catches it.
struct ProcessKilled {};

/// A stackful coroutine scheduled by the SLDL kernel. Equivalent to a SpecC
/// behavior instance / SystemC thread process. Created via Kernel::spawn() or
/// Kernel::par(); owned by the kernel for the lifetime of the simulation. Its
/// stack comes from the kernel's StackPool and returns there on completion.
class Process {
public:
    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] ProcState state() const { return state_; }
    [[nodiscard]] Process* parent() const { return parent_; }
    [[nodiscard]] bool done() const {
        return state_ == ProcState::Done || state_ == ProcState::Killed;
    }

    /// One pointer for the layer that runs its own entity on this process
    /// (the RTOS model keeps the bound Task here, so finding the calling task
    /// is a load, not a lookup). The kernel never reads it.
    [[nodiscard]] void* owner() const { return owner_; }
    void set_owner(void* owner) { owner_ = owner; }

private:
    friend class Kernel;
    friend class Event;  // Event::~Event detaches blocked waiters

    Process(Kernel& kernel, std::string name, std::function<void()> body, Process* parent,
            int id);

    Kernel& kernel_;
    std::string name_;
    std::function<void()> body_;
    Process* parent_ = nullptr;
    int id_ = 0;

    ProcState state_ = ProcState::Created;
    Context ctx_;
    StackBlock stack_;

    Event* waiting_on_ = nullptr;           ///< valid while state_ == WaitingEvent
    TimedEntry wake_;                       ///< waitfor()/wait_timeout() wakeup
    Process* next_runnable_ = nullptr;      ///< link in the kernel's runnable FIFO
    int join_pending_ = 0;                  ///< outstanding children while Joining
    bool kill_pending_ = false;
    bool in_runnable_ = false;              ///< guards against double-enqueue
    bool timed_out_ = false;                ///< set when wait_timeout() expires
    std::unique_ptr<Event> done_evt_;       ///< lazily created by Kernel::join()
    void* owner_ = nullptr;                 ///< see owner()
};

}  // namespace slm::sim
