#include "sim/kernel.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>

#include "sim/assert.hpp"

namespace slm::sim {

namespace {
thread_local Kernel* g_current_kernel = nullptr;
}  // namespace

Kernel& this_kernel() {
    SLM_ASSERT(g_current_kernel != nullptr,
               "this_kernel() called outside of Kernel::run()");
    return *g_current_kernel;
}

Process* this_process() {
    return g_current_kernel != nullptr ? g_current_kernel->current() : nullptr;
}

Kernel::Kernel(KernelConfig cfg) : cfg_(cfg), backend_(resolve_backend(cfg.backend)) {}

Kernel::~Kernel() {
    // Stacks of processes still alive at teardown (simulation aborted early)
    // go back to the destroying thread's stack cache. Their suspended frames
    // are abandoned without unwinding, as before.
    for (auto& p : processes_) {
        if (p->stack_) {
            StackPool::release(p->stack_);
            p->stack_ = StackBlock{};
        }
    }
}

Process* Kernel::spawn(std::string name, std::function<void()> body) {
    SLM_ASSERT(body != nullptr, "spawn() requires a process body");
    auto proc = std::unique_ptr<Process>(
        new Process(*this, std::move(name), std::move(body), current_, next_id_++));
    Process* p = proc.get();
    processes_.push_back(std::move(proc));
    p->stack_ = acquire_stack();
    p->ctx_.init(p->stack_.base, p->stack_.size, &Kernel::trampoline, p, backend_);
    ++stats_.processes_created;
    make_ready(p);
    return p;
}

StackBlock Kernel::acquire_stack() {
    // Degenerate stack_size requests (0, or below the documented floor) clamp
    // to KernelConfig::kMinStackSize; the pool then rounds to its size class.
    const std::size_t size = std::max(cfg_.stack_size, KernelConfig::kMinStackSize);
    const bool guarded = cfg_.guard_pages && stats_.guard_pages_disabled == 0;
    StackPool::Acquired got = StackPool::acquire(size, guarded);
    if (!got.block) {
        // Graceful degradation: losing overflow detection is better than
        // failing the spawn. Warn once, then stop trying for this kernel.
        stats_.guard_pages_disabled = 1;
        std::fprintf(stderr,
                     "slm: guard-page stack allocation failed; falling back to "
                     "unguarded stacks for this kernel\n");
        got = StackPool::acquire(size, /*guarded=*/false);
    }
    stats_.stacks_recycled += got.recycled ? 1 : 0;
    stats_.stack_bytes_in_use += got.block.size;
    return got.block;
}

void Kernel::recycle_stack(Process* p) {
    if (p->stack_) {
        stats_.stack_bytes_in_use -= p->stack_.size;
        StackPool::release(p->stack_);
        p->stack_ = StackBlock{};
    }
    p->body_ = nullptr;
}

void Kernel::RunQueue::push_back(Process* p) {
    p->next_runnable_ = nullptr;
    (head == nullptr ? head : tail->next_runnable_) = p;
    tail = p;
}

Process* Kernel::RunQueue::pop_front() {
    Process* p = head;
    head = p->next_runnable_;
    if (head == nullptr) {
        tail = nullptr;
    }
    return p;
}

void Kernel::RunQueue::move_to_front(Process* prev, Process* p) {
    if (prev == nullptr) {
        return;
    }
    prev->next_runnable_ = p->next_runnable_;
    if (tail == p) {
        tail = prev;
    }
    p->next_runnable_ = head;
    head = p;
}

void Kernel::make_ready(Process* p) {
    if (p->done()) {
        return;
    }
    set_state(p, ProcState::Ready);
    if (!p->in_runnable_) {
        runnable_.push_back(p);
        p->in_runnable_ = true;
    }
}

void Kernel::set_state(Process* p, ProcState s) {
    if (p->state_ == s) {
        return;
    }
    const ProcState from = p->state_;
    p->state_ = s;
    for (KernelObserver* obs : observers_) {
        obs->on_process_state(*p, from, s);
    }
}

void Kernel::consult_controller() {
    // Surface a DeltaOrder choice point: which of the currently runnable
    // processes executes next. candidates[0] is the FIFO front, so a
    // controller answering 0 leaves the deterministic order untouched. The
    // point and its candidate buffer are reused, so once the buffer has grown
    // a consult allocates nothing.
    SchedulePoint& pt = choice_pt_;
    pt.candidates.clear();
    for (const Process* p = runnable_.head; p != nullptr; p = p->next_runnable_) {
        if (!p->done()) {
            pt.candidates.emplace_back(p->name());
        }
    }
    if (pt.candidates.size() < 2) {
        return;
    }
    pt.now = now_;
    const std::size_t choice = controller_->choose(pt);
    SLM_ASSERT(choice < pt.candidates.size(),
               "ScheduleController returned an out-of-range choice");
    if (choice == 0) {
        return;
    }
    std::size_t seen = 0;
    for (Process *prev = nullptr, *p = runnable_.head; p != nullptr;
         prev = p, p = p->next_runnable_) {
        if (!p->done() && seen++ == choice) {
            runnable_.move_to_front(prev, p);
            return;
        }
    }
}

void Kernel::end_delta() {
    if (!notified_events_.empty()) {
        deliver_notifications();
    }
    ++stats_.delta_cycles;
}

void Kernel::deliver_notifications() {
    // Deliver notifications at the delta boundary (SpecC semantics): every
    // process waiting on a notified event at this point wakes, including
    // processes whose wait() ran later in the delta than the notify().
    for (Event* e : notified_events_) {
        e->notified_ = false;
        for (Process* w : e->waiters_) {
            w->waiting_on_ = nullptr;
            disarm_wakeup(w);  // the event beat a wait_timeout() deadline
            make_ready(w);
        }
        e->waiters_.clear();
    }
    notified_events_.clear();
}

Process* Kernel::dispatch_step(Process* self) {
    // The dispatch loop, one step: drain the runnable queue, close the delta,
    // advance time, until a process is due. run_until() drives it from the
    // scheduler context and a blocking process from its own stack (see
    // block_current_and_reschedule); nullptr tells either caller to stop.
    //
    // A blocking process's armed wakeup stays in hand: it enters the timed
    // queue only if something must run first (a runnable process, one that
    // a notification wakes at delta end, an entry at an earlier or the same
    // instant, the run_until bound). Otherwise time advances straight to it,
    // through the same delta close, advance_to and make_ready as a queued
    // wakeup.
    TimedEntry* held = self != nullptr && self->wake_.pos == TimedEntry::kHeld
                           ? &self->wake_
                           : nullptr;
    for (;;) {
        if (!delta_closed_) {
            if (held != nullptr && !runnable_.empty()) {
                timed_.push(*held);
                held = nullptr;
            }
            while (!runnable_.empty()) {
                if (controller_ != nullptr && runnable_.head != runnable_.tail) {
                    consult_controller();  // a choice needs two candidates
                }
                Process* p = runnable_.pop_front();
                p->in_runnable_ = false;
                if (!p->done()) {
                    return p;
                }
            }
            end_delta();
            if (!runnable_.empty()) {
                // A notification at delta end made processes runnable. If it
                // woke `self` out of a wait_timeout(), its wakeup is gone.
                if (held != nullptr && held->pos == TimedEntry::kHeld) {
                    timed_.push(*held);
                }
                held = nullptr;
                continue;
            }
            delta_closed_ = true;
        }
        if (held != nullptr) {
            const bool first = timed_.empty() || held->t < timed_.top().t;
            if (first && held->t <= limit_) {
                advance_to(held->t);
                delta_closed_ = false;
                held = nullptr;
                if (self->wake_.pos == TimedEntry::kHeld) {  // not killed meanwhile
                    fire_wakeup(self);
                }
                continue;
            }
            timed_.push(*held);
            held = nullptr;
        }
        if (timed_.empty()) {
            return nullptr;
        }
        const TimedEntry& next = timed_.top();
        if (next.t > limit_) {
            return nullptr;
        }
        if (self != nullptr && next.proc == nullptr) {
            // A post_at timer is due first. Timer callbacks run on the thread
            // stack with no current process: leave this instant to the
            // scheduler context.
            return nullptr;
        }
        advance_to(next.t);
        delta_closed_ = false;
    }
}

void Kernel::activate(Process* p) {
    set_state(p, ProcState::Running);
    current_ = p;
    ++stats_.process_activations;
}

void Kernel::switch_context(Context& from, Context& to, bool finishing) {
    ++stats_.host_switches;
    Context::switch_to(from, to, backend_, finishing);
}

void Kernel::advance_to(SimTime t) {
    now_ = t;
    ++stats_.time_advances;
    for (KernelObserver* obs : observers_) {
        obs->on_time_advance(now_);
    }
    if (!timed_.empty() && timed_.top().t == now_) {
        fire_due_entries();
    }
}

void Kernel::fire_due_entries() {
    // One-shot timers fire before process wakeups at the same instant: they
    // model OS/interrupt machinery reacting ahead of application code. The
    // queue orders them first, so a callback posting for the same instant
    // still runs within it. A timer an observer posts for this instant once
    // wakeups have begun is set aside (held) and fires at the next advance.
    bool woke = false;
    std::vector<TimedEntry*> late;
    while (!timed_.empty() && timed_.top().t == now_) {
        TimedEntry& e = timed_.top();
        timed_.erase(e);
        if (e.proc != nullptr) {
            fire_wakeup(e.proc);
            woke = true;
        } else if (woke) {
            e.pos = TimedEntry::kHeld;
            late.push_back(&e);
        } else {
            const std::function<void()> fn = release_timer(*timers_[e.timer_slot]);
            fn();
        }
    }
    for (TimedEntry* e : late) {
        if (e->pos == TimedEntry::kHeld) {  // not cancelled meanwhile
            timed_.push(*e);
        }
    }
}

void Kernel::arm_wakeup(Process* p, SimTime t) {
    p->wake_.t = t;
    p->wake_.order = TimedEntry::kWakeupBit | seq_counter_++;
    p->wake_.pos = TimedEntry::kHeld;
}

void Kernel::disarm_wakeup(Process* p) {
    if (p->wake_.queued()) {
        timed_.erase(p->wake_);
    }
    p->wake_.pos = TimedEntry::kIdle;
}

void Kernel::fire_wakeup(Process* p) {
    p->wake_.pos = TimedEntry::kIdle;
    if (p->state_ == ProcState::WaitingEvent) {
        // wait_timeout() expired: leave the event's waiter list and resume
        // with the timeout flag set.
        if (p->waiting_on_ != nullptr) {
            std::erase(p->waiting_on_->waiters_, p);
            p->waiting_on_ = nullptr;
        }
        p->timed_out_ = true;
    }
    make_ready(p);
}

const Kernel::Timer* Kernel::live_timer(TimerId id) const {
    const std::uint64_t slot = (id & 0xffffffffu) - 1;
    if (slot >= timers_.size()) {
        return nullptr;
    }
    const Timer& tm = *timers_[slot];
    return tm.generation == (id >> 32) && tm.entry.armed() ? &tm : nullptr;
}

std::function<void()> Kernel::release_timer(Timer& tm) {
    std::function<void()> fn = std::move(tm.fn);
    tm.fn = nullptr;
    ++tm.generation;
    free_timers_.push_back(tm.entry.timer_slot);
    return fn;
}

Kernel::TimerId Kernel::post_at(SimTime t, std::function<void()> fn) {
    SLM_ASSERT(fn != nullptr, "post_at() requires a callback");
    SLM_ASSERT(t >= now_, "post_at() cannot schedule into the past");
    SLM_ASSERT(t != SimTime::max(), "post_at(SimTime::max()) would never fire");
    if (free_timers_.empty()) {
        free_timers_.push_back(static_cast<std::uint32_t>(timers_.size()));
        timers_.push_back(std::make_unique<Timer>());
        timers_.back()->entry.timer_slot = free_timers_.back();
    }
    Timer& tm = *timers_[free_timers_.back()];
    free_timers_.pop_back();
    tm.fn = std::move(fn);
    tm.entry.t = t;
    tm.entry.order = seq_counter_++;
    timed_.push(tm.entry);
    return (TimerId{tm.generation} << 32) | (tm.entry.timer_slot + 1);
}

void Kernel::cancel_timer(TimerId id) {
    if (const Timer* live = live_timer(id)) {
        Timer& tm = *timers_[live->entry.timer_slot];
        if (tm.entry.queued()) {
            timed_.erase(tm.entry);
        }
        tm.entry.pos = TimedEntry::kIdle;
        (void)release_timer(tm);  // the callback and its captures die here
    }
}

void Kernel::run() {
    (void)run_until(SimTime::max());
}

bool Kernel::run_until(SimTime t_end) {
    SLM_ASSERT(!running_, "Kernel::run() is not reentrant");
    running_ = true;
    Kernel* const prev = g_current_kernel;
    g_current_kernel = this;
    // Restore the thread-local and the running flag even if an exception (a
    // SimulationAbort raised outside process context, e.g. from an assert
    // handler in the scheduler path) escapes the loop below.
    struct RunGuard {
        Kernel* self;
        Kernel* prev;
        ~RunGuard() {
            g_current_kernel = prev;
            self->running_ = false;
        }
    } guard{this, prev};
    sched_ctx_.adopt_thread_stack();  // ASan fiber bookkeeping; no-op otherwise
    limit_ = t_end;
    delta_closed_ = false;

    while (Process* p = dispatch_step(nullptr)) {
        activate(p);
        switch_context(sched_ctx_, p->ctx_);
        // Processes hand the CPU to each other directly, so the one switching
        // back here need not be `p`: it is whichever is current_ (null when a
        // blocked process returned control at a timer or the run's end).
        Process* back = current_;
        current_ = nullptr;
        if (back != nullptr && back->done()) {
            recycle_stack(back);
        }
        if (abort_reason_.has_value()) {
            return activity_pending();  // a SimulationAbort unwound `back`
        }
    }

    if (t_end != SimTime::max() && now_ < t_end) {
        now_ = t_end;
    }
    return activity_pending();
}

std::vector<const Process*> Kernel::blocked_processes() const {
    std::vector<const Process*> out;
    for (const auto& p : processes_) {
        if (p->state_ == ProcState::WaitingEvent || p->state_ == ProcState::Joining) {
            out.push_back(p.get());
        }
    }
    return out;
}

void Kernel::check_killed() {
    if (current_ != nullptr && current_->kill_pending_) {
        throw ProcessKilled{};
    }
}

void Kernel::block_current_and_reschedule() {
    // The blocking process runs the dispatch loop itself, as the scheduler
    // context would (no current process while it does): it resumes inline if
    // it is next, switches straight to the next process otherwise, and
    // returns control to the scheduler context only where dispatch_step says
    // stop (a due timer, the run_until bound, no activity) or after an abort.
    Process* self = current_;
    current_ = nullptr;
    Process* next = nullptr;
    if (!abort_reason_.has_value()) {
        try {
            next = dispatch_step(self);
        } catch (...) {
            current_ = self;  // an observer or controller threw: unwind `self`
            throw;
        }
    } else if (self->wake_.pos == TimedEntry::kHeld) {
        timed_.push(self->wake_);  // still pending activity for run_until()
    }
    if (next == self) {
        activate(self);
    } else if (next == nullptr) {
        switch_context(self->ctx_, sched_ctx_);
    } else {
        activate(next);
        switch_context(self->ctx_, next->ctx_);
    }
}

void Kernel::wait(Event& e) {
    SLM_ASSERT(current_ != nullptr, "wait() requires process context");
    check_killed();
    Process* self = current_;
    set_state(self, ProcState::WaitingEvent);
    self->waiting_on_ = &e;
    e.waiters_.push_back(self);
    block_current_and_reschedule();
    check_killed();
}

bool Kernel::wait_timeout(Event& e, SimTime dt) {
    SLM_ASSERT(current_ != nullptr, "wait_timeout() requires process context");
    SLM_ASSERT(dt != SimTime::max(), "wait_timeout() needs a finite timeout");
    check_killed();
    Process* self = current_;
    self->timed_out_ = false;
    set_state(self, ProcState::WaitingEvent);
    self->waiting_on_ = &e;
    e.waiters_.push_back(self);
    arm_wakeup(self, now_ + dt);
    block_current_and_reschedule();
    check_killed();
    return !self->timed_out_;
}

void Kernel::waitfor(SimTime dt) {
    SLM_ASSERT(current_ != nullptr, "waitfor() requires process context");
    SLM_ASSERT(dt != SimTime::max(), "waitfor(SimTime::max()) would never wake");
    check_killed();
    Process* self = current_;
    set_state(self, ProcState::WaitingTime);
    arm_wakeup(self, now_ + dt);
    block_current_and_reschedule();
    check_killed();
}

void Kernel::yield() {
    SLM_ASSERT(current_ != nullptr, "yield() requires process context");
    check_killed();
    Process* self = current_;
    set_state(self, ProcState::Ready);
    runnable_.push_back(self);
    self->in_runnable_ = true;
    block_current_and_reschedule();
    check_killed();
}

void Kernel::notify(Event& e) {
    if (!e.notified_) {
        e.notified_ = true;
        notified_events_.push_back(&e);
    }
    ++stats_.events_notified;
}

void Kernel::par(std::vector<Branch> branches) {
    SLM_ASSERT(current_ != nullptr, "par() requires process context");
    check_killed();
    if (branches.empty()) {
        return;
    }
    Process* self = current_;
    self->join_pending_ = static_cast<int>(branches.size());
    for (auto& b : branches) {
        spawn(std::move(b.name), std::move(b.body));
    }
    set_state(self, ProcState::Joining);
    block_current_and_reschedule();
    check_killed();
}

void Kernel::par(std::initializer_list<std::function<void()>> bodies) {
    SLM_ASSERT(current_ != nullptr, "par() requires process context");
    std::vector<Branch> branches;
    branches.reserve(bodies.size());
    int i = 0;
    for (const auto& b : bodies) {
        branches.push_back(Branch{current_->name() + ".par" + std::to_string(i++), b});
    }
    par(std::move(branches));
}

void Kernel::join(Process& p) {
    SLM_ASSERT(current_ != nullptr, "join() requires process context");
    SLM_ASSERT(current_ != &p, "a process cannot join itself");
    while (!p.done()) {
        if (!p.done_evt_) {
            p.done_evt_ = std::make_unique<Event>(*this, p.name_ + ".done");
        }
        wait(*p.done_evt_);
    }
}

void Kernel::kill(Process& p) {
    if (p.done()) {
        return;
    }
    const bool was_pending = p.kill_pending_;
    p.kill_pending_ = true;
    if (&p == current_) {
        throw ProcessKilled{};
    }
    if (was_pending) {
        return;
    }
    switch (p.state_) {
        case ProcState::WaitingEvent:
            if (p.waiting_on_ != nullptr) {  // null if the event was destroyed
                std::erase(p.waiting_on_->waiters_, &p);
                p.waiting_on_ = nullptr;
            }
            disarm_wakeup(&p);  // a wait_timeout() deadline
            make_ready(&p);
            break;
        case ProcState::WaitingTime:
            disarm_wakeup(&p);
            make_ready(&p);
            break;
        case ProcState::Joining:
            make_ready(&p);
            break;
        case ProcState::Created:
        case ProcState::Ready:
            // Already (or about to be) runnable; it unwinds on next dispatch.
            make_ready(&p);
            break;
        case ProcState::Running:
        case ProcState::Done:
        case ProcState::Killed:
            SLM_ASSERT(false, "unexpected state in kill()");
    }
}

void Kernel::finish_current(ProcState final_state) {
    Process* p = current_;
    disarm_wakeup(p);  // unwound by an exception while its wakeup was armed
    set_state(p, final_state);
    if (p->done_evt_) {
        notify(*p->done_evt_);
    }
    if (p->parent_ != nullptr && p->parent_->state_ == ProcState::Joining) {
        if (--p->parent_->join_pending_ == 0) {
            make_ready(p->parent_);
        }
    }
    // Back to the scheduler context, which recycles the stack this runs on.
    switch_context(p->ctx_, sched_ctx_, /*finishing=*/true);
    SLM_ASSERT(false, "a finished process was resumed");
}

void Kernel::trampoline(void* raw) {
    auto* p = static_cast<Process*>(raw);
    Kernel& k = p->kernel_;
    ProcState final_state = ProcState::Done;
    if (p->kill_pending_) {
        final_state = ProcState::Killed;  // killed before it ever ran
    } else {
        try {
            p->body_();
        } catch (const ProcessKilled&) {
            final_state = ProcState::Killed;
        } catch (const SimulationAbort& a) {
            // The process asked to stop the whole simulation (typically via
            // the exploration assert handler). Record the reason; the run
            // loop stops dispatching once this process has unwound.
            k.abort_reason_ = a.reason;
            final_state = ProcState::Killed;
        } catch (const std::exception& ex) {
            std::fprintf(stderr, "slm: unhandled exception in process '%s': %s\n",
                         p->name_.c_str(), ex.what());
            std::abort();
        } catch (...) {
            std::fprintf(stderr, "slm: unhandled exception in process '%s'\n",
                         p->name_.c_str());
            std::abort();
        }
        if (p->kill_pending_) {
            final_state = ProcState::Killed;
        }
    }
    k.finish_current(final_state);
}

// ---- Process ----

const char* to_string(ProcState s) {
    switch (s) {
        case ProcState::Created: return "Created";
        case ProcState::Ready: return "Ready";
        case ProcState::Running: return "Running";
        case ProcState::WaitingEvent: return "WaitingEvent";
        case ProcState::WaitingTime: return "WaitingTime";
        case ProcState::Joining: return "Joining";
        case ProcState::Done: return "Done";
        case ProcState::Killed: return "Killed";
    }
    return "?";
}

Process::Process(Kernel& kernel, std::string name, std::function<void()> body,
                 Process* parent, int id)
    : kernel_(kernel),
      name_(std::move(name)),
      body_(std::move(body)),
      parent_(parent),
      id_(id) {
    wake_.proc = this;
}

// ---- Event ----

Event::Event(Kernel& kernel, std::string name) : kernel_(kernel), name_(std::move(name)) {}

Event::~Event() {
    // An event may be destroyed while processes still wait on it — e.g. when a
    // model is torn down after run_until() stopped the simulation early.
    // Detach the waiters: they stay blocked forever, which is the correct
    // outcome for an aborted simulation, and kill() tolerates the null link.
    for (Process* w : waiters_) {
        w->waiting_on_ = nullptr;
    }
    waiters_.clear();
    if (notified_) {
        std::erase(kernel_.notified_events_, this);
    }
}

void Event::notify() {
    kernel_.notify(*this);
}

}  // namespace slm::sim
