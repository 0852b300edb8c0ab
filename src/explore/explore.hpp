#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rtos/core.hpp"
#include "rtos/os_channels.hpp"
#include "sim/kernel.hpp"
#include "sim/schedule_point.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace slm::explore {

/// Schedule-space exploration (stateless model checking) for the RTOS model.
///
/// The simulator is deterministic: one build of a model yields exactly one
/// schedule. Real concurrent systems are not — every tie the kernel breaks
/// FIFO (simultaneous wakeups, equal-priority tasks, IRQ arrival order) is a
/// point where hardware could go the other way. The explorer re-runs the
/// whole simulation once per interleaving, driving those ties through the
/// sim::ScheduleController hook, and checks safety properties on every path.
/// A path is identified by its decision trace (a Schedule), which replays it
/// exactly. See docs/schedule-exploration.md.

/// A decision trace: choices[k] is the candidate index taken at the k-th
/// SchedulePoint of a run. All-zero choices reproduce the default
/// deterministic schedule. Serializes to a compact string — total length,
/// then only the non-default entries — for logging and replay from a CLI:
/// "12|3:1,7:2" = 12 choice points, choice 1 at point 3 and 2 at point 7.
struct Schedule {
    std::vector<std::uint32_t> choices;

    /// Number of non-default decisions (the path's distance from the
    /// deterministic schedule; bounded by ExploreConfig::preemption_bound).
    [[nodiscard]] std::size_t divergences() const;

    [[nodiscard]] std::string to_string() const;
    /// Inverse of to_string(). nullopt on malformed input; when `err` is
    /// non-null it receives a description of what is wrong with the input
    /// (missing '|', non-numeric field, index past the declared length, ...).
    [[nodiscard]] static std::optional<Schedule> parse(const std::string& s,
                                                       std::string* err = nullptr);

    friend bool operator==(const Schedule&, const Schedule&) = default;
};

/// A safety-property violation found on one explored path. `schedule` is the
/// complete decision trace of the failing run — feed it to
/// Explorer::replay() for a deterministic reproduction with a full trace.
struct Violation {
    enum class Kind {
        Deadlock,          ///< no timed activity left, processes still blocked
        LostSignal,        ///< event_notify with no waiter (RtosStats::lost_notifies)
        DeadlineMiss,      ///< a task completed after its absolute deadline
        AssertionFailure,  ///< SLM_ASSERT fired (converted by the assert handler)
        PropertyFailure,   ///< a Run::expect() predicate returned false
    };

    Kind kind = Kind::Deadlock;
    std::string detail;
    Schedule schedule;
    SimTime time{};
};

[[nodiscard]] const char* to_string(Violation::Kind k);

/// Exploration statistics (ISSUE acceptance: paths explored, states pruned,
/// max depth).
struct ExploreStats {
    std::uint64_t paths = 0;          ///< complete simulation runs executed
    std::uint64_t choice_points = 0;  ///< SchedulePoints hit, summed over runs
    std::uint64_t pruned = 0;         ///< alternative branches cut by the bound
    std::uint64_t max_depth = 0;      ///< longest decision trace seen
    std::uint64_t truncated = 0;      ///< runs that hit max_choices_per_run
};

/// Exploration parameters.
struct ExploreConfig {
    /// Max non-default decisions per path (the preemption bound of bounded
    /// model checking). Exploration cost grows roughly as
    /// (choice points x branching)^bound; 1-2 finds most concurrency bugs.
    int preemption_bound = 2;
    /// Hard cap on simulation runs for explore(); exploration stops
    /// unexhausted when it is reached.
    std::uint64_t max_paths = 10'000;
    /// Per-run cap on consulted choice points; a run that exceeds it keeps
    /// the default schedule from there on and is counted in stats.truncated.
    std::size_t max_choices_per_run = 1'000'000;
    /// Simulated-time horizon per run. SimTime::max() (default) runs to
    /// quiescence (Kernel::run()); finite horizons use run_until() — pick one
    /// analysis::hyperperiod() for periodic task sets.
    SimTime horizon = SimTime::max();
    bool check_deadlock = true;
    /// Opt-in: flag RtosStats::lost_notifies > 0. Only meaningful for
    /// pure-event protocols; stateful channels (semaphores) trip it benignly.
    bool check_lost_signals = false;
    /// Opt-in: flag any Task with stats().deadline_misses > 0.
    bool check_deadline_misses = false;
    /// Seed for random_walks(); walk i uses a stream derived from seed + i.
    std::uint64_t seed = 1;
    /// Record a trace::Marker per decision into the run's trace, so a failing
    /// schedule's Gantt chart shows where the explorer steered.
    bool record_choices = true;
    /// Stop after collecting this many violations.
    std::size_t max_violations = 16;
    /// Kernel construction parameters for each per-path kernel.
    sim::KernelConfig kernel{};
};

/// One simulation run under exploration: a fresh Kernel plus the models the
/// user's build function creates for it. The explorer constructs a Run per
/// path and calls the build function; everything made through make() dies
/// with the Run, so paths are fully independent (stateless model checking).
class Run {
public:
    explicit Run(const sim::KernelConfig& kc) : kernel_(kc) {}
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;
    // make() promises reverse construction order; a vector destroys forward,
    // which would tear down a core before the channels registered on it.
    ~Run() {
        while (!owned_.empty()) owned_.pop_back();
    }

    [[nodiscard]] sim::Kernel& kernel() { return kernel_; }

    /// The run's trace recorder, built per path and allocation-free until
    /// something records into it. Pass as RtosConfig::tracer to get task
    /// states and context switches into failure reports; decision markers
    /// land here when ExploreConfig::record_choices is set.
    [[nodiscard]] trace::TraceRecorder& trace() { return trace_; }

    /// Construct an object owned by this Run (destroyed before the kernel,
    /// in reverse construction order). OS cores (any personality: RtosModel
    /// is-an OsCore, ItronOs exposes core()) and OsMutexes made here are
    /// automatically watch()ed.
    template <typename T, typename... Args>
    T& make(Args&&... args) {
        auto obj = std::make_shared<T>(std::forward<Args>(args)...);
        T& ref = *obj;
        owned_.push_back(std::move(obj));
        if constexpr (std::is_base_of_v<rtos::OsCore, T>) {
            watch(ref);
        } else if constexpr (std::is_same_v<T, rtos::OsMutex>) {
            watch(ref);
        } else if constexpr (requires(T& p) {
                                 { p.core() } -> std::convertible_to<rtos::OsCore&>;
                             }) {
            watch(ref.core());  // personality wrapper owning/viewing a core
        }
        return ref;
    }

    /// Register an OS core for the lost-signal and deadline-miss checks
    /// (needed only for models built outside make()).
    void watch(rtos::OsCore& os) { models_.push_back(&os); }
    /// Cores registered so far (via watch() or make()); wrappers that attach
    /// shared machinery to every core of a run (fault::make_fault_explorer)
    /// read this after the user's build function ran.
    [[nodiscard]] const std::vector<rtos::OsCore*>& watched_cores() const {
        return models_;
    }
    /// Register a mutex for the deadlock checker's wait-for graph, so a
    /// deadlock report names the cycle instead of just the blocked tasks.
    void watch(rtos::OsMutex& m) { mutexes_.push_back(&m); }

    /// Register a custom safety property, evaluated after the run; a false
    /// result becomes a PropertyFailure violation named `name`.
    void expect(std::string name, std::function<bool()> pred) {
        expects_.emplace_back(std::move(name), std::move(pred));
    }

private:
    friend class Explorer;

    sim::Kernel kernel_;  // declared first: models in owned_ die before it
    trace::TraceRecorder trace_;
    std::vector<std::shared_ptr<void>> owned_;
    std::vector<rtos::OsCore*> models_;
    std::vector<rtos::OsMutex*> mutexes_;
    std::vector<std::pair<std::string, std::function<bool()>>> expects_;
};

/// Outcome of one simulated path (also the return type of replay()).
struct PathResult {
    Schedule schedule;                 ///< complete decision trace of the run
    std::vector<Violation> violations; ///< empty = path is safe
    trace::TraceRecorder trace;        ///< the run's trace, moved out
    SimTime end_time{};
    bool more_timed = false;  ///< run_until() horizon hit with work pending
    bool truncated = false;   ///< hit max_choices_per_run
    /// True when a supplied plan did not fit the model (a choice index was
    /// out of range at some point and degraded to the default). The replayed
    /// path is then NOT the planned one. See Explorer::replay_trace.
    bool diverged = false;
};

/// Aggregate outcome of explore()/random_walks().
struct ExploreResult {
    ExploreStats stats;
    std::vector<Violation> violations;
    /// First failing path with its full trace, for immediate Gantt dumps.
    std::optional<PathResult> first_failure;
    /// True when bounded DFS ran out of schedules to try: every interleaving
    /// within the preemption bound was visited (full coverage if
    /// stats.pruned == 0 and no run was truncated).
    bool exhausted = false;
};

/// Canonical JSON serialization of an ExploreResult: fixed key order, no
/// whitespace, violations in stored order, first_failure inlined with its
/// full trace CSV. This is THE byte-comparable artifact of exploration — the
/// parallel engine's determinism contract (docs/parallel-exploration.md) is
/// "same bytes out of write_result_json as the serial engine", and
/// ci/check_parallel.sh diffs exactly this output. Schema:
/// slm-explore-result-v1.
void write_result_json(std::ostream& os, const ExploreResult& res);

/// The exploration driver. `build` populates a fresh Run per path — it must
/// be deterministic (same calls in the same order each time), because replay
/// identity depends on the k-th choice point meaning the same decision in
/// every run. When the same BuildFn is handed to the parallel engine
/// (src/parallel/), it must additionally be safe to call concurrently from
/// multiple threads: each call receives its own Run and must confine all
/// mutable state to it (no captured mutable globals, no shared counters).
/// Everything a Run::make() build touches satisfies this by construction.
///
///     explore::Explorer ex{[](explore::Run& run) {
///         auto& os = run.make<rtos::RtosModel>(run.kernel(),
///                        rtos::RtosConfig{.tracer = &run.trace()});
///         ... create tasks/mutexes, os.start() ...
///     }};
///     auto result = ex.explore();
///     if (!result.violations.empty())
///         replayed = ex.replay(result.violations.front().schedule);
class Explorer {
public:
    using BuildFn = std::function<void(Run&)>;

    explicit Explorer(BuildFn build, ExploreConfig cfg = {})
        : build_(std::move(build)), cfg_(cfg) {}

    /// Bounded depth-first enumeration of decision traces, lexicographic
    /// order, starting from the all-default schedule.
    [[nodiscard]] ExploreResult explore();

    /// `n` independent random schedules (uniform choice at each point within
    /// the preemption bound). Cheap smoke-testing for spaces too big to
    /// enumerate; deterministic per ExploreConfig::seed.
    [[nodiscard]] ExploreResult random_walks(std::uint64_t n);

    /// Re-run one schedule exactly. Identical builds yield byte-for-byte
    /// identical traces (tests/test_explore.cpp locks this in).
    [[nodiscard]] PathResult replay(const Schedule& s);

    /// Outcome of replay_trace(): either a PathResult or a diagnostic. Never
    /// both empty — a malformed trace yields `error` only; a trace that
    /// parsed but did not fit the model yields the (diverged) result *and*
    /// an error naming the first bad decision point.
    struct ReplayOutcome {
        std::optional<PathResult> result;
        std::string error;  ///< empty = clean replay
        [[nodiscard]] bool ok() const { return result.has_value() && error.empty(); }
    };

    /// Replay from a serialized "len|i:c,..." decision trace (CLI/log round
    /// trip). Malformed or truncated input is reported as a structured error
    /// instead of asserting; an out-of-range choice is detected during the
    /// run and reported with its point index.
    [[nodiscard]] ReplayOutcome replay_trace(const std::string& trace);

    [[nodiscard]] const ExploreConfig& config() const { return cfg_; }

    /// One nondeterministic decision consulted during a run: the candidate
    /// index taken and how many candidates were on offer. The decision list of
    /// a completed path is what DFS successor generation consumes — both the
    /// serial next_plan() backtracking here and the prefix-sharding child
    /// generation of the parallel engine.
    struct Decision {
        std::uint32_t chosen;
        std::uint32_t count;
    };

    /// Outcome of expand(): one completed path plus its full decision list.
    /// Per-path stat deltas are derivable (paths = 1, choice_points =
    /// decisions.size(), truncated = path.truncated), so a sharded driver can
    /// reconstruct exactly the ExploreStats the serial loop would have
    /// accumulated.
    struct Expansion {
        PathResult path;
        std::vector<Decision> decisions;
    };

    /// Run exactly one path: force `plan` as a prefix, then complete with
    /// default choices. This is the primitive the parallel engine shards
    /// across workers — each worker owns a private Explorer and expands the
    /// plan prefixes it claims. An empty plan runs the all-default schedule.
    [[nodiscard]] Expansion expand(const std::vector<std::uint32_t>& plan);

private:
    class Controller;

    PathResult run_path(const std::vector<std::uint32_t>* plan, bool random,
                        std::uint64_t rng_seed, std::vector<Decision>* decisions_out,
                        ExploreStats* stats,
                        std::string* divergence_detail_out = nullptr);
    void check_path(Run& run, PathResult& pr,
                    const std::optional<std::string>& abort_reason) const;
    static bool next_plan(const std::vector<Decision>& d, int bound,
                          std::vector<std::uint32_t>& plan, std::uint64_t& pruned);

    BuildFn build_;
    ExploreConfig cfg_;
};

}  // namespace slm::explore
