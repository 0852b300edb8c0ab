#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace/intern.hpp"

namespace slm::trace {

/// What a trace record describes.
enum class RecordKind : std::uint32_t {
    TaskState,      ///< actor changed scheduling state (detail = new state name)
    ContextSwitch,  ///< CPU switched tasks (actor = incoming, detail = outgoing)
    Irq,            ///< interrupt occurred (actor = irq name)
    ExecBegin,      ///< actor started a computation span
    ExecEnd,        ///< actor finished a computation span
    ChannelOp,      ///< channel activity (actor = channel, detail = op)
    Marker,         ///< free-form annotation
};

[[nodiscard]] const char* to_string(RecordKind k);

/// Escape a string for embedding in a JSON string literal (backslash, quote,
/// and control characters). Shared by the Chrome-trace exporter and the
/// metrics JSON exporter (src/obs/metrics.cpp) so every JSON we emit agrees
/// on escaping.
[[nodiscard]] std::string json_escape(std::string_view s);

/// A half-open interval [begin, end) during which `actor` was executing.
struct Interval {
    SimTime begin;
    SimTime end;
    std::string actor;

    friend bool operator==(const Interval&, const Interval&) = default;
};

/// The one trace store. Every producer records here: the OS core (any API
/// personality) through RtosConfig::tracer, SpecTraceAdapter, the arch and
/// vocoder models, the explorer's decision markers, hand-written markers.
/// From the records it derives per-actor execution intervals, Gantt charts,
/// utilization tables, and CSV/VCD/Chrome exports, and it saves and loads
/// the SLTB binary format.
///
/// Records are fixed-width (24 bytes) over an interned string table
/// (trace/intern.hpp): the same task, CPU, and state names recur endlessly in
/// scheduling traces, and a repeat name costs a verified cache probe, not an
/// allocation. An unused recorder allocates nothing. bench_trace measures
/// the record and CSV rates (BENCH_trace.json). All analysis walks the
/// records on demand.
///
/// **Ordering contract:** records must arrive in nondecreasing time order.
/// Kernel- and RTOS-emitted records satisfy it by construction (timestamps
/// are kernel.now(), which never decreases); hand-recorded markers must take
/// care. Every build checks it (SLM_ASSERT): a violation would make the
/// derived views silently wrong.
class TraceRecorder {
public:
    /// One fixed-width record; strings are ids into the string table (str()).
    /// `actor` and `detail` carry the kind-specific payload: ContextSwitch
    /// actor = incoming, detail = outgoing; ChannelOp actor = channel,
    /// detail = op, no cpu; Marker detail = text, no cpu or actor.
    struct BinRecord {
        std::uint64_t t_ns;
        RecordKind kind;
        std::uint32_t cpu;
        std::uint32_t actor;
        std::uint32_t detail;
    };
    static_assert(sizeof(BinRecord) == 24);

    // ---- recording ----
    void exec_begin(SimTime t, std::string_view cpu, std::string_view actor);
    void exec_end(SimTime t, std::string_view cpu, std::string_view actor);
    void task_state(SimTime t, std::string_view cpu, std::string_view actor,
                    std::string_view state);
    void context_switch(SimTime t, std::string_view cpu, std::string_view to,
                        std::string_view from);
    void irq(SimTime t, std::string_view cpu, std::string_view irq_name);
    void channel_op(SimTime t, std::string_view channel, std::string_view op);
    void marker(SimTime t, std::string_view text);

    void clear();

    // ---- raw access ----
    [[nodiscard]] std::size_t size() const { return records_.size(); }
    [[nodiscard]] const BinRecord& record(std::size_t i) const { return records_[i]; }
    /// The interned string for `id` (asserts on out-of-range ids).
    [[nodiscard]] const std::string& str(std::uint32_t id) const {
        return strings_.str(id);
    }
    [[nodiscard]] std::size_t string_count() const { return strings_.count(); }
    [[nodiscard]] std::size_t count(RecordKind k) const;
    [[nodiscard]] std::size_t context_switches(const std::string& cpu = {}) const;

    // ---- derived views ----

    /// Execution intervals of one actor, from ExecBegin/ExecEnd pairs and/or
    /// TaskState records entering/leaving the "Running" state. Open intervals
    /// at trace end are closed at the last record's timestamp.
    [[nodiscard]] std::vector<Interval> intervals(const std::string& actor) const;

    /// All distinct actors appearing in exec/task-state records, in order of
    /// first appearance.
    [[nodiscard]] std::vector<std::string> actors() const;

    /// Total time `actor` spent executing.
    [[nodiscard]] SimTime busy_time(const std::string& actor) const;

    /// True if any two execution intervals of different actors on `cpu`
    /// overlap — i.e. the serialization invariant of an RTOS model is violated.
    [[nodiscard]] bool has_concurrent_execution(const std::string& cpu) const;

    /// Timestamps of Irq records (optionally filtered by irq name).
    [[nodiscard]] std::vector<SimTime> irq_times(const std::string& name = {}) const;

    // ---- rendering / export ----

    /// ASCII Gantt chart: one row per actor, `width` time buckets across
    /// [t0, t1). A bucket is '#' if the actor executed during it. Interrupt
    /// times are marked on a footer row.
    [[nodiscard]] std::string render_gantt(SimTime t0, SimTime t1, int width = 72) const;

    /// Per-actor utilization summary over [t0, t1): busy time, share of the
    /// window, execution interval count, rendered as an aligned text table.
    [[nodiscard]] std::string utilization_report(SimTime t0, SimTime t1) const;

    /// CSV: t_ns,kind,cpu,actor,detail
    void write_csv(std::ostream& os) const;

    /// Value-change-dump with one wire per actor (1 = executing), viewable in
    /// GTKWave. Timescale 1 ns.
    void write_vcd(std::ostream& os) const;

    /// Chrome trace-event JSON (load in Perfetto / chrome://tracing): one
    /// lane per actor with complete ("X") events for execution intervals and
    /// instant events for IRQs. Timestamps in microseconds as the format
    /// requires. Actor and IRQ names are JSON-escaped via json_escape().
    void write_chrome_trace(std::ostream& os) const;

    // ---- SLTB binary file format (docs/observability.md) ----

    /// Write the trace: magic "SLTB", version, string table, records.
    void save(std::ostream& os) const;
    /// Load a trace previously save()d, replacing this recorder's contents.
    /// Returns false (leaving the recorder cleared) on a malformed stream.
    [[nodiscard]] bool load(std::istream& is);

private:
    void push(SimTime t, RecordKind kind, std::string_view cpu, std::string_view actor,
              std::string_view detail);
    /// Id of an interned string, or an id no record carries.
    [[nodiscard]] std::uint32_t id_of(std::string_view s) const;
    [[nodiscard]] std::vector<Interval> intervals_of(std::uint32_t actor) const;

    RecordLog<BinRecord> records_;
    StringTable strings_;
    std::uint64_t last_t_ns_ = 0;  ///< ordering-contract check
};

/// Kept, like obs::BinaryTraceSink, only for perfbench/, which is not edited
/// together with the library; new code uses TraceRecorder.
using TraceSink = TraceRecorder;

/// Automatic tracing for *specification* models: attach as a kernel observer
/// and every process's `waitfor` delay steps are recorded as execution spans
/// (the delay-as-computation convention of spec models — paper Fig. 8(a)
/// shows exactly these spans). Processes blocked on events or joins record
/// nothing.
///
///     trace::TraceRecorder rec;
///     trace::SpecTraceAdapter adapter{kernel, rec, "PE0"};
///     kernel.add_observer(&adapter);
///
/// Use an explicit name filter to keep testbench/device processes out of the
/// trace. Not intended for RTOS-based models — the OS core (rtos::OsCore,
/// under any API personality) emits richer task-state records through
/// RtosConfig::tracer instead.
class SpecTraceAdapter final : public sim::KernelObserver {
public:
    SpecTraceAdapter(sim::Kernel& kernel, TraceRecorder& rec, std::string cpu = {})
        : kernel_(kernel), rec_(rec), cpu_(std::move(cpu)) {}

    /// Record only processes whose name satisfies `pred`.
    void set_filter(std::function<bool(const std::string&)> pred) {
        filter_ = std::move(pred);
    }

    void on_process_state(const sim::Process& p, sim::ProcState from,
                          sim::ProcState to) override {
        if (filter_ && !filter_(p.name())) {
            return;
        }
        if (to == sim::ProcState::WaitingTime) {
            rec_.exec_begin(kernel_.now(), cpu_, p.name());
        } else if (from == sim::ProcState::WaitingTime) {
            rec_.exec_end(kernel_.now(), cpu_, p.name());
        }
    }

private:
    sim::Kernel& kernel_;
    TraceRecorder& rec_;
    std::string cpu_;
    std::function<bool(const std::string&)> filter_;
};

}  // namespace slm::trace
