#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rtos/core.hpp"
#include "sim/time.hpp"
#include "trace/intern.hpp"

namespace slm::obs {

class Registry;

/// Token-level causal span tracing (docs/span-tracing.md).
///
/// A *span* is a named time interval (or instant) with an optional parent
/// span and an optional Token{id, born} correlation. Narrow hooks emit spans
/// from three layers: the RTOS core (task-state timeline, ISR entries,
/// channel operations — via SpanTracer, an OsObserver), the architecture
/// layer (bus transfers — via BusLink's post hook), and the sys layer (job /
/// recv / send windows plus latency records — via TaskCtx). Together they
/// form a span DAG over which extract_critical_paths() computes, for every
/// recorded end-to-end latency sample, an *exact* per-category breakdown:
/// the sample's window [t_record - sample, t_record) is partitioned into
/// disjoint, contiguous integer-nanosecond segments following the token's
/// custody chain, so the per-category sums equal the observed latency by
/// construction — no estimation, no sampling.
///
/// Everything is deaf by default: a null SpanSink costs one pointer test per
/// hook site (benched ~0 in BENCH_spans.json), and a sweep records into
/// per-candidate SpanRecorders so dumps stay byte-identical at any --jobs
/// (ci/check_spans.sh).

/// What a span describes. The first five kinds are the task-state timeline
/// mirrored from rtos::TaskState by SpanTracer; the rest are emitted by the
/// sys/arch layers.
enum class SpanKind : std::uint32_t {
    TaskRun,      ///< task holds the CPU (TaskState::Running)
    TaskReady,    ///< task runnable in the ready queue
    TaskPreempt,  ///< ready because it was just preempted (on_preempt)
    TaskBlock,    ///< blocked in event_wait (TaskState::WaitingEvent)
    TaskIdle,     ///< sleeping / between periodic releases / suspended
    Job,          ///< one behavior invocation (sys::TaskCtx)
    Recv,         ///< blocking receive window on a channel
    Send,         ///< send window on a channel (incl. bus occupancy)
    BusXfer,      ///< one bus transfer (arbitration + data phases)
    Isr,          ///< instant: ISR body entered
    ChannelOp,    ///< instant: OS channel operation (queue/semaphore)
    Latency,      ///< instant: end-to-end latency sample (value = ns)
};
inline constexpr std::size_t kSpanKindCount = 12;

[[nodiscard]] const char* to_string(SpanKind k);

inline constexpr std::uint64_t kNoTokenId = ~std::uint64_t{0};

/// Token correlation carried by a span: the sys::Token's id + birth time.
struct TokenRef {
    std::uint64_t id = kNoTokenId;
    std::uint64_t born_ns = 0;

    [[nodiscard]] bool valid() const { return id != kNoTokenId; }
};

/// Span emission interface. Hooks hold a SpanSink* and test it for null
/// before every call — the disabled configuration executes no span code at
/// all. Span ids are nonzero and unique per sink; 0 is "no parent".
class SpanSink {
public:
    virtual ~SpanSink() = default;

    /// Open a span at `t`; returns its id. `pe` is the hosting processing
    /// element ("" for environment/bus spans), `name` the primary subject
    /// (task, channel, irq), `aux` a secondary subject (the task performing a
    /// Recv/Send, the bus of a BusXfer).
    virtual std::uint64_t begin_span(SimTime t, SpanKind kind, std::string_view pe,
                                     std::string_view name, std::string_view aux = {},
                                     TokenRef token = {}, std::uint64_t parent = 0) = 0;
    /// Close span `id` at `t` (>= its begin time).
    virtual void end_span(std::uint64_t id, SimTime t) = 0;
    /// Attach/overwrite the token correlation of an open span (a Recv learns
    /// its token only when the receive returns).
    virtual void set_token(std::uint64_t id, TokenRef token) = 0;
    /// Attach a kind-specific payload (Latency: the sample in ns).
    virtual void set_value(std::uint64_t id, std::uint64_t value) = 0;
    /// Re-label a span after the fact (a TaskReady span becomes TaskPreempt
    /// when on_preempt arrives right after the state transition).
    virtual void reclassify(std::uint64_t id, SpanKind kind) = 0;

    /// Zero-duration span.
    std::uint64_t instant(SimTime t, SpanKind kind, std::string_view pe,
                          std::string_view name, std::string_view aux = {},
                          TokenRef token = {}, std::uint64_t parent = 0,
                          std::uint64_t value = 0) {
        const std::uint64_t id = begin_span(t, kind, pe, name, aux, token, parent);
        if (value != 0) {
            set_value(id, value);
        }
        end_span(id, t);
        return id;
    }

    /// Emit an already-finished span in one call (used by after-the-fact
    /// hooks like BusLink's post hook).
    std::uint64_t complete(SimTime begin, SimTime end, SpanKind kind,
                           std::string_view pe, std::string_view name,
                           std::string_view aux = {}, TokenRef token = {},
                           std::uint64_t parent = 0) {
        const std::uint64_t id = begin_span(begin, kind, pe, name, aux, token, parent);
        end_span(id, end);
        return id;
    }
};

/// The recording SpanSink: fixed-width 64-byte records over the interned
/// string table shared with trace::TraceRecorder (trace/intern.hpp). Span id =
/// record index + 1, so lookup is O(1) and ids are dense. Emission order is
/// simulation order, hence deterministic; write_span_json() dumps are
/// byte-identical across repeat runs and across sweep --jobs counts.
class SpanRecorder final : public SpanSink {
public:
    /// End timestamp of a still-open span.
    static constexpr std::uint64_t kOpenEnd = ~std::uint64_t{0};

    struct SpanRec {
        std::uint64_t t_begin_ns;
        std::uint64_t t_end_ns;  ///< kOpenEnd while open; == begin for instants
        std::uint64_t token_id;  ///< kNoTokenId = uncorrelated
        std::uint64_t token_born_ns;
        std::uint64_t parent;  ///< span id; 0 = root
        std::uint64_t value;   ///< kind-specific payload
        std::uint32_t kind;    ///< SpanKind
        std::uint32_t pe;      ///< interned
        std::uint32_t name;    ///< interned
        std::uint32_t aux;     ///< interned
    };
    static_assert(sizeof(SpanRec) == 64);

    std::uint64_t begin_span(SimTime t, SpanKind kind, std::string_view pe,
                             std::string_view name, std::string_view aux = {},
                             TokenRef token = {}, std::uint64_t parent = 0) override;
    void end_span(std::uint64_t id, SimTime t) override;
    void set_token(std::uint64_t id, TokenRef token) override;
    void set_value(std::uint64_t id, std::uint64_t value) override;
    void reclassify(std::uint64_t id, SpanKind kind) override;

    [[nodiscard]] const SpanRec& rec(std::size_t i) const { return records_[i]; }
    [[nodiscard]] std::size_t size() const { return records_.size(); }
    [[nodiscard]] const std::string& str(std::uint32_t id) const {
        return strings_.str(id);
    }
    [[nodiscard]] std::size_t string_count() const { return strings_.count(); }
    /// Spans begun but not yet ended.
    [[nodiscard]] std::size_t open_count() const { return open_; }

    void clear();

private:
    [[nodiscard]] SpanRec& rec_of(std::uint64_t id);

    trace::RecordLog<SpanRec> records_;
    trace::StringTable strings_;
    std::size_t open_ = 0;
};

// ---- critical-path extraction ----

/// Latency categories of a critical-path segment. The category partition of
/// a window is exact (disjoint integer-ns segments covering the window); the
/// labels classify each segment by who held the token and what that holder's
/// RTOS state was (docs/span-tracing.md spells out the rules).
enum class PathCategory : std::uint32_t {
    Compute,  ///< holder task Running outside its send window
    Bus,      ///< holder task Running inside a send window (occupancy + arbitration)
    Ready,    ///< holder or receiver runnable but not scheduled
    Preempt,  ///< ready specifically because it was preempted
    Block,    ///< holder task blocked in event_wait
    Deliver,  ///< token in flight: ISR/semaphore delivery, receiver blocked
    DstBusy,  ///< token in flight while the receiver runs other work
    Env,      ///< held by the environment (a stimulus process, no RTOS states)
    Other,    ///< holder state unknown (gaps before first activation, idle)
};
inline constexpr std::size_t kPathCategoryCount = 9;

[[nodiscard]] const char* to_string(PathCategory c);

/// One segment of a critical path: [begin_ns, end_ns) attributed to
/// `category`, with `who` the holder (task name, channel name, or stimulus).
struct PathSegment {
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    PathCategory category = PathCategory::Other;
    std::string who;
};

/// The exact latency breakdown of one recorded sample: contiguous segments
/// covering [anchor_ns, recorded_ns) — so sum(segments) == total_ns ==
/// the observed sample, in integer nanoseconds, by construction.
struct CriticalPath {
    bool valid = false;
    std::uint64_t token_id = kNoTokenId;
    std::uint64_t born_ns = 0;
    std::uint64_t anchor_ns = 0;    ///< recorded_ns - sample
    std::uint64_t recorded_ns = 0;  ///< when the sample was reported
    std::uint64_t total_ns = 0;     ///< the sample itself
    std::size_t hops = 0;           ///< custody changes (send/recv boundaries)
    std::string sink;               ///< task that reported the sample
    std::vector<PathSegment> segments;
    std::array<std::uint64_t, kPathCategoryCount> by_category{};

    [[nodiscard]] std::uint64_t category_sum() const;
    /// True when the segment partition reproduces the sample exactly — the
    /// invariant bench_spans and check_spans gate on.
    [[nodiscard]] bool exact() const { return valid && category_sum() == total_ns; }
    /// The dominant category (largest share; ties resolve to the smaller
    /// enum value, so the order above is the tie-break order).
    [[nodiscard]] PathCategory bottleneck() const;
};

/// One CriticalPath per Latency record, in recording order.
[[nodiscard]] std::vector<CriticalPath> extract_critical_paths(const SpanRecorder& rec);

/// The path of the worst (largest-sample) latency record; invalid when the
/// recorder holds no Latency records.
[[nodiscard]] CriticalPath worst_critical_path(const SpanRecorder& rec);

// ---- exporters ----

/// Canonical span dump (schema "slm-span-dump-v1"): a header line followed by
/// one compact JSON object per span in emission order, integer fields only.
/// Byte-identical across runs and --jobs counts for deterministic models —
/// the ci/check_spans.sh contract.
void write_span_json(std::ostream& os, const SpanRecorder& rec);

/// Chrome trace-event / Perfetto JSON: one process per PE (plus one per bus),
/// two rows per task (state timeline + job/recv/send windows), flow arrows
/// following each token's cross-channel hops, instants for ISRs and latency
/// records. Open spans are clipped at the last recorded timestamp.
void write_perfetto_json(std::ostream& os, const SpanRecorder& rec);

/// Snapshot the recorder into `slm_span_*` gauge families (record/string/
/// open/latency-record counts plus the worst critical path's per-category
/// breakdown). Values are copied at call time; the recorder need not outlive
/// the registry.
void register_span_stats(Registry& reg, const SpanRecorder& rec);

// ---- RTOS hook ----

/// OsObserver that mirrors one core's scheduling activity into a SpanSink:
/// per-task state spans (TaskRun/TaskReady/TaskPreempt/TaskBlock/TaskIdle),
/// ISR-entry instants, and channel-operation instants. Attaches in the
/// constructor, detaches in the destructor (or at core teardown, whichever
/// comes first). Purely observational — scheduling is unchanged, and traces
/// recorded with and without a SpanTracer are byte-identical.
class SpanTracer final : public rtos::OsObserver {
public:
    SpanTracer(rtos::OsCore& core, SpanSink& sink);
    ~SpanTracer() override;

    SpanTracer(const SpanTracer&) = delete;
    SpanTracer& operator=(const SpanTracer&) = delete;

    void on_task_state(const rtos::Task& t, rtos::TaskState from, rtos::TaskState to,
                       SimTime now) override;
    void on_preempt(const rtos::Task& preempted, const rtos::Task& by,
                    SimTime now) override;
    void on_isr(const std::string& irq_name, SimTime now) override;
    void on_channel_op(const std::string& channel, const char* op, SimTime now) override;
    void on_core_teardown() override;

private:
    rtos::OsCore* core_;
    SpanSink& sink_;
    std::unordered_map<const rtos::Task*, std::uint64_t> open_;
};

}  // namespace slm::obs
