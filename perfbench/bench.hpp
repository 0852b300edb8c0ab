#pragma once

// Shared plumbing of the benchmark driver: options, host clocks, the result
// report, digests, host-time spans, and the counting OS observer that gives
// the per-layer op counts.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "rtos/core.hpp"
#include "sim/kernel.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_out;  ///< traced run: where the span log is written
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v);

/// FNV-1a over simulated outputs: two commits that simulate identically
/// print the same digest.
class Digest {
public:
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFFu;
            h_ *= 1099511628211ull;
        }
    }
    void mix(std::string_view s) {
        for (const char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 1099511628211ull;
        }
        mix(static_cast<std::uint64_t>(s.size()));
    }
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/// Everything one run prints. Checks are the operations: `attempted` counts
/// every output check, `failed` every one that did not hold (a message goes
/// to stderr).
class Report {
public:
    void metric(const std::string& name, double value, const char* unit);
    void check(bool ok, const std::string& what);
    void digest(const std::string& name, const std::string& hex) {
        digests_[name] = hex;
    }
    /// Human-readable alias line: which workload quantity a metric slot holds.
    void note(const std::string& line) { notes_.push_back(line); }

    /// Notes, digests, metrics and the ops line, then the one-line JSON
    /// result, all to stdout.
    void print() const;

private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
    std::map<std::string, std::string> digests_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Host-time spans kept in memory: name, start, end, parent. Open one with
/// Span; self time is duration minus the time covered by child spans.
class SpanLog {
public:
    struct Record {
        std::string name;
        double start_s = 0;
        double end_s = 0;
        int parent = -1;
    };

    [[nodiscard]] int open(std::string name);
    void close(int id);

    /// Summed self time per span name, in seconds.
    [[nodiscard]] std::map<std::string, double> self_seconds() const;
    [[nodiscard]] bool write_json(const std::string& path) const;

private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Record> records_;
    std::vector<int> stack_;
};

/// RAII span; a null log records nothing (the untraced run).
class Span {
public:
    Span(SpanLog* log, std::string name)
        : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
    ~Span() {
        if (log_ != nullptr) {
            log_->close(id_);
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanLog* log_;
    int id_;
};

/// Per-layer samples of the traced run: every pass adds one value per
/// metric; exact metrics must repeat bit for bit across passes.
class LayerSamples {
public:
    void exact(const std::string& name, double v, const char* unit);
    void timed(const std::string& name, double v, const char* unit);
    /// Exact metrics report their single value (a mismatch between passes is
    /// a failed check); timed ones their median.
    void report(Report& rep) const;

private:
    struct Series {
        std::vector<double> values;
        std::string unit;
        bool exact = false;
    };
    std::map<std::string, Series> series_;
    std::vector<std::string> order_;
    void add(const std::string& name, double v, const char* unit, bool exact);
};

/// Counts of one elaborated model, read through public API only: the
/// observer counts its own callbacks and snapshots OsCore::stats() and the
/// kernel's stats when each core is torn down.
struct OpCounts {
    std::uint64_t observer_calls = 0;
    std::uint64_t channel_ops = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t activations = 0;
    std::uint64_t delta_cycles = 0;
    std::uint64_t time_advances = 0;
    std::uint64_t events_notified = 0;
    std::uint64_t processes_created = 0;
    std::uint64_t stacks_recycled = 0;

    OpCounts& operator+=(const OpCounts& o);
};

/// Attach with watch() from an on_os hook. Several cores may share one
/// kernel. At the first core teardown (every run is over by then) the
/// observer adds its own callback counts, every watched core's stats, and
/// each distinct kernel's stats into `sink`, once.
class CountingObserver final : public slm::rtos::OsObserver {
public:
    explicit CountingObserver(OpCounts& sink) : sink_(&sink) {}

    void watch(slm::rtos::OsCore& os);

    void on_task_state(const slm::rtos::Task&, slm::rtos::TaskState,
                       slm::rtos::TaskState, slm::SimTime) override {
        ++calls_;
    }
    void on_preempt(const slm::rtos::Task&, const slm::rtos::Task&,
                    slm::SimTime) override {
        ++calls_;
    }
    void on_completion(const slm::rtos::Task&, slm::SimTime, bool,
                       slm::SimTime) override {
        ++calls_;
    }
    void on_isr(const std::string&, slm::SimTime) override { ++calls_; }
    void on_resource_block(const slm::rtos::Task&, const slm::rtos::Task&,
                           const std::string&, slm::SimTime) override {
        ++calls_;
    }
    void on_resource_acquire(const slm::rtos::Task&, const std::string&, slm::SimTime,
                             slm::SimTime) override {
        ++calls_;
    }
    void on_resource_release(const slm::rtos::Task&, const std::string&,
                             slm::SimTime) override {
        ++calls_;
    }
    void on_channel_op(const std::string&, const char*, slm::SimTime) override {
        ++calls_;
        ++channel_ops_;
    }
    void on_deadline_miss(const slm::rtos::Task&, slm::SimTime, slm::SimTime) override {
        ++calls_;
    }
    void on_core_teardown() override;

private:
    OpCounts* sink_;
    std::vector<slm::rtos::OsCore*> cores_;
    std::uint64_t calls_ = 0;
    std::uint64_t channel_ops_ = 0;
    bool flushed_ = false;
};

/// Host times of the same work items over rounds, kept as each item's
/// fastest round. Host interference only ever adds time and comes in bursts
/// shorter than a round, so the sum of per-item minima is the steadiest
/// estimate of the work's cost; a per-round total or median absorbs bursts.
class ItemTimes {
public:
    explicit ItemTimes(std::size_t items)
        : best_(items, std::numeric_limits<double>::infinity()) {}
    void add(std::size_t item, double seconds) {
        best_[item] = std::min(best_[item], seconds);
    }
    /// Sum over items [first, last) of each item's fastest time.
    [[nodiscard]] double best_sum(std::size_t first, std::size_t last) const {
        return std::accumulate(best_.begin() + static_cast<std::ptrdiff_t>(first),
                               best_.begin() + static_cast<std::ptrdiff_t>(last), 0.0);
    }
    [[nodiscard]] double best_sum() const { return best_sum(0, best_.size()); }

private:
    std::vector<double> best_;
};

/// Integer ratio as a double, 0 when the base is 0.
[[nodiscard]] inline double per(double num, double den) {
    return den == 0 ? 0.0 : num / den;
}

// ---- workloads (one file each) ----

/// Untraced: fill the end-to-end metrics of one workload.
void run_vocoder(const Options& opt, Report& rep);
void run_soak(const Options& opt, Report& rep);
void run_search(const Options& opt, Report& rep);

/// Traced: one fixed-size per-layer pass (same work every pass, so counts
/// repeat exactly).
void trace_vocoder(const Options& opt, LayerSamples& out, SpanLog& spans, Report& rep);
void trace_soak(const Options& opt, LayerSamples& out, SpanLog& spans, Report& rep);
void trace_search(const Options& opt, LayerSamples& out, SpanLog& spans, Report& rep);

/// Host time of one call of `body`. Set-up is timed this way once before the
/// rounds and again after every round (its state is rebuilt identically), so
/// `setup_s`, the fastest of these, is sampled across the whole run like the
/// rates are.
template <typename F>
double time_once(F&& body) {
    const auto t0 = Clock::now();
    body();
    return seconds_since(t0);
}

}  // namespace perfbench
