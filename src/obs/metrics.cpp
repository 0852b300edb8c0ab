#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "rtos/core.hpp"
#include "sim/assert.hpp"
#include "sim/kernel.hpp"
#include "trace/trace.hpp"

namespace slm::obs {

namespace {

bool valid_name(const std::string& s) {
    if (s.empty()) {
        return false;
    }
    const auto ok = [](char c, bool first) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
               c == ':' || (!first && c >= '0' && c <= '9');
    };
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (!ok(s[i], i == 0)) {
            return false;
        }
    }
    return true;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string prom_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

/// Render a double the way Prometheus exposition expects: integers without
/// exponent noise, everything else shortest-roundtrip-ish via %.17g trimmed.
std::string prom_number(double v) {
    if (std::isinf(v)) {
        return v > 0 ? "+Inf" : "-Inf";
    }
    if (std::isnan(v)) {
        return "NaN";
    }
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string label_block(const Labels& labels) {
    if (labels.empty()) {
        return {};
    }
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += k + "=\"" + prom_escape(v) + "\"";
    }
    out += '}';
    return out;
}

/// Label block with one extra label appended (for histogram `le`).
std::string label_block_plus(const Labels& labels, const std::string& key,
                             const std::string& value) {
    Labels ext = labels;
    ext.emplace_back(key, value);
    return label_block(ext);
}

}  // namespace

// ---- Histogram ----

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    SLM_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
               "Histogram bounds must be strictly increasing");
    counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    ++count_;
    sum_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
}

double Histogram::quantile(double q) const {
    SLM_ASSERT(q >= 0.0 && q <= 1.0, "quantile() wants q in [0,1]");
    if (count_ == 0) {
        return 0.0;
    }
    const double rank = q * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        const std::uint64_t prev = cum;
        cum += counts_[b];
        if (static_cast<double>(cum) >= rank && counts_[b] > 0) {
            if (b == counts_.size() - 1) {
                return max_;  // +Inf bucket: best available point estimate
            }
            const double lo = b == 0 ? std::min(min_, bounds_[0]) : bounds_[b - 1];
            const double hi = bounds_[b];
            const double frac =
                (rank - static_cast<double>(prev)) / static_cast<double>(counts_[b]);
            // Interpolation can overshoot the actually-observed range when a
            // bucket is much wider than its samples; the observed min/max are
            // exact, so clamp to them.
            return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min_, max_);
        }
    }
    return max_;
}

std::vector<double> Histogram::default_time_bounds_ns() {
    std::vector<double> b;
    for (double decade = 1e3; decade <= 1e7; decade *= 10.0) {
        b.push_back(decade);
        b.push_back(2.0 * decade);
        b.push_back(5.0 * decade);
    }
    b.push_back(1e8);  // 100 ms
    return b;
}

// ---- Registry ----

Registry::Family& Registry::family(const std::string& name, const std::string& help,
                                   Kind kind) {
    SLM_ASSERT(valid_name(name), "metric name must match [a-zA-Z_:][a-zA-Z0-9_:]*");
    const auto it = std::lower_bound(
        families_.begin(), families_.end(), name,
        [](const Family& f, const std::string& n) { return f.name < n; });
    if (it != families_.end() && it->name == name) {
        SLM_ASSERT(it->kind == kind, "metric re-registered with a different kind");
        return *it;
    }
    Family f;
    f.name = name;
    f.help = help;
    f.kind = kind;
    return *families_.insert(it, std::move(f));
}

Registry::Series& Registry::series(Family& f, Labels labels) {
    std::sort(labels.begin(), labels.end());
    for (const auto& [k, v] : labels) {
        SLM_ASSERT(valid_name(k), "label name must match [a-zA-Z_:][a-zA-Z0-9_:]*");
    }
    for (Series& s : f.series) {
        if (s.labels == labels) {
            return s;
        }
    }
    Series s;
    s.labels = std::move(labels);
    f.series.push_back(std::move(s));
    return f.series.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels) {
    Series& s = series(family(name, help, Kind::Counter), std::move(labels));
    if (!s.counter) {
        s.counter = std::make_unique<Counter>();
    }
    return *s.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help, Labels labels) {
    Series& s = series(family(name, help, Kind::Gauge), std::move(labels));
    if (!s.gauge) {
        s.gauge = std::make_unique<Gauge>();
    }
    return *s.gauge;
}

Gauge& Registry::gauge_fn(const std::string& name, const std::string& help,
                          std::function<double()> source, Labels labels) {
    Gauge& g = gauge(name, help, std::move(labels));
    g.set_source(std::move(source));
    return g;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<double> bounds, Labels labels) {
    Series& s = series(family(name, help, Kind::Histogram), std::move(labels));
    if (!s.histogram) {
        s.histogram = std::make_unique<Histogram>(std::move(bounds));
    } else {
        SLM_ASSERT(s.histogram->bounds() == bounds,
                   "histogram series re-registered with different bounds");
    }
    return *s.histogram;
}

const Registry::Series* Registry::find(const std::string& name, const Labels& labels,
                                       Kind kind) const {
    const auto it = std::lower_bound(
        families_.begin(), families_.end(), name,
        [](const Family& f, const std::string& n) { return f.name < n; });
    if (it == families_.end() || it->name != name || it->kind != kind) {
        return nullptr;
    }
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    for (const Series& s : it->series) {
        if (s.labels == sorted) {
            return &s;
        }
    }
    return nullptr;
}

const Counter* Registry::find_counter(const std::string& name, const Labels& labels) const {
    const Series* s = find(name, labels, Kind::Counter);
    return s != nullptr ? s->counter.get() : nullptr;
}

const Gauge* Registry::find_gauge(const std::string& name, const Labels& labels) const {
    const Series* s = find(name, labels, Kind::Gauge);
    return s != nullptr ? s->gauge.get() : nullptr;
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          const Labels& labels) const {
    const Series* s = find(name, labels, Kind::Histogram);
    return s != nullptr ? s->histogram.get() : nullptr;
}

void Registry::write_prometheus(std::ostream& os) const {
    for (const Family& f : families_) {
        const char* type = f.kind == Kind::Counter    ? "counter"
                           : f.kind == Kind::Gauge    ? "gauge"
                                                      : "histogram";
        os << "# HELP " << f.name << ' ' << f.help << '\n';
        os << "# TYPE " << f.name << ' ' << type << '\n';
        for (const Series& s : f.series) {
            switch (f.kind) {
                case Kind::Counter:
                    os << f.name << label_block(s.labels) << ' ' << s.counter->value()
                       << '\n';
                    break;
                case Kind::Gauge:
                    os << f.name << label_block(s.labels) << ' '
                       << prom_number(s.gauge->value()) << '\n';
                    break;
                case Kind::Histogram: {
                    const Histogram& h = *s.histogram;
                    std::uint64_t cum = 0;
                    for (std::size_t b = 0; b < h.bounds().size(); ++b) {
                        cum += h.bucket_counts()[b];
                        os << f.name << "_bucket"
                           << label_block_plus(s.labels, "le",
                                               prom_number(h.bounds()[b]))
                           << ' ' << cum << '\n';
                    }
                    os << f.name << "_bucket"
                       << label_block_plus(s.labels, "le", "+Inf") << ' ' << h.count()
                       << '\n';
                    os << f.name << "_sum" << label_block(s.labels) << ' '
                       << prom_number(h.sum()) << '\n';
                    os << f.name << "_count" << label_block(s.labels) << ' '
                       << h.count() << '\n';
                    break;
                }
            }
        }
    }
}

void Registry::write_json(std::ostream& os) const {
    const auto esc = [](const std::string& s) { return trace::json_escape(s); };
    os << "{\n  \"metrics\": [";
    bool first_family = true;
    for (const Family& f : families_) {
        const char* kind = f.kind == Kind::Counter    ? "counter"
                           : f.kind == Kind::Gauge    ? "gauge"
                                                      : "histogram";
        os << (first_family ? "\n" : ",\n");
        first_family = false;
        os << "    {\"name\": \"" << esc(f.name) << "\", \"kind\": \"" << kind
           << "\", \"help\": \"" << esc(f.help) << "\", \"series\": [";
        bool first_series = true;
        for (const Series& s : f.series) {
            os << (first_series ? "\n" : ",\n");
            first_series = false;
            os << "      {\"labels\": {";
            bool first_label = true;
            for (const auto& [k, v] : s.labels) {
                os << (first_label ? "" : ", ");
                first_label = false;
                os << '"' << esc(k) << "\": \"" << esc(v) << '"';
            }
            os << "}, ";
            switch (f.kind) {
                case Kind::Counter:
                    os << "\"value\": " << s.counter->value();
                    break;
                case Kind::Gauge:
                    os << "\"value\": " << prom_number(s.gauge->value());
                    break;
                case Kind::Histogram: {
                    const Histogram& h = *s.histogram;
                    os << "\"count\": " << h.count() << ", \"sum\": "
                       << prom_number(h.sum()) << ", \"buckets\": [";
                    for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
                        os << (b == 0 ? "" : ", ");
                        os << "{\"le\": ";
                        if (b < h.bounds().size()) {
                            os << prom_number(h.bounds()[b]);
                        } else {
                            os << "\"+Inf\"";
                        }
                        os << ", \"n\": " << h.bucket_counts()[b] << '}';
                    }
                    os << ']';
                    break;
                }
            }
            os << '}';
        }
        os << "\n    ]}";
    }
    os << "\n  ]\n}\n";
}

// ---- stats-struct re-registration ----

void register_kernel_stats(Registry& reg, const sim::Kernel& kernel, Labels base) {
    const sim::Kernel* k = &kernel;
    const auto g = [&](const char* name, const char* help, auto getter) {
        reg.gauge_fn(name, help, [k, getter] { return getter(*k); }, base);
    };
    g("slm_kernel_processes_created", "SLDL processes created",
      [](const sim::Kernel& kn) { return double(kn.stats().processes_created); });
    g("slm_kernel_process_activations", "process dispatches (sim-level switches)",
      [](const sim::Kernel& kn) { return double(kn.stats().process_activations); });
    g("slm_kernel_delta_cycles", "delta cycles executed",
      [](const sim::Kernel& kn) { return double(kn.stats().delta_cycles); });
    g("slm_kernel_time_advances", "time-advance steps (waitfor(0)'s same-instant step included)",
      [](const sim::Kernel& kn) { return double(kn.stats().time_advances); });
    g("slm_kernel_events_notified", "event notifications delivered",
      [](const sim::Kernel& kn) { return double(kn.stats().events_notified); });
    g("slm_kernel_stack_bytes_in_use", "live coroutine stack bytes",
      [](const sim::Kernel& kn) { return double(kn.stats().stack_bytes_in_use); });
    g("slm_kernel_stacks_recycled", "spawns served from the stack pool free list",
      [](const sim::Kernel& kn) { return double(kn.stats().stacks_recycled); });
    g("slm_kernel_now_ns", "current simulated time (ns)",
      [](const sim::Kernel& kn) { return double(kn.now().ns()); });
    g("slm_kernel_guard_pages_disabled",
      "1 if the stack pool fell back to unguarded stacks",
      [](const sim::Kernel& kn) { return double(kn.stats().guard_pages_disabled); });
}

void register_task_stats(Registry& reg, const rtos::Task& task, Labels base) {
    Labels labels = std::move(base);
    labels.emplace_back("task", task.name());
    const rtos::Task* t = &task;
    const auto g = [&](const char* name, const char* help, auto getter) {
        reg.gauge_fn(name, help, [t, getter] { return getter(*t); }, labels);
    };
    g("slm_task_activations", "task releases/activations",
      [](const rtos::Task& tk) { return double(tk.stats().activations); });
    g("slm_task_preemptions", "times the task lost the CPU involuntarily",
      [](const rtos::Task& tk) { return double(tk.stats().preemptions); });
    g("slm_task_deadline_misses", "completions after the absolute deadline",
      [](const rtos::Task& tk) { return double(tk.stats().deadline_misses); });
    g("slm_task_completions", "completed cycles/activations",
      [](const rtos::Task& tk) { return double(tk.stats().completions); });
    g("slm_task_exec_time_ns", "accumulated modeled execution time (ns)",
      [](const rtos::Task& tk) { return double(tk.stats().exec_time.ns()); });
    g("slm_task_max_response_ns", "max release-to-completion latency (ns)",
      [](const rtos::Task& tk) { return double(tk.stats().max_response.ns()); });
    g("slm_task_total_response_ns", "sum of response times (ns)",
      [](const rtos::Task& tk) { return double(tk.stats().total_response.ns()); });
    g("slm_task_restarts", "task_restart() recoveries of this task",
      [](const rtos::Task& tk) { return double(tk.stats().restarts); });
    g("slm_task_jobs_skipped", "releases dropped by MissPolicy::SkipJob",
      [](const rtos::Task& tk) { return double(tk.stats().jobs_skipped); });
}

void register_os_stats(Registry& reg, const rtos::OsCore& os, Labels base) {
    Labels labels = std::move(base);
    labels.emplace_back("cpu", os.config().cpu_name);
    const rtos::OsCore* o = &os;
    const auto g = [&](const char* name, const char* help, auto getter) {
        reg.gauge_fn(name, help, [o, getter] { return getter(*o); }, labels);
    };
    g("slm_os_context_switches", "dispatches where the task changed",
      [](const rtos::OsCore& c) { return double(c.stats().context_switches); });
    g("slm_os_dispatches", "task dispatches",
      [](const rtos::OsCore& c) { return double(c.stats().dispatches); });
    g("slm_os_preemptions", "involuntary CPU losses",
      [](const rtos::OsCore& c) { return double(c.stats().preemptions); });
    g("slm_os_isr_entries", "ISR entries",
      [](const rtos::OsCore& c) { return double(c.stats().isr_entries); });
    g("slm_os_deadline_misses", "deadline misses across all tasks",
      [](const rtos::OsCore& c) { return double(c.stats().deadline_misses); });
    g("slm_os_syscalls", "RTOS interface invocations",
      [](const rtos::OsCore& c) { return double(c.stats().syscalls); });
    g("slm_os_lost_notifies", "event_notify calls that found no waiter",
      [](const rtos::OsCore& c) { return double(c.stats().lost_notifies); });
    g("slm_os_busy_time_ns", "sum of all tasks' modeled execution time (ns)",
      [](const rtos::OsCore& c) { return double(c.busy_time().ns()); });
    g("slm_os_crashes", "injected task crashes",
      [](const rtos::OsCore& c) { return double(c.stats().crashes); });
    g("slm_os_restarts", "task_restart() recoveries",
      [](const rtos::OsCore& c) { return double(c.stats().restarts); });
    g("slm_os_watchdog_fires", "watchdog expirations",
      [](const rtos::OsCore& c) { return double(c.stats().watchdog_fires); });
    g("slm_os_jobs_skipped", "releases dropped by MissPolicy::SkipJob",
      [](const rtos::OsCore& c) { return double(c.stats().jobs_skipped); });
    for (const rtos::Task* t : os.tasks()) {
        register_task_stats(reg, *t, labels);
    }
}

}  // namespace slm::obs
