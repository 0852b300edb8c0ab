#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
}

// ---- Report ----

void Report::metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, {value, unit}});
}

void Report::check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED check: %s\n", what.c_str());
    }
}

void Report::print() const {
    for (const std::string& n : notes_) {
        std::printf("%s\n", n.c_str());
    }
    for (const auto& [name, hex] : digests_) {
        std::printf("digest %-24s %s\n", name.c_str(), hex.c_str());
    }
    for (const auto& [name, vu] : metrics_) {
        std::printf("metric %-36s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
    const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
    std::printf("ops attempted=%" PRIu64 " failed=%" PRIu64 " failed_ops_ratio=%.6g\n",
                attempted, failed_,
                static_cast<double>(failed_) / static_cast<double>(attempted));

    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        char num[64];
        const double v = metrics_[i].second.first;
        std::snprintf(num, sizeof(num), "%.17g", std::isfinite(v) ? v : 0.0);
        json += (i == 0 ? "\"" : ", \"") + metrics_[i].first + "\": {\"value\": " + num +
                ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ---- SpanLog ----

int SpanLog::open(std::string name) {
    Record r;
    r.name = std::move(name);
    r.start_s = seconds_since(t0_);
    r.parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back(std::move(r));
    const int id = static_cast<int>(records_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void SpanLog::close(int id) {
    records_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
    if (!stack_.empty() && stack_.back() == id) {
        stack_.pop_back();
    }
}

std::map<std::string, double> SpanLog::self_seconds() const {
    std::vector<double> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
        self[i] += records_[i].end_s - records_[i].start_s;
        if (records_[i].parent >= 0) {
            self[static_cast<std::size_t>(records_[i].parent)] -=
                records_[i].end_s - records_[i].start_s;
        }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        out[records_[i].name] += self[i];
    }
    return out;
}

bool SpanLog::write_json(const std::string& path) const {
    std::ofstream f{path};
    f << "{\"schema\":\"perfbench-spans-v1\",\"spans\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s{\"id\":%zu,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,",
                      i == 0 ? "" : ",", i, r.parent, r.start_s, r.end_s);
        f << buf << "\"name\":\"" << r.name << "\"}";
    }
    f << "],\"self_s\":{";
    bool first = true;
    for (const auto& [name, s] : self_seconds()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9f", s);
        f << (first ? "" : ",") << '"' << name << "\":" << buf;
        first = false;
    }
    f << "}}\n";
    return f.good();
}

// ---- LayerSamples ----

void LayerSamples::add(const std::string& name, double v, const char* unit, bool exact) {
    auto [it, fresh] = series_.try_emplace(name);
    if (fresh) {
        order_.push_back(name);
        it->second.unit = unit;
        it->second.exact = exact;
    }
    it->second.values.push_back(v);
}

void LayerSamples::exact(const std::string& name, double v, const char* unit) {
    add(name, v, unit, true);
}

void LayerSamples::timed(const std::string& name, double v, const char* unit) {
    add(name, v, unit, false);
}

void LayerSamples::report(Report& rep) const {
    std::string exact_names = "exact counts:";
    for (const std::string& name : order_) {
        const Series& s = series_.at(name);
        if (s.exact) {
            exact_names += " " + name;
            const bool same = std::all_of(s.values.begin(), s.values.end(),
                                          [&](double v) { return v == s.values.front(); });
            rep.check(same, "count " + name + " differs between traced passes");
            rep.metric(name, s.values.front(), s.unit.c_str());
        } else {
            rep.metric(name, median(s.values), s.unit.c_str());
        }
    }
    rep.note(exact_names);
}

// ---- op counts ----

OpCounts& OpCounts::operator+=(const OpCounts& o) {
    observer_calls += o.observer_calls;
    channel_ops += o.channel_ops;
    context_switches += o.context_switches;
    preemptions += o.preemptions;
    syscalls += o.syscalls;
    activations += o.activations;
    delta_cycles += o.delta_cycles;
    time_advances += o.time_advances;
    events_notified += o.events_notified;
    processes_created += o.processes_created;
    stacks_recycled += o.stacks_recycled;
    return *this;
}

void CountingObserver::watch(slm::rtos::OsCore& os) {
    cores_.push_back(&os);
    os.add_observer(this);
}

void CountingObserver::on_core_teardown() {
    if (flushed_) {
        return;
    }
    flushed_ = true;
    OpCounts c;
    c.observer_calls = calls_;
    c.channel_ops = channel_ops_;
    std::set<slm::sim::Kernel*> kernels;
    for (slm::rtos::OsCore* os : cores_) {
        c.context_switches += os->stats().context_switches;
        c.preemptions += os->stats().preemptions;
        c.syscalls += os->stats().syscalls;
        kernels.insert(&os->kernel());
    }
    for (slm::sim::Kernel* k : kernels) {
        const slm::sim::KernelStats& ks = k->stats();
        c.activations += ks.process_activations;
        c.delta_cycles += ks.delta_cycles;
        c.time_advances += ks.time_advances;
        c.events_notified += ks.events_notified;
        c.processes_created += ks.processes_created;
        c.stacks_recycled += ks.stacks_recycled;
    }
    *sink_ += c;
}

}  // namespace perfbench
