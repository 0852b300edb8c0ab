#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "sim/assert.hpp"

namespace slm::trace {

namespace {

constexpr std::uint32_t kMagic = 0x534C5442;  // "SLTB"
constexpr std::uint32_t kVersion = 1;
constexpr auto kMaxKind = static_cast<std::uint32_t>(RecordKind::Marker);

// Sanity caps for load(): a corrupted length field must not turn into a
// multi-gigabyte allocation before the stream read fails. Real traces stay
// far below both (strings are task/cpu/irq names and short markers).
constexpr std::uint32_t kMaxStringLen = 1u << 20;  // 1 MiB per interned string
constexpr std::uint32_t kMaxStrings = 1u << 24;    // 16M distinct strings

/// No string has this id, so looking up a never-interned name matches nothing.
constexpr std::uint32_t kNoId = ~std::uint32_t{0};

void put_u32(std::ostream& os, std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) {
        b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    os.write(b, 4);
}

void put_u64(std::ostream& os, std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) {
        b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    os.write(b, 8);
}

bool get_u32(std::istream& is, std::uint32_t& v) {
    char b[4];
    if (!is.read(b, 4)) {
        return false;
    }
    v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return true;
}

bool get_u64(std::istream& is, std::uint64_t& v) {
    char b[8];
    if (!is.read(b, 8)) {
        return false;
    }
    v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return true;
}

/// Kinds whose actor is an executing task or behavior.
bool is_exec(RecordKind k) {
    return k == RecordKind::ExecBegin || k == RecordKind::ExecEnd ||
           k == RecordKind::TaskState;
}

}  // namespace

const char* to_string(RecordKind k) {
    switch (k) {
        case RecordKind::TaskState: return "task_state";
        case RecordKind::ContextSwitch: return "context_switch";
        case RecordKind::Irq: return "irq";
        case RecordKind::ExecBegin: return "exec_begin";
        case RecordKind::ExecEnd: return "exec_end";
        case RecordKind::ChannelOp: return "channel_op";
        case RecordKind::Marker: return "marker";
    }
    return "?";
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void TraceRecorder::push(SimTime t, RecordKind kind, std::string_view cpu,
                         std::string_view actor, std::string_view detail) {
    SLM_ASSERT(t.ns() >= last_t_ns_, "trace records must arrive in nondecreasing time order");
    last_t_ns_ = t.ns();
    // Detail, actor, cpu: new strings take ids in this order, which fixes
    // the string table of saved SLTB files.
    const std::uint32_t d = strings_.intern(detail);
    const std::uint32_t a = strings_.intern(actor);
    records_.append(BinRecord{t.ns(), kind, strings_.intern(cpu), a, d});
}

void TraceRecorder::exec_begin(SimTime t, std::string_view cpu, std::string_view actor) {
    push(t, RecordKind::ExecBegin, cpu, actor, {});
}

void TraceRecorder::exec_end(SimTime t, std::string_view cpu, std::string_view actor) {
    push(t, RecordKind::ExecEnd, cpu, actor, {});
}

void TraceRecorder::task_state(SimTime t, std::string_view cpu, std::string_view actor,
                               std::string_view state) {
    push(t, RecordKind::TaskState, cpu, actor, state);
}

void TraceRecorder::context_switch(SimTime t, std::string_view cpu, std::string_view to,
                                   std::string_view from) {
    push(t, RecordKind::ContextSwitch, cpu, to, from);
}

void TraceRecorder::irq(SimTime t, std::string_view cpu, std::string_view irq_name) {
    push(t, RecordKind::Irq, cpu, irq_name, {});
}

void TraceRecorder::channel_op(SimTime t, std::string_view channel, std::string_view op) {
    push(t, RecordKind::ChannelOp, {}, channel, op);
}

void TraceRecorder::marker(SimTime t, std::string_view text) {
    push(t, RecordKind::Marker, {}, {}, text);
}

void TraceRecorder::clear() {
    records_.clear();
    strings_.clear();
    last_t_ns_ = 0;
}

std::uint32_t TraceRecorder::id_of(std::string_view s) const {
    return strings_.find(s).value_or(kNoId);
}

std::size_t TraceRecorder::count(RecordKind k) const {
    std::size_t n = 0;
    records_.for_each([&](const BinRecord& r) { n += r.kind == k ? 1 : 0; });
    return n;
}

std::size_t TraceRecorder::context_switches(const std::string& cpu) const {
    const std::uint32_t c = id_of(cpu);
    std::size_t n = 0;
    records_.for_each([&](const BinRecord& r) {
        n += r.kind == RecordKind::ContextSwitch && (cpu.empty() || r.cpu == c) ? 1 : 0;
    });
    return n;
}

std::vector<Interval> TraceRecorder::intervals_of(std::uint32_t actor) const {
    const std::uint32_t running = id_of("Running");
    std::vector<Interval> out;
    bool open = false;
    std::uint64_t begin = 0;
    const auto close = [&](std::uint64_t end) {
        if (end > begin) {
            out.push_back({nanoseconds(begin), nanoseconds(end), str(actor)});
        }
    };
    records_.for_each([&](const BinRecord& r) {
        if (r.actor != actor || !is_exec(r.kind)) {
            return;
        }
        const bool runs = r.kind == RecordKind::ExecBegin ||
                          (r.kind == RecordKind::TaskState && r.detail == running);
        if (!open && runs) {
            open = true;
            begin = r.t_ns;
        } else if (open && !runs) {
            open = false;
            close(r.t_ns);
        }
    });
    if (open) {
        close(last_t_ns_);
    }
    return out;
}

std::vector<Interval> TraceRecorder::intervals(const std::string& actor) const {
    const std::uint32_t a = id_of(actor);
    return a == kNoId ? std::vector<Interval>{} : intervals_of(a);
}

std::vector<std::string> TraceRecorder::actors() const {
    std::vector<std::uint32_t> ids;
    records_.for_each([&](const BinRecord& r) {
        if (is_exec(r.kind) && std::find(ids.begin(), ids.end(), r.actor) == ids.end()) {
            ids.push_back(r.actor);
        }
    });
    std::vector<std::string> out;
    out.reserve(ids.size());
    for (const std::uint32_t id : ids) {
        out.push_back(str(id));
    }
    return out;
}

SimTime TraceRecorder::busy_time(const std::string& actor) const {
    SimTime total;
    for (const Interval& iv : intervals(actor)) {
        total += iv.end - iv.begin;
    }
    return total;
}

bool TraceRecorder::has_concurrent_execution(const std::string& cpu) const {
    // Gather the intervals of every actor that begins executing on this cpu
    // and check pairwise overlap after sorting by start time.
    const std::uint32_t c = id_of(cpu);
    std::vector<std::uint32_t> on_cpu;
    records_.for_each([&](const BinRecord& r) {
        if (r.cpu == c &&
            (r.kind == RecordKind::ExecBegin || r.kind == RecordKind::TaskState) &&
            std::find(on_cpu.begin(), on_cpu.end(), r.actor) == on_cpu.end()) {
            on_cpu.push_back(r.actor);
        }
    });
    std::vector<Interval> all;
    for (const std::uint32_t a : on_cpu) {
        const auto ivs = intervals_of(a);
        all.insert(all.end(), ivs.begin(), ivs.end());
    }
    std::sort(all.begin(), all.end(),
              [](const Interval& x, const Interval& y) { return x.begin < y.begin; });
    for (std::size_t i = 1; i < all.size(); ++i) {
        if (all[i].begin < all[i - 1].end) {
            return true;
        }
    }
    return false;
}

std::vector<SimTime> TraceRecorder::irq_times(const std::string& name) const {
    const std::uint32_t n = id_of(name);
    std::vector<SimTime> out;
    records_.for_each([&](const BinRecord& r) {
        if (r.kind == RecordKind::Irq && (name.empty() || r.actor == n)) {
            out.push_back(nanoseconds(r.t_ns));
        }
    });
    return out;
}

std::string TraceRecorder::render_gantt(SimTime t0, SimTime t1, int width) const {
    SLM_ASSERT(t1 > t0 && width > 0, "render_gantt needs a non-empty window");
    std::ostringstream os;
    const double span = static_cast<double>((t1 - t0).ns());
    const auto bucket_of = [&](SimTime t) {
        const double frac = static_cast<double>((t - t0).ns()) / span;
        return std::clamp(static_cast<int>(frac * width), 0, width - 1);
    };

    std::size_t name_w = 4;
    const auto as = actors();
    for (const auto& a : as) {
        name_w = std::max(name_w, a.size());
    }

    for (const auto& a : as) {
        std::string row(static_cast<std::size_t>(width), '.');
        for (const Interval& iv : intervals(a)) {
            if (iv.end <= t0 || iv.begin >= t1) {
                continue;
            }
            const int b0 = bucket_of(std::max(iv.begin, t0));
            const int b1 = bucket_of(std::min(iv.end, t1) - nanoseconds(1));
            for (int b = b0; b <= b1; ++b) {
                row[static_cast<std::size_t>(b)] = '#';
            }
        }
        os << a << std::string(name_w - a.size(), ' ') << " |" << row << "|\n";
    }

    const auto irqs = irq_times();
    if (!irqs.empty()) {
        std::string row(static_cast<std::size_t>(width), ' ');
        for (const SimTime t : irqs) {
            if (t >= t0 && t < t1) {
                row[static_cast<std::size_t>(bucket_of(t))] = '^';
            }
        }
        os << "irq" << std::string(name_w - 3, ' ') << "  " << row << "\n";
    }
    os << "time" << std::string(name_w - 4, ' ') << "  " << t0.to_string() << " .. "
       << t1.to_string() << "\n";
    return os.str();
}

std::string TraceRecorder::utilization_report(SimTime t0, SimTime t1) const {
    SLM_ASSERT(t1 > t0, "utilization_report needs a non-empty window");
    std::ostringstream os;
    const double window = static_cast<double>((t1 - t0).ns());
    const auto as = actors();
    std::size_t name_w = 5;
    for (const auto& a : as) {
        name_w = std::max(name_w, a.size());
    }
    os << "actor" << std::string(name_w - 5, ' ') << "  busy        util    intervals\n";
    for (const auto& a : as) {
        SimTime busy;
        std::size_t count = 0;
        for (const Interval& iv : intervals(a)) {
            const SimTime b = std::max(iv.begin, t0);
            const SimTime e = std::min(iv.end, t1);
            if (e > b) {
                busy += e - b;
                ++count;
            }
        }
        char line[96];
        std::snprintf(line, sizeof line, "%-*s  %-10s  %5.1f%%  %9zu\n",
                      static_cast<int>(name_w), a.c_str(), busy.to_string().c_str(),
                      100.0 * static_cast<double>(busy.ns()) / window, count);
        os << line;
    }
    return os.str();
}

void TraceRecorder::write_csv(std::ostream& os) const {
    os << "t_ns,kind,cpu,actor,detail\n";
    records_.for_each([&](const BinRecord& r) {
        os << r.t_ns << ',' << to_string(r.kind) << ',' << str(r.cpu) << ',' << str(r.actor)
           << ',' << str(r.detail) << '\n';
    });
}

void TraceRecorder::write_vcd(std::ostream& os) const {
    const auto as = actors();
    os << "$timescale 1ns $end\n$scope module trace $end\n";
    std::map<std::string, char> ids;
    char next_id = '!';
    for (const auto& a : as) {
        ids[a] = next_id;
        os << "$var wire 1 " << next_id << ' ' << a << " $end\n";
        ++next_id;
    }
    os << "$upscope $end\n$enddefinitions $end\n";

    // Emit value changes from the interval view, merged in time order.
    struct Change {
        SimTime t;
        char id;
        bool value;
    };
    std::vector<Change> changes;
    for (const auto& a : as) {
        for (const Interval& iv : intervals(a)) {
            changes.push_back({iv.begin, ids[a], true});
            changes.push_back({iv.end, ids[a], false});
        }
    }
    std::sort(changes.begin(), changes.end(),
              [](const Change& x, const Change& y) { return x.t < y.t; });

    os << "#0\n";
    for (const auto& a : as) {
        os << '0' << ids[a] << '\n';
    }
    SimTime last;
    bool first = true;
    for (const Change& c : changes) {
        if (first || c.t != last) {
            os << '#' << c.t.ns() << '\n';
            last = c.t;
            first = false;
        }
        os << (c.value ? '1' : '0') << c.id << '\n';
    }
}

void TraceRecorder::write_chrome_trace(std::ostream& os) const {
    os << "[";
    bool first = true;
    const auto emit = [&](const std::string& json) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "\n" << json;
    };
    // Fixed-point microsecond rendering; names are json_escape()d so actors
    // containing '"' or '\' still produce valid JSON.
    const auto us = [](SimTime t) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(t.ns()) / 1000.0);
        return std::string(buf);
    };

    int tid = 1;
    for (const std::string& a : actors()) {
        const std::string name = json_escape(a);
        emit(R"({"name":"thread_name","ph":"M","pid":1,"tid":)" + std::to_string(tid) +
             R"(,"args":{"name":")" + name + "\"}}");
        for (const Interval& iv : intervals(a)) {
            emit(R"({"name":")" + name + R"(","ph":"X","pid":1,"tid":)" +
                 std::to_string(tid) + R"(,"ts":)" + us(iv.begin) + R"(,"dur":)" +
                 us(iv.end - iv.begin) + "}");
        }
        ++tid;
    }
    records_.for_each([&](const BinRecord& r) {
        if (r.kind == RecordKind::Irq) {
            emit(R"({"name":"irq:)" + json_escape(str(r.actor)) +
                 R"(","ph":"i","pid":1,"tid":0,"ts":)" + us(nanoseconds(r.t_ns)) +
                 R"(,"s":"g"})");
        }
    });
    os << "\n]\n";
}

void TraceRecorder::save(std::ostream& os) const {
    put_u32(os, kMagic);
    put_u32(os, kVersion);
    put_u32(os, static_cast<std::uint32_t>(strings_.count()));
    for (std::uint32_t i = 0; i < strings_.count(); ++i) {
        const std::string& s = strings_.str(i);
        put_u32(os, static_cast<std::uint32_t>(s.size()));
        os.write(s.data(), static_cast<std::streamsize>(s.size()));
    }
    put_u64(os, records_.size());
    records_.for_each([&](const BinRecord& r) {
        put_u64(os, r.t_ns);
        put_u32(os, static_cast<std::uint32_t>(r.kind));
        put_u32(os, r.cpu);
        put_u32(os, r.actor);
        put_u32(os, r.detail);
    });
}

bool TraceRecorder::load(std::istream& is) {
    clear();
    const auto reject = [this] {
        clear();
        return false;
    };
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t nstrings = 0;
    if (!get_u32(is, magic) || magic != kMagic || !get_u32(is, version) ||
        version != kVersion || !get_u32(is, nstrings) || nstrings == 0 ||
        nstrings > kMaxStrings) {
        return reject();
    }
    // The stream's table is re-interned, so ids stay distinct per string even
    // for a stream listing one string twice; `ids` maps stream ids to ours.
    // A well-formed table starts with "" (id 0).
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < nstrings; ++i) {
        std::uint32_t len = 0;
        if (!get_u32(is, len) || len > kMaxStringLen || (i == 0 && len != 0)) {
            return reject();
        }
        std::string s(len, '\0');
        if (len > 0 && !is.read(s.data(), static_cast<std::streamsize>(len))) {
            return reject();
        }
        ids.push_back(strings_.intern(s));
    }
    std::uint64_t nrecords = 0;
    if (!get_u64(is, nrecords)) {
        return reject();
    }
    for (std::uint64_t i = 0; i < nrecords; ++i) {
        std::uint64_t t_ns = 0;
        std::uint32_t kind = 0;
        std::uint32_t cpu = 0;
        std::uint32_t actor = 0;
        std::uint32_t detail = 0;
        if (!get_u64(is, t_ns) || !get_u32(is, kind) || !get_u32(is, cpu) ||
            !get_u32(is, actor) || !get_u32(is, detail) || kind > kMaxKind ||
            cpu >= nstrings || actor >= nstrings || detail >= nstrings || t_ns < last_t_ns_) {
            return reject();
        }
        last_t_ns_ = t_ns;
        records_.append(
            BinRecord{t_ns, static_cast<RecordKind>(kind), ids[cpu], ids[actor], ids[detail]});
    }
    return true;
}

}  // namespace slm::trace
