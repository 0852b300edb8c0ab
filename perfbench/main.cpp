// Benchmark driver of the simulator: one binary, three workloads.
//
//   perfbench --workload vocoder|soak|search --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// --trace 0 runs the named workload untraced as a closed loop of simulations
// and reports the end-to-end metrics. --trace 1 runs the fixed-size per-layer
// passes of all three workloads (the named one first), repeated until the
// time is spent, and reports the per-layer metrics; host-time spans go to
// --spans-out. The last stdout line is the JSON result. perfbench/README.md
// documents every metric.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace perfbench;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload vocoder|soak|search --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n");
    return 2;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

using TraceFn = void (*)(const Options&, LayerSamples&, SpanLog&, Report&);

void run_traced(const Options& opt, Report& rep) {
    struct Pass {
        const char* name;
        TraceFn fn;
    };
    const Pass all[] = {{"vocoder", trace_vocoder}, {"soak", trace_soak},
                        {"search", trace_search}};
    std::vector<Pass> order;
    for (const Pass& p : all) {
        if (opt.workload == p.name) {
            order.insert(order.begin(), p);
        } else {
            order.push_back(p);
        }
    }

    SpanLog spans;
    LayerSamples samples;
    const auto t0 = Clock::now();
    int passes = 0;
    // At least two passes, so every count is compared against a repeat.
    while (passes < 2 || seconds_since(t0) < opt.seconds) {
        for (const Pass& p : order) {
            Span s{&spans, std::string("pass.") + p.name};
            p.fn(opt, samples, spans, rep);
        }
        ++passes;
    }
    samples.exact("bench.cores_detected",
                  static_cast<double>(std::thread::hardware_concurrency()), "count");
    samples.report(rep);
    rep.note("traced passes: " + std::to_string(passes));
    if (!opt.spans_out.empty() && !spans.write_json(opt.spans_out)) {
        rep.check(false, "write span log " + opt.spans_out);
    }
    for (const auto& [name, s] : spans.self_seconds()) {
        char line[160];
        std::snprintf(line, sizeof(line), "span self %-40s %10.3f ms", name.c_str(),
                      1e3 * s);
        rep.note(line);
    }
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* key = argv[i];
        const char* val = argv[i + 1];
        if (std::strcmp(key, "--workload") == 0) {
            opt.workload = val;
        } else if (std::strcmp(key, "--seed") == 0) {
            opt.seed = std::strtoull(val, nullptr, 10);
        } else if (std::strcmp(key, "--seconds") == 0) {
            opt.seconds = std::strtod(val, nullptr);
        } else if (std::strcmp(key, "--trace") == 0) {
            opt.trace = std::strcmp(val, "0") != 0;
            have_trace = true;
        } else if (std::strcmp(key, "--spans-out") == 0) {
            opt.spans_out = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !have_trace || opt.seconds <= 0 ||
        (opt.workload != "vocoder" && opt.workload != "soak" && opt.workload != "search")) {
        return usage();
    }

    Report rep;
    try {
        if (opt.trace) {
            run_traced(opt, rep);
        } else {
            if (opt.workload == "vocoder") {
                run_vocoder(opt, rep);
            } else if (opt.workload == "soak") {
                run_soak(opt, rep);
            } else {
                run_search(opt, rep);
            }
            rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    rep.print();
    return 0;
}
