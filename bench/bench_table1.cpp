// Reproduces paper Table 1: the vocoder experiment across the unscheduled,
// architecture, and implementation models. Reports model size, simulation
// wall-clock, context switches, and transcoding delay, next to the paper's
// published values. Absolute numbers differ (our substrate is a calibrated
// stand-in, see DESIGN.md); the shape — ratios and orderings — is the result.
//
// Usage: bench_table1 [frames]   (default 200 = 4 s of speech)
// Exits nonzero if any shape check fails; registered as the `bench_table1`
// ctest at the default frame count.

#include <cstdio>
#include <cstdlib>

#include "vocoder/models.hpp"
#include "vocoder/timing.hpp"

using namespace slm;
using namespace slm::vocoder;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) {
        ++failures;
    }
}

}  // namespace

int main(int argc, char** argv) {
    VocoderConfig cfg;
    cfg.frames = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 200;

    std::printf("=== Table 1 reproduction: vocoder, %zu frames (%.1f s of speech) ===\n\n",
                cfg.frames,
                static_cast<double>(cfg.frames) * kFramePeriod.sec());

    const VocoderResult u = run_vocoder_unscheduled(cfg);
    const VocoderResult a = run_vocoder_architecture(cfg);
    const VocoderResult i = run_vocoder_implementation(cfg);

    std::printf("%-24s %14s %14s %16s\n", "", "unscheduled", "architecture",
                "implementation");
    std::printf("%-24s %14d %14d %16d\n", "Model size [lines]", u.model_loc,
                a.model_loc, i.model_loc);
    std::printf("%-24s %14.3f %14.3f %16.3f\n", "Execution time [s]", u.wall_seconds,
                a.wall_seconds, i.wall_seconds);
    std::printf("%-24s %14llu %14llu %16llu\n", "Context switches",
                static_cast<unsigned long long>(u.context_switches),
                static_cast<unsigned long long>(a.context_switches),
                static_cast<unsigned long long>(i.context_switches));
    std::printf("%-24s %14s %14s %16s\n", "Transcoding delay",
                u.avg_transcoding_delay.to_string().c_str(),
                a.avg_transcoding_delay.to_string().c_str(),
                i.avg_transcoding_delay.to_string().c_str());
    std::printf("%-24s %14s %14s %16s\n", "Data integrity", u.data_ok ? "ok" : "FAIL",
                a.data_ok ? "ok" : "FAIL", i.data_ok ? "ok" : "FAIL");

    std::printf("\npaper (DATE'03, GSM vocoder on DSP56600):\n");
    std::printf("%-24s %14s %14s %16s\n", "Lines of Code", "13,475", "15,552", "79,096");
    std::printf("%-24s %14s %14s %16s\n", "Execution Time", "24.0 s", "24.4 s", "5 h");
    std::printf("%-24s %14s %14s %16s\n", "Transcoding delay", "9.7 ms", "12.5 ms",
                "11.7 ms");

    const double arch_over_unsched =
        u.wall_seconds > 0 ? a.wall_seconds / u.wall_seconds : 0;
    const double impl_over_arch =
        a.wall_seconds > 0 ? i.wall_seconds / a.wall_seconds : 0;
    std::printf("\nderived ratios (ours vs paper):\n");
    std::printf("  arch/unsched sim time : %.2fx   (paper 1.02x)\n", arch_over_unsched);
    std::printf("  impl/arch sim time    : %.0fx   (paper ~740x)\n", impl_over_arch);
    std::printf("  arch/unsched delay    : %.3fx  (paper 1.29x)\n",
                static_cast<double>(a.avg_transcoding_delay.ns()) /
                    static_cast<double>(u.avg_transcoding_delay.ns()));
    std::printf("  impl/unsched delay    : %.3fx  (paper 1.21x)\n",
                static_cast<double>(i.avg_transcoding_delay.ns()) /
                    static_cast<double>(u.avg_transcoding_delay.ns()));

    std::printf("\nshape checks (paper Table 1 orderings):\n");
    check(u.model_loc < a.model_loc && a.model_loc < i.model_loc,
          "model size: unscheduled < architecture << implementation");
    check(i.wall_seconds > 10 * a.wall_seconds,
          "simulation cost: implementation orders of magnitude above architecture");
    check(u.context_switches == 0 && a.context_switches > 0 && i.context_switches > 0,
          "context switches: only the scheduled models switch");
    check(u.avg_transcoding_delay < i.avg_transcoding_delay,
          "delay: unscheduled model is optimistic (ignores serialization)");
    check(i.avg_transcoding_delay < a.avg_transcoding_delay,
          "delay: architecture model is mildly pessimistic (WCET annotations)");
    check(u.data_ok && a.data_ok && i.data_ok, "all models deliver every frame intact");

    std::printf("\n%s\n", failures == 0 ? "ALL SHAPE CHECKS PASSED" : "SHAPE CHECK FAILURES");
    return failures == 0 ? 0 : 1;
}
