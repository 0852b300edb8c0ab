// Workload `vocoder`: the paper's Table 1 system as long single simulations
// of four models — unscheduled, architecture, architecture with online
// analytics and a binary trace attached (what a user runs for Fig. 8
// traces), and the implementation model on the ISS.

#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "iss/cpu.hpp"
#include "iss/guest_os.hpp"
#include "obs/analytics.hpp"
#include "obs/binary_trace.hpp"
#include "obs/metrics.hpp"
#include "vocoder/codec.hpp"
#include "vocoder/iss_gen.hpp"
#include "vocoder/models.hpp"
#include "vocoder/system.hpp"
#include "vocoder/timing.hpp"

namespace perfbench {

using namespace slm;
using namespace slm::vocoder;

namespace {

// Frames per simulation (5000 frames are 100 s of speech). Host models cost
// ~10 us per frame, the ISS model ~650 us, so each call runs for about 50 ms
// on a current x86 core: long enough that set-up is noise, short enough that
// many rounds fit a run and each model gets rounds free of host bursts.
constexpr std::size_t kHostFrames = 5'000;
constexpr std::size_t kImplFrames = 75;
// Traced pass: fixed and smaller, since it runs every layer.
constexpr std::size_t kTraceHostFrames = 4'000;
constexpr std::size_t kTraceImplFrames = 60;

VocoderConfig config(std::uint64_t seed, std::size_t frames) {
    VocoderConfig cfg;
    cfg.frames = frames;
    cfg.seed = static_cast<std::uint32_t>(seed);
    return cfg;
}

/// Architecture model with obs::RtosAnalytics attached through on_os and an
/// obs::BinaryTraceSink as tracer. `records` receives the trace size.
VocoderResult run_observed(VocoderConfig cfg, std::size_t* records = nullptr) {
    obs::Registry registry;
    obs::BinaryTraceSink sink;
    std::unique_ptr<obs::RtosAnalytics> analytics;
    cfg.tracer = &sink;
    cfg.on_os = [&](rtos::OsCore& os) {
        analytics = std::make_unique<obs::RtosAnalytics>(os, registry);
    };
    const VocoderResult r = run_vocoder_architecture(cfg);
    if (records != nullptr) {
        *records = sink.size();
    }
    return r;
}

/// Table 1's simulated columns of one model run.
void mix(Digest& d, const VocoderResult& r) {
    d.mix(r.frames);
    d.mix(r.sim_duration.ns());
    d.mix(r.context_switches);
    d.mix(r.avg_transcoding_delay.ns());
    d.mix(r.max_transcoding_delay.ns());
    d.mix(r.max_input_latency.ns());
    d.mix(static_cast<std::uint64_t>(r.model_loc));
    d.mix(r.data_ok ? 1u : 0u);
    // The speech data reaches the result only through the codec's SNR.
    d.mix(std::bit_cast<std::uint64_t>(r.min_snr_db));
}

bool same_simulation(const VocoderResult& a, const VocoderResult& b) {
    Digest da, db;
    mix(da, a);
    mix(db, b);
    return da.hex() == db.hex();
}

struct Timed {
    VocoderResult r;
    double host_s = 0;
};

template <typename F>
Timed time_call(F&& f) {
    const auto t0 = Clock::now();
    Timed t;
    t.r = f();
    t.host_s = seconds_since(t0);
    return t;
}

std::string ms(SimTime t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(t.ns()) / 1e6);
    return buf;
}

}  // namespace

void run_vocoder(const Options& opt, Report& rep) {
    const VocoderConfig host = config(opt.seed, kHostFrames);
    const VocoderConfig impl = config(opt.seed, kImplFrames);

    // Set-up: guest assembly plus one short warm-up simulation of each model
    // (stack pool, allocator, lazy tables); input synthesis happens inside
    // every run_vocoder_* call and so stays in the timed region.
    const auto setup = [&] {
        (void)build_vocoder_guest(kImplFrames);
        const VocoderConfig warm = config(opt.seed, kHostFrames / 20);
        (void)run_vocoder_unscheduled(warm);
        (void)run_vocoder_architecture(warm);
        (void)run_observed(warm);
        (void)run_vocoder_implementation(config(opt.seed, kImplFrames / 20));
    };
    ItemTimes setup_s{1};
    setup_s.add(0, time_once(setup));

    ItemTimes host_s{4};
    std::string first_digest;
    Timed last[4];
    int rounds = 0;
    const auto t0 = Clock::now();
    while (rounds < 3 || seconds_since(t0) < opt.seconds) {
        last[0] = time_call([&] { return run_vocoder_unscheduled(host); });
        last[1] = time_call([&] { return run_vocoder_architecture(host); });
        last[2] = time_call([&] { return run_observed(host); });
        last[3] = time_call([&] { return run_vocoder_implementation(impl); });
        Digest d;
        for (std::size_t m = 0; m < 4; ++m) {
            host_s.add(m, last[m].host_s);
            mix(d, last[m].r);
        }
        setup_s.add(0, time_once(setup));
        ++rounds;

        const VocoderResult& u = last[0].r;
        const VocoderResult& a = last[1].r;
        const VocoderResult& o = last[2].r;
        const VocoderResult& i = last[3].r;
        const double a_per_frame = last[1].host_s / static_cast<double>(a.frames);
        const double i_per_frame = last[3].host_s / static_cast<double>(i.frames);
        // Table 1 shape checks, then data integrity of every model.
        rep.check(u.model_loc < a.model_loc && a.model_loc < i.model_loc,
                  "model size: unscheduled < architecture < implementation");
        rep.check(i_per_frame > 10 * a_per_frame,
                  "host cost per frame: implementation > 10x architecture");
        rep.check(u.context_switches == 0 && a.context_switches > 0 &&
                      i.context_switches > 0,
                  "context switches: only the scheduled models switch");
        rep.check(u.avg_transcoding_delay < i.avg_transcoding_delay,
                  "delay: unscheduled < implementation");
        rep.check(i.avg_transcoding_delay < a.avg_transcoding_delay,
                  "delay: implementation < architecture");
        rep.check(u.data_ok && a.data_ok && o.data_ok && i.data_ok,
                  "every model delivers every frame intact");
        rep.check(same_simulation(a, o), "observers leave the architecture model unchanged");
        if (first_digest.empty()) {
            first_digest = d.hex();
        }
        rep.check(d.hex() == first_digest, "simulated outputs repeat every round");
    }

    const double frames[4] = {static_cast<double>(kHostFrames), static_cast<double>(kHostFrames),
                              static_cast<double>(kHostFrames), static_cast<double>(kImplFrames)};
    double rate[4];
    rep.metric("setup_s", setup_s.best_sum(), "s");
    for (std::size_t m = 0; m < 4; ++m) {
        rate[m] = frames[m] / host_s.best_sum(m, m + 1);
        rep.metric("phase" + std::to_string(m + 1) + "_per_s", rate[m], "1/s");
    }
    rep.metric("work_per_s", (frames[0] + frames[1] + frames[2] + frames[3]) / host_s.best_sum(),
               "1/s");
    rep.digest("table1", first_digest);

    const double ratio = rate[0] / rate[1];
    char line[256];
    rep.note("workload vocoder: " + std::to_string(rounds) + " rounds; closed loop, 1 thread");
    rep.note("phase1_per_s = unsched_frames_per_s (" + std::to_string(kHostFrames) + " frames)");
    rep.note("phase2_per_s = arch_frames_per_s (" + std::to_string(kHostFrames) + " frames)");
    rep.note("phase3_per_s = arch_observed_frames_per_s (" + std::to_string(kHostFrames) +
             " frames)");
    rep.note("phase4_per_s = impl_frames_per_s (" + std::to_string(kImplFrames) + " frames)");
    std::snprintf(line, sizeof(line),
                  "table1 arch/unsched host time %.3fx (paper 1.02x), impl/arch %.0fx "
                  "(paper ~740x)",
                  ratio, rate[1] / rate[3]);
    rep.note(line);
    rep.note("table1 delay unsched " + ms(last[0].r.avg_transcoding_delay) + " (paper 9.7 ms)" +
             ", arch " + ms(last[1].r.avg_transcoding_delay) + " (paper 12.5 ms)" +
             ", impl " + ms(last[3].r.avg_transcoding_delay) + " (paper 11.7 ms)");
    rep.note("table1 switches arch " + std::to_string(last[1].r.context_switches) +
             ", impl " + std::to_string(last[3].r.context_switches));
}

void trace_vocoder(const Options& opt, LayerSamples& out, SpanLog& spans, Report& rep) {
    const VocoderConfig host = config(opt.seed, kTraceHostFrames);
    const double frames = static_cast<double>(kTraceHostFrames);

    // Codec alone, outside any simulation: the floor under the host models.
    const std::vector<Frame> input = make_vocoder_input(host);
    double codec_s = 0;
    {
        const auto t0 = Clock::now();
        std::vector<EncodedFrame> bits;
        bits.reserve(input.size());
        {
            Span s{&spans, "Encoder::encode"};
            Encoder enc;
            for (const Frame& f : input) {
                bits.push_back(enc.encode(f));
            }
        }
        bool ok = true;
        double min_snr = 1e9;
        {
            Span s{&spans, "Decoder::decode"};
            Decoder dec;
            for (std::size_t f = 0; f < input.size(); ++f) {
                const Frame back = dec.decode(bits[f]);
                ok = ok && bits[f].checksum == frame_checksum(input[f]);
                min_snr = std::min(min_snr, snr_db(input[f], back));
            }
        }
        codec_s = seconds_since(t0);
        rep.check(ok && min_snr > 0, "codec round trip keeps checksums and SNR");
    }

    const auto timed_run = [&](const char* name, auto&& fn) {
        Span s{&spans, name};
        return time_call(fn);
    };
    const Timed u = timed_run("run_vocoder_unscheduled",
                              [&] { return run_vocoder_unscheduled(host); });
    const Timed a = timed_run("run_vocoder_architecture",
                              [&] { return run_vocoder_architecture(host); });
    OpCounts counts;
    const Timed ac = timed_run("run_vocoder_architecture.counted", [&] {
        CountingObserver counter{counts};
        VocoderConfig cfg = host;
        cfg.on_os = [&](rtos::OsCore& os) { counter.watch(os); };
        return run_vocoder_architecture(cfg);
    });
    std::size_t records = 0;
    const Timed o = timed_run("run_vocoder_architecture.observed",
                              [&] { return run_observed(host, &records); });
    const VocoderConfig impl = config(opt.seed, kTraceImplFrames);
    const Timed i = timed_run("run_vocoder_implementation",
                              [&] { return run_vocoder_implementation(impl); });
    rep.check(u.r.data_ok && a.r.data_ok && o.r.data_ok && ac.r.data_ok && i.r.data_ok,
              "traced vocoder models deliver every frame intact");
    rep.check(same_simulation(a.r, ac.r) && same_simulation(a.r, o.r),
              "observers leave the architecture model unchanged");

    out.timed("vocoder.codec_ns_per_frame", 1e9 * codec_s / frames, "ns");
    out.timed("sim.ns_per_frame", 1e9 * (u.host_s - codec_s) / frames, "ns");
    out.timed("rtos.ns_per_frame", 1e9 * (a.host_s - u.host_s) / frames, "ns");
    out.timed("rtos.overhead_ratio", a.host_s / u.host_s, "ratio");
    out.timed("obs.ns_per_frame", 1e9 * (o.host_s - a.host_s) / frames, "ns");
    out.timed("bench.trace_overhead_ratio", ac.host_s / a.host_s, "ratio");
    out.exact("trace.records_per_frame", per(static_cast<double>(records), frames), "count");
    out.exact("sim.activations_per_frame",
              per(static_cast<double>(counts.activations), frames), "count");
    out.exact("rtos.context_switches_per_frame",
              per(static_cast<double>(counts.context_switches), frames), "count");
    out.exact("rtos.syscalls_per_frame", per(static_cast<double>(counts.syscalls), frames),
              "count");

    // The implementation model's guest, driven directly through the ISS and
    // the guest kernel, one sub-frame interrupt at a time.
    const auto ta = Clock::now();
    GuestImage img;
    {
        Span s{&spans, "build_vocoder_guest"};
        img = build_vocoder_guest(kTraceImplFrames);
    }
    out.timed("iss.assemble_ms", 1e3 * seconds_since(ta), "ms");

    const std::vector<Frame> guest_input = make_vocoder_input(impl);
    iss::Cpu cpu{img.program.code, 65536};
    iss::GuestKernel gk{cpu};
    gk.sem_init(kSemSubframe, 0);
    gk.sem_init(kSemFrame, 0);
    gk.sem_init(kSemBits, 0);
    gk.create_task("driver", kDriverPriority, img.driver_entry, 60000);
    gk.create_task("encoder", kEncoderPriority, img.encoder_entry, 61000);
    gk.create_task("decoder", kDecoderPriority, img.decoder_entry, 62000);
    std::size_t decoded = 0;
    bool checksums_ok = true;
    gk.set_host_notify([&](std::int32_t code, std::int32_t value) {
        if (code == kNotifyFrameDecoded) {
            decoded = static_cast<std::size_t>(value);
        } else if (code == kNotifyChecksum) {
            checksums_ok = checksums_ok && decoded < guest_input.size() &&
                           static_cast<std::uint32_t>(value) ==
                               frame_checksum(guest_input[decoded]);
        }
    });
    const std::size_t total_subframes = kTraceImplFrames * kSubframesPerFrame;
    std::size_t fed = 0;
    bool stuck = false;
    const auto ti = Clock::now();
    {
        Span s{&spans, "GuestKernel::run_slice"};
        while (!gk.all_exited()) {
            if (gk.idle()) {
                if (gk.has_sleepers()) {
                    gk.skip_idle_cycles(gk.cycles_until_wake());
                    continue;
                }
                if (fed >= total_subframes) {
                    stuck = true;
                    break;
                }
                const Subframe sf = subframe_of(guest_input[fed / kSubframesPerFrame],
                                                static_cast<int>(fed % kSubframesPerFrame));
                for (int i = 0; i < kSubframeSamples; ++i) {
                    cpu.store(static_cast<std::uint32_t>(kMicRxAddr + i),
                              sf.samples[static_cast<std::size_t>(i)]);
                }
                gk.sem_post_from_host(kSemSubframe);
                ++fed;
                continue;
            }
            (void)gk.run_slice(100'000);
        }
    }
    const double iss_s = seconds_since(ti);
    rep.check(!stuck && checksums_ok, "ISS guest decodes every frame with its checksum");
    const double iframes = static_cast<double>(kTraceImplFrames);
    out.timed("iss.guest_mips", static_cast<double>(cpu.retired()) / iss_s / 1e6, "MIPS");
    out.exact("iss.cycles_per_frame", per(static_cast<double>(cpu.cycles()), iframes), "count");
    out.exact("iss.guest_switches_per_frame",
              per(static_cast<double>(gk.stats().context_switches), iframes), "count");
}

}  // namespace perfbench
