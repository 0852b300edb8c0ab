#include "vocoder/models.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "arch/arch.hpp"
#include "iss/cpu.hpp"
#include "iss/guest_os.hpp"
#include "refine/refiner.hpp"
#include "refine/vocoder_spec.hpp"
#include "rtos/os_channels.hpp"
#include "sim/assert.hpp"
#include "sim/channels.hpp"
#include "sim/kernel.hpp"
#include "sys/elaborate.hpp"
#include "vocoder/codec.hpp"
#include "vocoder/iss_gen.hpp"
#include "vocoder/system.hpp"
#include "vocoder/timing.hpp"

namespace slm::vocoder {

namespace {

std::vector<Frame> make_input(const VocoderConfig& cfg) {
    return make_vocoder_input(cfg);
}

struct DelayStats {
    std::vector<SimTime> ready;
    std::vector<SimTime> done;

    explicit DelayStats(std::size_t n) : ready(n), done(n) {}

    void fill(VocoderResult& r) const {
        SimTime total, worst;
        for (std::size_t i = 0; i < done.size(); ++i) {
            const SimTime d = done[i] - ready[i];
            total += d;
            worst = std::max(worst, d);
        }
        r.avg_transcoding_delay = done.empty() ? SimTime{} : total / done.size();
        r.max_transcoding_delay = worst;
    }
};

/// Lines of the refined (architecture-level) vocoder model source.
int refined_spec_lines() {
    refine::RefineConfig rc;
    rc.os_owner = "DspPe";
    rc.tasks["Coder"] = refine::TaskSpec{"APERIODIC", 0, kEncodeWcetCycles};
    rc.tasks["Decoder"] = refine::TaskSpec{"APERIODIC", 0, kDecodeWcetCycles};
    rc.tasks["BusDriver"] = refine::TaskSpec{"APERIODIC", 0, kSubframeCopyWcetCycles};
    const refine::RefineResult r = refine::Refiner{rc}.refine(refine::kVocoderSpec);
    SLM_ASSERT(r.ok(), "vocoder spec refinement failed");
    return r.report.lines_total + r.report.lines_added;
}

int spec_lines() {
    return static_cast<int>(
        std::count(refine::kVocoderSpec.begin(), refine::kVocoderSpec.end(), '\n'));
}

class WallClock {
public:
    WallClock() : start_(std::chrono::steady_clock::now()) {}
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

}  // namespace

rtos::RtosConfig VocoderConfig::default_rtos_config() {
    rtos::RtosConfig rc;
    rc.cpu_name = "DSP";
    rc.policy = rtos::SchedPolicy::Priority;
    rc.context_switch_overhead = microseconds(100);
    return rc;
}

// ---- unscheduled specification model ----

VocoderResult run_vocoder_unscheduled(const VocoderConfig& cfg) {
    const std::vector<Frame> input = make_input(cfg);
    sim::Kernel k;
    arch::Bus bus{k, "audio_bus", arch::Bus::Config{SimTime::zero(), SimTime::zero()}};
    arch::BusLink<Subframe> link{k, bus, "audio"};
    sim::Semaphore sub_sem{k, 0, "sub_sem"};
    sim::Queue<Frame> frame_q{k, 0, "frame_q"};
    sim::Queue<EncodedFrame> bits_q{k, 0, "bits_q"};
    DelayStats delays{cfg.frames};
    VocoderResult res;
    res.frames = cfg.frames;
    res.min_snr_db = 1e9;
    res.data_ok = true;
    trace::TraceRecorder* rec = cfg.tracer;

    const auto exec = [&](const char* who, SimTime dt) {
        if (rec != nullptr) {
            rec->exec_begin(k.now(), "DSP", who);
        }
        k.waitfor(dt);
        if (rec != nullptr) {
            rec->exec_end(k.now(), "DSP", who);
        }
    };

    // Serial audio port: 4 sub-frame transfers per 20 ms frame.
    k.spawn("audio_port", [&] {
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            for (int s = 0; s < kSubframesPerFrame; ++s) {
                k.waitfor(kSubframePeriod);
                link.post(subframe_of(input[f], s), [&](SimTime dt) { k.waitfor(dt); });
            }
        }
    });

    // ISR generated as part of the bus driver (paper Fig. 3): semaphore signal.
    std::deque<SimTime> irq_times;
    k.spawn("ISR", [&] {
        for (;;) {
            k.wait(link.irq().event());
            if (rec != nullptr) {
                rec->irq(k.now(), "DSP", "audio");
            }
            irq_times.push_back(k.now());
            sub_sem.release();
        }
    });

    k.spawn("driver", [&] {
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            Frame cur;
            for (int s = 0; s < kSubframesPerFrame; ++s) {
                sub_sem.acquire();
                Subframe sf;
                SLM_ASSERT(link.try_fetch(sf), "driver woke without data");
                const SimTime irq_at = irq_times.front();
                irq_times.pop_front();
                exec("driver", cycles_to_time(kSubframeCopyWcetCycles));
                res.max_input_latency =
                    std::max(res.max_input_latency, k.now() - irq_at);
                for (int i = 0; i < kSubframeSamples; ++i) {
                    cur.samples[static_cast<std::size_t>(s * kSubframeSamples + i)] =
                        sf.samples[static_cast<std::size_t>(i)];
                }
            }
            delays.ready[f] = k.now();
            frame_q.send(cur);
        }
    });

    k.spawn("encoder", [&] {
        Encoder enc;
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            const Frame fr = frame_q.receive();
            EncodedFrame e = enc.encode(fr);
            exec("encoder", cycles_to_time(kEncodeWcetCycles));
            bits_q.send(std::move(e));
        }
    });

    k.spawn("decoder", [&] {
        Decoder dec;
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            const EncodedFrame e = bits_q.receive();
            const Frame out = dec.decode(e);
            exec("decoder", cycles_to_time(kDecodeWcetCycles));
            delays.done[f] = k.now();
            res.data_ok = res.data_ok && e.checksum == frame_checksum(input[f]);
            res.min_snr_db = std::min(res.min_snr_db, snr_db(input[f], out));
        }
    });

    const WallClock wall;
    k.run();
    res.wall_seconds = wall.seconds();
    res.sim_duration = k.now();
    res.context_switches = 0;
    delays.fill(res);
    res.model_loc = spec_lines();
    return res;
}

// ---- architecture model ----

VocoderResult run_vocoder_architecture(const VocoderConfig& cfg) {
    const std::vector<Frame> input = make_input(cfg);
    sim::Kernel k;
    rtos::RtosConfig rc = cfg.rtos;
    rc.cpu_name = "DSP";
    rc.tracer = cfg.tracer;
    arch::ProcessingElement pe{k, "DSP", rc};
    rtos::OsCore& os = pe.os();
    if (cfg.on_os) {
        cfg.on_os(os);
    }

    arch::Bus bus{k, "audio_bus", arch::Bus::Config{SimTime::zero(), SimTime::zero()}};
    arch::BusLink<Subframe> link{k, bus, "audio"};
    rtos::OsSemaphore sub_sem{os, 0, "sub_sem"};
    rtos::OsQueue<Frame> frame_q{os, 0, "frame_q"};
    rtos::OsQueue<EncodedFrame> bits_q{os, 0, "bits_q"};
    DelayStats delays{cfg.frames};
    VocoderResult res;
    res.frames = cfg.frames;
    res.min_snr_db = 1e9;
    res.data_ok = true;

    k.spawn("audio_port", [&] {
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            for (int s = 0; s < kSubframesPerFrame; ++s) {
                k.waitfor(kSubframePeriod);
                link.post(subframe_of(input[f], s), [&](SimTime dt) { k.waitfor(dt); });
            }
        }
    });

    std::deque<SimTime> irq_times;
    pe.attach_isr(link.irq(), [&] {
        irq_times.push_back(k.now());
        sub_sem.release();
    });

    pe.add_task("driver", kDriverPriority, [&] {
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            Frame cur;
            for (int s = 0; s < kSubframesPerFrame; ++s) {
                sub_sem.acquire();
                Subframe sf;
                SLM_ASSERT(link.try_fetch(sf), "driver woke without data");
                const SimTime irq_at = irq_times.front();
                irq_times.pop_front();
                os.time_wait(cycles_to_time(kSubframeCopyWcetCycles));
                res.max_input_latency =
                    std::max(res.max_input_latency, k.now() - irq_at);
                for (int i = 0; i < kSubframeSamples; ++i) {
                    cur.samples[static_cast<std::size_t>(s * kSubframeSamples + i)] =
                        sf.samples[static_cast<std::size_t>(i)];
                }
            }
            delays.ready[f] = k.now();
            frame_q.send(cur);
        }
    });

    pe.add_task("encoder", kEncoderPriority, [&] {
        Encoder enc;
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            const Frame fr = frame_q.receive();
            EncodedFrame e = enc.encode(fr);
            os.time_wait(cycles_to_time(kEncodeWcetCycles));
            bits_q.send(std::move(e));
        }
    });

    pe.add_task("decoder", kDecoderPriority, [&] {
        Decoder dec;
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            const EncodedFrame e = bits_q.receive();
            const Frame out = dec.decode(e);
            os.time_wait(cycles_to_time(kDecodeWcetCycles));
            delays.done[f] = k.now();
            res.data_ok = res.data_ok && e.checksum == frame_checksum(input[f]);
            res.min_snr_db = std::min(res.min_snr_db, snr_db(input[f], out));
        }
    });

    pe.start();
    const WallClock wall;
    k.run();
    res.wall_seconds = wall.seconds();
    res.sim_duration = k.now();
    res.context_switches = os.stats().context_switches;
    delays.fill(res);
    res.model_loc = refined_spec_lines();
    return res;
}

// ---- two-PE architecture model ----

TwoPeResult run_vocoder_two_pe(const VocoderConfig& cfg) {
    // The encoder/decoder split is pure specification now: the same app spec
    // drives this canonical mapping and the design-space sweeps over
    // heterogeneous platforms (sys::run_sweep + vocoder_sweep_platform).
    sys::SystemOptions opts;
    opts.base_rtos = cfg.rtos;
    opts.tracer = cfg.tracer;
    opts.on_os = cfg.on_os;
    sys::System system{vocoder_app_spec(cfg.frames), vocoder_two_pe_platform(cfg),
                       vocoder_split_mapping(), std::move(opts)};
    const std::shared_ptr<VocoderSysOutcome> outcome =
        attach_vocoder_behaviors(system, cfg);

    const WallClock wall;
    system.run();

    TwoPeResult two{};
    VocoderResult& res = two.overall;
    res.frames = cfg.frames;
    res.wall_seconds = wall.seconds();
    res.sim_duration = system.kernel().now();
    res.data_ok = outcome->data_ok;
    res.min_snr_db = outcome->min_snr_db;
    res.context_switches = system.pe("DSP0")->os().stats().context_switches +
                           system.pe("DSP1")->os().stats().context_switches;
    DelayStats delays{cfg.frames};
    delays.ready = outcome->ready;
    delays.done = outcome->done;
    delays.fill(res);
    res.model_loc = refined_spec_lines();
    two.pe0_busy = system.pe("DSP0")->os().busy_time();
    two.pe1_busy = system.pe("DSP1")->os().busy_time();
    two.bus_transfers = system.bus("sys_bus")->transfers();
    two.bus_busy = system.bus("sys_bus")->busy_time();
    return two;
}

// ---- implementation model ----

VocoderResult run_vocoder_implementation(const VocoderConfig& cfg) {
    const std::vector<Frame> input = make_input(cfg);
    const GuestImage img = build_vocoder_guest(cfg.frames);

    iss::Cpu cpu{img.program.code, 65536};
    iss::GuestKernel gk{cpu};
    gk.sem_init(kSemSubframe, 0);
    gk.sem_init(kSemFrame, 0);
    gk.sem_init(kSemBits, 0);
    gk.create_task("driver", kDriverPriority, img.driver_entry, 60000);
    gk.create_task("encoder", kEncoderPriority, img.encoder_entry, 61000);
    gk.create_task("decoder", kDecoderPriority, img.decoder_entry, 62000);

    sim::Kernel k;
    iss::IssPe pe{k, "DSP", cpu, gk, iss::IssPe::Config{kCycleTime, 2000}};

    DelayStats delays{cfg.frames};
    VocoderResult res;
    res.frames = cfg.frames;
    res.data_ok = true;
    res.min_snr_db = 0;  // functional check is checksum-based on this model

    std::size_t decoded_frame = 0;
    gk.set_host_notify([&](std::int32_t code, std::int32_t value) {
        switch (code) {
            case kNotifyFrameReady:
                delays.ready[static_cast<std::size_t>(value)] = k.now();
                break;
            case kNotifyFrameDecoded:
                decoded_frame = static_cast<std::size_t>(value);
                delays.done[decoded_frame] = k.now();
                break;
            case kNotifyChecksum:
                res.data_ok = res.data_ok &&
                              static_cast<std::uint32_t>(value) ==
                                  frame_checksum(input[decoded_frame]);
                break;
            default:
                SLM_ASSERT(false, "unexpected guest notify code");
        }
    });

    k.spawn("audio_port", [&] {
        for (std::size_t f = 0; f < cfg.frames; ++f) {
            for (int s = 0; s < kSubframesPerFrame; ++s) {
                k.waitfor(kSubframePeriod);
                const Subframe sf = subframe_of(input[f], s);
                for (int i = 0; i < kSubframeSamples; ++i) {
                    cpu.store(static_cast<std::uint32_t>(kMicRxAddr + i),
                              sf.samples[static_cast<std::size_t>(i)]);
                }
                pe.post_irq(kSemSubframe);
            }
        }
    });

    const WallClock wall;
    k.run();
    res.wall_seconds = wall.seconds();
    res.sim_duration = k.now();
    res.context_switches = gk.stats().context_switches;
    delays.fill(res);
    res.model_loc = img.listing_lines;
    SLM_ASSERT(gk.all_exited(), "guest tasks did not finish");
    return res;
}

}  // namespace slm::vocoder
