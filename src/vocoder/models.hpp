#pragma once

#include <cstdint>
#include <functional>

#include "rtos/rtos.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace slm::vocoder {

/// Parameters shared by the three vocoder system models.
struct VocoderConfig {
    std::size_t frames = 50;
    std::uint32_t seed = 1;
    /// Optional trace recorder for the model's execution and task records.
    trace::TraceRecorder* tracer = nullptr;
    /// Architecture model only: scheduling configuration. The vocoder default
    /// adds a conservative 100 us context-switch annotation (the abstract
    /// model errs pessimistic, which is what puts the architecture estimate
    /// above the implementation measurement in Table 1).
    rtos::RtosConfig rtos = default_rtos_config();
    /// Architecture models only: invoked with each OS core right after
    /// construction, before any task exists — the hook for attaching
    /// observers such as obs::RtosAnalytics (run_vocoder_two_pe calls it once
    /// per PE).
    std::function<void(rtos::OsCore&)> on_os;

    [[nodiscard]] static rtos::RtosConfig default_rtos_config();
};

/// Measured outcomes of one vocoder simulation (one column of Table 1).
struct VocoderResult {
    std::size_t frames = 0;
    SimTime sim_duration;                 ///< simulated time span
    double wall_seconds = 0;              ///< host wall-clock of the simulation
    std::uint64_t context_switches = 0;   ///< 0 / RTOS-model / guest-kernel
    SimTime avg_transcoding_delay;        ///< frame-ready -> decoded, average
    SimTime max_transcoding_delay;
    double min_snr_db = 0;                ///< host models; 0 for implementation
    bool data_ok = false;                 ///< checksums/integrity verified
    int model_loc = 0;                    ///< artifact size (Table 1 LoC row)
    /// Worst-case latency from a sub-frame interrupt to the driver finishing
    /// its copy. This is the metric bounded by the delay-model granularity
    /// (paper §4.3); 0 for the implementation model (measured on host models).
    SimTime max_input_latency;
};

/// Unscheduled specification model: driver, encoder, and decoder behaviors run
/// truly concurrently on the SLDL kernel with WCET delay annotations.
[[nodiscard]] VocoderResult run_vocoder_unscheduled(const VocoderConfig& cfg);

/// Architecture model: the behaviors refined into prioritized tasks on one
/// RTOS-model instance (driver > decoder > encoder), ISR-driven input.
[[nodiscard]] VocoderResult run_vocoder_architecture(const VocoderConfig& cfg);

/// Implementation model: generated SLM32 assembly on the instruction-set
/// simulator under the custom guest kernel; timing from executed cycles.
[[nodiscard]] VocoderResult run_vocoder_implementation(const VocoderConfig& cfg);

/// Two-PE architecture-model mapping (design-space exploration of the paper's
/// Fig. 1 flow): driver+encoder on DSP0, decoder on DSP1, encoded frames
/// crossing an arbitrated bus with ISR-signaled reception. busy-time split
/// and delay can be compared against the single-PE mapping.
struct TwoPeResult {
    VocoderResult overall;     ///< context_switches summed over both PEs
    SimTime pe0_busy;          ///< DSP0 (driver + encoder) busy time
    SimTime pe1_busy;          ///< DSP1 (decoder) busy time
    std::uint64_t bus_transfers = 0;
    SimTime bus_busy;
};
[[nodiscard]] TwoPeResult run_vocoder_two_pe(const VocoderConfig& cfg);

}  // namespace slm::vocoder
