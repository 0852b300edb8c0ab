// Workload `search`: many short simulations, each rebuilt from t=0, in four
// phases — bounded-DFS exploration to exhaustion over a seeded family of
// small RtosModel task sets (some tasks share an OsMutex or OsQueue, some do
// not), the same space sharded on 2 workers, a fault-campaign seed sweep
// recording traces to CSV, and a vocoder mapping sweep.

#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "explore/explore.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "parallel/parallel.hpp"
#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "soak/gen.hpp"
#include "sys/sweep.hpp"
#include "trace/trace.hpp"
#include "vocoder/system.hpp"

namespace perfbench {

using namespace slm;
using namespace slm::time_literals;

namespace {

constexpr unsigned kWorkers = 2;
// A campaign keeps every run's trace CSV, so the sweep runs in chunks of
// kCampaignRuns consecutive seeds to bound memory.
constexpr unsigned kCampaignRuns = 1'000;
constexpr unsigned kCampaignChunks = 16;
constexpr unsigned kCampaignSlices = 40;
constexpr std::size_t kSweepFrames = 1'000;
// Traced pass.
constexpr unsigned kTraceCampaignRuns = 200;
constexpr std::size_t kTraceSweepFrames = 200;

/// The shapes of the explored family. Crossed deadlocks on some paths and
/// Starved on every path, by construction; the others never do.
enum class Kind { Independent, SharedMutex, Crossed, Pipeline, Starved };

struct ModelSpec {
    Kind kind = Kind::Independent;
    unsigned extra = 1;   ///< independent side tasks next to the shared pair
    unsigned slices = 2;  ///< execution slices per task (queue items for the pair)

    [[nodiscard]] bool deadlocks() const {
        return kind == Kind::Crossed || kind == Kind::Starved;
    }
};

/// Two models of each kind, with 4 and 5 side tasks; the seed picks each
/// model's slice count. Side tasks set the size of the space, so every seed
/// explores about as many paths.
std::vector<ModelSpec> family(std::uint64_t seed) {
    soak::Rng rng{seed * 0x9e3779b97f4a7c15ull + 17};
    std::vector<ModelSpec> out;
    for (const Kind kind : {Kind::Independent, Kind::SharedMutex, Kind::Crossed,
                            Kind::Pipeline, Kind::Starved}) {
        for (unsigned extra : {4u, 5u}) {
            out.push_back({kind, extra, 2 + static_cast<unsigned>(rng.below(2))});
        }
    }
    return out;
}

const char* to_string(Kind k) {
    switch (k) {
        case Kind::Independent: return "independent";
        case Kind::SharedMutex: return "shared-mutex";
        case Kind::Crossed: return "crossed";
        case Kind::Pipeline: return "pipeline";
        case Kind::Starved: return "starved";
    }
    return "?";
}

/// Equal-priority tasks that all wake at 1 ms and then compute in 50 us
/// slices: the simultaneous wake-ups, the blocking and release points and
/// the task exits are dispatch ties the explorer can take. `counts` (traced
/// pass only; never shared across workers) attaches a counting observer to
/// the run's core.
explore::Explorer::BuildFn model_build(ModelSpec m, OpCounts* counts = nullptr) {
    return [m, counts](explore::Run& run) {
        CountingObserver* counter =
            counts != nullptr ? &run.make<CountingObserver>(*counts) : nullptr;
        rtos::RtosConfig cfg;
        cfg.cpu_name = "CPU0";
        auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
        if (counter != nullptr) {
            counter->watch(os);
        }
        os.init();
        const auto task = [&](const std::string& name, std::function<void()> body) {
            rtos::Task* t = os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
            run.kernel().spawn(name, [&os, t, body = std::move(body)] {
                os.task_activate(t);
                os.task_delay(1_ms);
                body();
                os.task_terminate();
            });
        };
        const unsigned slices = m.slices;
        const auto work = [&os, slices] {
            for (unsigned s = 0; s < slices; ++s) {
                os.time_wait(50_us);
            }
        };

        switch (m.kind) {
            case Kind::Independent:
                task("a", work);
                task("b", work);
                break;
            case Kind::SharedMutex:
            case Kind::Crossed: {
                // Each holds its first lock across a sleep, so the other can
                // run in between; crossed order then deadlocks.
                auto& ma = run.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None, "ma");
                auto& mb = run.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None, "mb");
                const bool crossed = m.kind == Kind::Crossed;
                task("a", [&os, &ma, &mb, work] {
                    ma.lock();
                    os.task_delay(50_us);
                    mb.lock();
                    work();
                    mb.unlock();
                    ma.unlock();
                });
                task("b", [&os, &ma, &mb, work, crossed] {
                    rtos::OsMutex& first = crossed ? mb : ma;
                    rtos::OsMutex& second = crossed ? ma : mb;
                    first.lock();
                    os.task_delay(50_us);
                    second.lock();
                    work();
                    second.unlock();
                    first.unlock();
                });
                break;
            }
            case Kind::Pipeline:
            case Kind::Starved: {
                auto& q = run.make<rtos::OsQueue<int>>(os, 1, "q");
                const unsigned items = slices;
                const unsigned wanted = m.kind == Kind::Starved ? items + 1 : items;
                task("producer", [&os, &q, items] {
                    for (unsigned i = 0; i < items; ++i) {
                        os.time_wait(50_us);
                        q.send(static_cast<int>(i));
                    }
                });
                task("consumer", [&os, &q, wanted] {
                    for (unsigned i = 0; i < wanted; ++i) {
                        (void)q.receive();
                        os.time_wait(50_us);
                    }
                });
                break;
            }
        }
        for (unsigned e = 0; e < m.extra; ++e) {
            task("side" + std::to_string(e), work);
        }
        os.start();
    };
}

explore::ExploreConfig explore_config() {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 2;
    cfg.max_paths = 1'000'000;
    cfg.max_violations = 1'000'000;  // keep going: exhaustion is the measure
    cfg.record_choices = false;
    return cfg;
}

std::string result_json(const explore::ExploreResult& r) {
    std::ostringstream os;
    explore::write_result_json(os, r);
    return std::move(os).str();
}

bool has_deadlock(const explore::ExploreResult& r) {
    for (const explore::Violation& v : r.violations) {
        if (v.kind == explore::Violation::Kind::Deadlock) {
            return true;
        }
    }
    return false;
}

/// One campaign run: three jittered tasks on one core, traced into a
/// TraceRecorder and written out as CSV. `csv_s`/`csv_bytes` (traced pass
/// only) accumulate the CSV writer's cost.
fault::CampaignRunFn campaign_runner(SpanLog* spans = nullptr, double* csv_s = nullptr,
                                     double* csv_bytes = nullptr) {
    return [spans, csv_s, csv_bytes](fault::FaultInjector& inj, fault::CampaignRun& out) {
        sim::Kernel k;
        trace::TraceRecorder rec;
        rtos::RtosConfig rc;
        rc.cpu_name = "CPU0";
        rc.tracer = &rec;
        rtos::RtosModel os(k, rc);
        os.init();
        inj.attach(os);
        for (const char* name : {"sense", "plan", "act"}) {
            rtos::Task* t = os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
            k.spawn(name, [&os, t] {
                os.task_activate(t);
                for (unsigned s = 0; s < kCampaignSlices; ++s) {
                    os.time_wait(100_us);
                }
                os.task_terminate();
            });
        }
        os.start();
        k.run();
        std::ostringstream csv;
        {
            Span s{spans, "TraceRecorder::write_csv"};
            const auto t0 = Clock::now();
            rec.write_csv(csv);
            if (csv_s != nullptr) {
                *csv_s += seconds_since(t0);
            }
        }
        out.trace_csv = std::move(csv).str();
        if (csv_bytes != nullptr) {
            *csv_bytes += static_cast<double>(out.trace_csv.size());
        }
        out.end_time = k.now();
    };
}

fault::FaultPlan campaign_plan() {
    return *fault::FaultPlan::parse("exec_jitter sense max=20us p=0.5\n"
                                    "exec_jitter plan max=20us p=0.5\n");
}

std::string campaign_json(const fault::CampaignResult& r) {
    std::ostringstream os;
    fault::write_campaign_json(os, r);
    return std::move(os).str();
}

struct Sweep {
    sys::AppSpec app;
    sys::PlatformSpec platform;
    std::vector<sys::MappingSpec> candidates;
    sys::SweepConfig cfg;
    sys::SystemSetup setup;
};

Sweep make_sweep(std::uint64_t seed, std::size_t frames) {
    vocoder::VocoderConfig vc;
    vc.frames = frames;
    vc.seed = static_cast<std::uint32_t>(seed);
    Sweep s;
    s.app = vocoder::vocoder_app_spec(frames);
    s.platform = vocoder::vocoder_sweep_platform(vc);
    s.candidates = sys::enumerate_mappings(s.app, s.platform, vocoder::vocoder_enum_options());
    s.cfg.jobs = 1;
    s.cfg.options.base_rtos = vc.rtos;
    s.setup = vocoder::vocoder_setup(vc);
    return s;
}

std::string sweep_json(const sys::SweepResult& r) {
    std::ostringstream os;
    sys::write_sweep_json(os, r);
    return std::move(os).str();
}

std::uint64_t campaign_first_seed(std::uint64_t seed) { return seed * 100'000 + 1; }

}  // namespace

void run_search(const Options& opt, Report& rep) {
    const std::vector<ModelSpec> models = family(opt.seed);
    const explore::ExploreConfig ecfg = explore_config();
    parallel::ParallelConfig pcfg;
    pcfg.jobs = kWorkers;
    const fault::FaultPlan plan = campaign_plan();
    const fault::CampaignRunFn runner = campaign_runner();
    const std::uint64_t campaign_seed = campaign_first_seed(opt.seed);
    Sweep sweep;

    // Set-up: inputs plus one warm-up pass of every phase at small size.
    const auto setup = [&] {
        sweep = make_sweep(opt.seed, kSweepFrames);
        (void)explore::Explorer{model_build(models.front()), ecfg}.explore();
        (void)parallel::explore(model_build(models.front()), ecfg, pcfg);
        (void)fault::run_campaign(plan, fault::CampaignConfig{campaign_seed, 50}, runner);
        const Sweep warm = make_sweep(opt.seed, kSweepFrames / 20);
        (void)sys::run_sweep(warm.app, warm.platform, warm.candidates, warm.cfg, warm.setup);
    };
    ItemTimes setup_s{1};
    setup_s.add(0, time_once(setup));

    ItemTimes serial_s{models.size()};
    ItemTimes sharded_s{models.size()};
    ItemTimes campaign_s{kCampaignChunks};
    ItemTimes sweep_s{1};
    std::size_t candidates = 0;
    std::string first[3];  // explore, campaign, sweep digests of round 1
    std::uint64_t paths = 0;
    std::uint64_t campaign_runs = 0;
    int rounds = 0;
    const auto t0 = Clock::now();
    while (rounds < 3 || seconds_since(t0) < opt.seconds) {
        // Phase 1 and 2: the family explored to exhaustion, serial then sharded.
        std::vector<std::string> serial_json(models.size());
        paths = 0;
        Digest explore_digest;
        for (std::size_t i = 0; i < models.size(); ++i) {
            const auto ts = Clock::now();
            const explore::ExploreResult r =
                explore::Explorer{model_build(models[i]), ecfg}.explore();
            serial_s.add(i, seconds_since(ts));
            paths += r.stats.paths;
            rep.check(r.exhausted, std::string("explore exhausts model ") + to_string(models[i].kind));
            rep.check(has_deadlock(r) == models[i].deadlocks() &&
                          (models[i].deadlocks() || r.violations.empty()),
                      std::string("deadlock verdict of model ") + to_string(models[i].kind));
            serial_json[i] = result_json(r);
            explore_digest.mix(serial_json[i]);
        }
        for (std::size_t i = 0; i < models.size(); ++i) {
            const auto ts = Clock::now();
            const explore::ExploreResult r = parallel::explore(model_build(models[i]), ecfg, pcfg);
            sharded_s.add(i, seconds_since(ts));
            rep.check(result_json(r) == serial_json[i],
                      "sharded explore output is byte-identical to serial");
        }

        // Phase 3: fault-campaign seed sweep, chunk by chunk.
        campaign_runs = 0;
        Digest campaign_digest;
        for (unsigned c = 0; c < kCampaignChunks; ++c) {
            const auto tc = Clock::now();
            const fault::CampaignResult camp = fault::run_campaign(
                plan, fault::CampaignConfig{campaign_seed + c * kCampaignRuns, kCampaignRuns},
                runner);
            campaign_s.add(c, seconds_since(tc));
            campaign_runs += camp.runs.size();
            campaign_digest.mix(campaign_json(camp));
        }

        // Phase 4: vocoder mapping sweep.
        const auto tw = Clock::now();
        const sys::SweepResult sw = sys::run_sweep(sweep.app, sweep.platform,
                                                   sweep.candidates, sweep.cfg, sweep.setup);
        sweep_s.add(0, seconds_since(tw));
        candidates = sw.candidates.size();
        for (const sys::CandidateResult& c : sw.candidates) {
            rep.check(c.metrics.jobs_completed == 3 * kSweepFrames,
                      "sweep candidate " + c.mapping.name + " completes every job");
        }
        Digest sweep_digest;
        sweep_digest.mix(sweep_json(sw));

        setup_s.add(0, time_once(setup));
        ++rounds;

        const std::string now[3] = {explore_digest.hex(), campaign_digest.hex(),
                                    sweep_digest.hex()};
        const char* what[3] = {"explore results", "campaign results", "sweep result"};
        for (int k = 0; k < 3; ++k) {
            if (first[k].empty()) {
                first[k] = now[k];
            }
            rep.check(now[k] == first[k], std::string(what[k]) + " repeat every round");
        }
    }

    const double exhaust_s = serial_s.best_sum();
    const double sharded_exhaust_s = sharded_s.best_sum();
    const double sims = static_cast<double>(2 * paths + campaign_runs + candidates);
    rep.metric("setup_s", setup_s.best_sum(), "s");
    rep.metric("phase1_per_s", 1.0 / exhaust_s, "1/s");
    rep.metric("phase2_per_s", 1.0 / sharded_exhaust_s, "1/s");
    rep.metric("phase3_per_s", static_cast<double>(campaign_runs) / campaign_s.best_sum(), "1/s");
    rep.metric("phase4_per_s", static_cast<double>(candidates) / sweep_s.best_sum(), "1/s");
    rep.metric("work_per_s",
               sims / (exhaust_s + sharded_exhaust_s + campaign_s.best_sum() +
                       sweep_s.best_sum()),
               "1/s");
    rep.digest("slm-explore-result-v1", first[0]);
    rep.digest("slm-campaign-result-v1", first[1]);
    rep.digest("slm-sweep-result-v1", first[2]);

    char line[200];
    rep.note("workload search: " + std::to_string(rounds) +
             " rounds; closed loop, 1 thread except the sharded phase (" +
             std::to_string(kWorkers) + " workers)");
    std::snprintf(line, sizeof(line),
                  "phase1_per_s = 1 / explore_exhaust_s (%zu models, %llu paths; "
                  "fastest rounds %.4f s)",
                  models.size(), static_cast<unsigned long long>(paths), exhaust_s);
    rep.note(line);
    std::snprintf(line, sizeof(line),
                  "phase2_per_s = 1 / explore_sharded_exhaust_s (fastest rounds %.4f s)",
                  sharded_exhaust_s);
    rep.note(line);
    rep.note("phase3_per_s = campaign_runs_per_s (" + std::to_string(campaign_runs) +
             " seeds x " + std::to_string(kCampaignSlices) + " slices)");
    rep.note("phase4_per_s = sweep_candidates_per_s (" +
             std::to_string(sweep.candidates.size()) + " candidates x " +
             std::to_string(kSweepFrames) + " frames)");
    rep.note("work_per_s = simulations per second (paths, campaign runs, candidates)");
}

void trace_search(const Options& opt, LayerSamples& out, SpanLog& spans, Report& rep) {
    const std::vector<ModelSpec> models = family(opt.seed);
    const explore::ExploreConfig ecfg = explore_config();

    // Explore: timed uncounted, then counted for the per-path kernel counts.
    double explore_s = 0;
    std::uint64_t paths = 0;
    std::uint64_t choice_points = 0;
    std::vector<std::string> serial_json;
    for (const ModelSpec& m : models) {
        Span s{&spans, "Explorer::explore"};
        const auto t0 = Clock::now();
        const explore::ExploreResult r = explore::Explorer{model_build(m), ecfg}.explore();
        explore_s += seconds_since(t0);
        paths += r.stats.paths;
        choice_points += r.stats.choice_points;
        serial_json.push_back(result_json(r));
        rep.check(r.exhausted && has_deadlock(r) == m.deadlocks(),
                  std::string("traced explore verdict of model ") + to_string(m.kind));
    }
    OpCounts counts;
    for (const ModelSpec& m : models) {
        Span s{&spans, "Explorer::explore.counted"};
        (void)explore::Explorer{model_build(m, &counts), ecfg}.explore();
    }
    const double p = static_cast<double>(paths);
    out.exact("explore.paths", p, "count");
    out.exact("explore.choice_points_per_path", per(static_cast<double>(choice_points), p),
              "count");
    out.timed("explore.us_per_path", 1e6 * explore_s / p, "us");
    out.exact("sim.processes_per_path", per(static_cast<double>(counts.processes_created), p),
              "count");
    // Stacks not served from the kernel's pool. Every path builds a fresh
    // kernel with an empty pool, so on seed code this equals processes per
    // path (the recycle ratio is 0); a pool kept across paths lowers it.
    out.exact("sim.stack_allocs_per_path",
              per(static_cast<double>(counts.processes_created - counts.stacks_recycled), p),
              "count");

    // Sharded explore on 2 workers.
    parallel::ParallelConfig pcfg;
    pcfg.jobs = kWorkers;
    double sharded_s = 0;
    double busy = 0;
    double wall = 0;
    double stolen = 0;
    for (std::size_t i = 0; i < models.size(); ++i) {
        Span s{&spans, "parallel::explore"};
        parallel::ParallelStats ps;
        const auto t0 = Clock::now();
        const explore::ExploreResult r = parallel::explore(model_build(models[i]), ecfg, pcfg, &ps);
        sharded_s += seconds_since(t0);
        busy += static_cast<double>(ps.busy_ns);
        wall += static_cast<double>(ps.wall_ns) * static_cast<double>(ps.workers);
        stolen += static_cast<double>(ps.tasks_stolen);
        rep.check(result_json(r) == serial_json[i],
                  "traced sharded explore is byte-identical to serial");
    }
    out.timed("parallel.utilization", per(busy, wall), "ratio");
    out.timed("parallel.tasks_stolen", stolen, "count");
    out.timed("parallel.speedup", explore_s / sharded_s, "ratio");

    // Fault campaign with CSV cost.
    double csv_s = 0;
    double csv_bytes = 0;
    fault::CampaignResult camp;
    {
        Span s{&spans, "fault::run_campaign"};
        camp = fault::run_campaign(
            campaign_plan(),
            fault::CampaignConfig{campaign_first_seed(opt.seed), kTraceCampaignRuns},
            campaign_runner(&spans, &csv_s, &csv_bytes));
    }
    const double runs = static_cast<double>(camp.runs.size());
    out.timed("trace.csv_us_per_run", 1e6 * csv_s / runs, "us");
    out.exact("trace.csv_bytes_per_run", csv_bytes / runs, "bytes");
    out.exact("fault.injections_per_run",
              per(static_cast<double>(camp.total_injections()), runs), "count");

    // Mapping sweep, plus elaboration of each candidate on its own.
    const Sweep sweep = make_sweep(opt.seed, kTraceSweepFrames);
    {
        Span s{&spans, "sys::run_sweep"};
        const sys::SweepResult sw = sys::run_sweep(sweep.app, sweep.platform,
                                                   sweep.candidates, sweep.cfg, sweep.setup);
        rep.check(sw.candidates.size() == sweep.candidates.size(), "traced sweep ran");
    }
    double elaborate_s = 0;
    for (const sys::MappingSpec& m : sweep.candidates) {
        Span s{&spans, "sys::System"};
        const auto t0 = Clock::now();
        sys::System system{sweep.app, sweep.platform, m, sweep.cfg.options};
        elaborate_s += seconds_since(t0);
    }
    out.timed("sys.elaborate_us_per_candidate",
              1e6 * elaborate_s / static_cast<double>(sweep.candidates.size()), "us");
}

}  // namespace perfbench
