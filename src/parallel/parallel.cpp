#include "parallel/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "parallel/deque.hpp"

namespace slm::parallel {

namespace {

// ---- cache key construction ----

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffU;
        h *= kFnvPrime;
    }
}

void mix(std::uint64_t& h, const std::string& s) {
    mix(h, s.size());
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t explore_config_digest(const explore::ExploreConfig& cfg) {
    std::uint64_t h = kFnvOffset;
    mix(h, static_cast<std::uint64_t>(cfg.preemption_bound));
    mix(h, cfg.max_choices_per_run);
    mix(h, cfg.horizon.ns());
    mix(h, (cfg.check_deadlock ? 1U : 0U) | (cfg.check_lost_signals ? 2U : 0U) |
               (cfg.check_deadline_misses ? 4U : 0U));
    return h;
}

std::uint64_t fault_plan_digest(const fault::FaultPlan& plan) {
    std::uint64_t h = kFnvOffset;
    mix(h, plan.seed);
    mix(h, plan.specs.size());
    for (const fault::FaultSpec& s : plan.specs) {
        mix(h, static_cast<std::uint64_t>(s.kind));
        mix(h, s.target);
        mix(h, std::bit_cast<std::uint64_t>(s.factor));
        mix(h, s.amount.ns());
        mix(h, std::bit_cast<std::uint64_t>(s.probability));
        mix(h, s.after.ns());
        mix(h, s.until.ns());
        mix(h, s.extra);
        mix(h, s.at.has_value() ? s.at->ns() : ~std::uint64_t{0});
        mix(h, s.at.has_value() ? 1U : 0U);
    }
    return h;
}

std::string plan_to_string(const std::vector<std::uint32_t>& plan) {
    explore::Schedule s;
    s.choices = plan;
    return s.to_string();
}

// ---- the exploration engine ----

using Clock = std::chrono::steady_clock;

std::uint64_t since_ns(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
}

unsigned resolve_jobs(unsigned requested) {
    if (requested != 0) {
        return requested;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/// One failing path, trace-free: enough to merge the violation list and to
/// identify (and if necessary re-simulate) the first failure.
struct FailRecord {
    std::vector<std::uint32_t> choices;
    std::vector<explore::Violation> violations;
};

struct ExploreWorker {
    unsigned id = 0;
    WorkDeque<std::vector<std::uint32_t>> deque;
    explore::ExploreStats stats;
    std::vector<FailRecord> fails;
    /// Lexicographically smallest failing path this worker simulated *live*
    /// (cache hits carry no trace, so they are never kept here).
    std::optional<explore::PathResult> min_fail;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t busy_ns = 0;
};

class ExploreEngine {
public:
    ExploreEngine(const explore::Explorer::BuildFn& build,
                  const explore::ExploreConfig& cfg, const ParallelConfig& pcfg)
        : build_(build), cfg_(cfg), pcfg_(pcfg) {
        if (pcfg_.cache != nullptr) {
            key_prefix_ = "x/" + pcfg_.model_fingerprint + '/' +
                          hex64(explore_config_digest(cfg_)) + '/';
        }
    }

    explore::ExploreResult run(unsigned jobs, ParallelStats* stats_out) {
        const auto wall0 = Clock::now();
        workers_.reserve(jobs);
        for (unsigned i = 0; i < jobs; ++i) {
            workers_.push_back(std::make_unique<ExploreWorker>());
            workers_.back()->id = i;
        }
        // The root work item: the empty prefix, i.e. the whole bounded space.
        in_flight_.store(1, std::memory_order_seq_cst);
        workers_[0]->deque.push({});

        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (unsigned i = 0; i < jobs; ++i) {
            threads.emplace_back([this, i] { worker_main(*workers_[i]); });
        }
        for (std::thread& t : threads) {
            t.join();
        }
        explore::ExploreResult res = merge();
        if (stats_out != nullptr) {
            fill_stats(*stats_out, jobs, since_ns(wall0));
        }
        return res;
    }

private:
    void worker_main(ExploreWorker& w) {
        explore::Explorer ex(build_, cfg_);
        std::vector<std::uint32_t> plan;
        for (;;) {
            if (acquire(w, plan)) {
                const auto t0 = Clock::now();
                process(w, ex, plan);
                w.busy_ns += since_ns(t0);
                in_flight_.fetch_sub(1, std::memory_order_seq_cst);
                continue;
            }
            if (in_flight_.load(std::memory_order_seq_cst) == 0) {
                return;
            }
            std::this_thread::yield();
        }
    }

    bool acquire(ExploreWorker& w, std::vector<std::uint32_t>& plan) {
        if (w.deque.pop(plan)) {
            return true;
        }
        const std::size_t n = workers_.size();
        for (std::size_t k = 1; k < n; ++k) {
            if (workers_[(w.id + k) % n]->deque.steal(plan)) {
                ++w.stolen;
                return true;
            }
        }
        return false;
    }

    void process(ExploreWorker& w, explore::Explorer& ex,
                 const std::vector<std::uint32_t>& plan) {
        ++w.executed;
        // Path budget: serial explore() stops before running path #max_paths.
        // Which paths fit into the budget depends on execution order, so a
        // capped parallel run is NOT equivalent to a capped serial run (the
        // documented carve-out from the determinism contract).
        const std::uint64_t ticket =
            path_tickets_.fetch_add(1, std::memory_order_seq_cst);
        if (ticket >= cfg_.max_paths) {
            budget_hit_.store(true, std::memory_order_seq_cst);
            return;
        }

        CachedExpansion ce;
        bool from_cache = false;
        std::string key;
        if (pcfg_.cache != nullptr) {
            key = key_prefix_ + plan_to_string(plan);
            from_cache = pcfg_.cache->lookup(key, ce);
            ++(from_cache ? w.cache_hits : w.cache_misses);
        }
        if (!from_cache) {
            explore::Explorer::Expansion e = ex.expand(plan);
            ce.decisions = std::move(e.decisions);
            ce.violations = e.path.violations;
            ce.end_time = e.path.end_time;
            ce.more_timed = e.path.more_timed;
            ce.truncated = e.path.truncated;
            ce.diverged = e.path.diverged;
            if (!e.path.violations.empty() &&
                (!w.min_fail.has_value() ||
                 e.path.schedule.choices < w.min_fail->schedule.choices)) {
                w.min_fail = std::move(e.path);
            }
            if (pcfg_.cache != nullptr) {
                pcfg_.cache->store(key, ce);
            }
        }

        // Stat deltas exactly as the serial run_path() would have counted.
        ++w.stats.paths;
        w.stats.choice_points += ce.decisions.size();
        w.stats.max_depth =
            std::max<std::uint64_t>(w.stats.max_depth, ce.decisions.size());
        if (ce.truncated) {
            ++w.stats.truncated;
        }

        if (!ce.violations.empty()) {
            FailRecord fr;
            fr.choices.reserve(ce.decisions.size());
            for (const explore::Explorer::Decision& d : ce.decisions) {
                fr.choices.push_back(d.chosen);
            }
            fr.violations = ce.violations;
            w.fails.push_back(std::move(fr));
        }

        spawn_children(w, plan, ce.decisions);
    }

    /// Prefix-sharding invariant (docs/parallel-exploration.md): the subtree
    /// of a work item `plan` (frozen = plan.size()) is its default-completion
    /// path plus, for every later position i and non-default choice c, the
    /// disjoint subtree rooted at plan ++ 0^(i-frozen) ++ [c]. Every child
    /// adds exactly one divergence over this path, so the preemption bound
    /// admits all of them or none — and the pruned tally for the "none" case
    /// (count-1 per position, the chosen entry being the default) is exactly
    /// what serial next_plan() accumulates across its backtracks.
    void spawn_children(ExploreWorker& w, const std::vector<std::uint32_t>& plan,
                        const std::vector<explore::Explorer::Decision>& d) {
        std::uint64_t divergences = 0;
        for (const explore::Explorer::Decision& dec : d) {
            divergences += dec.chosen != 0 ? 1 : 0;
        }
        if (divergences + 1 > static_cast<std::uint64_t>(cfg_.preemption_bound)) {
            for (std::size_t i = plan.size(); i < d.size(); ++i) {
                w.stats.pruned += d[i].count - 1;
            }
            return;
        }
        // d[j].chosen == plan[j] for j < frozen and 0 after (default
        // completion), so every child is plan ++ 0^(i-frozen) ++ [c].
        std::vector<std::uint32_t> child(plan);
        for (std::size_t i = plan.size(); i < d.size(); ++i) {
            child.push_back(0);
            for (std::uint32_t c = 1; c < d[i].count; ++c) {
                child[i] = c;
                in_flight_.fetch_add(1, std::memory_order_seq_cst);
                w.deque.push(child);
            }
            child[i] = 0;
        }
    }

    explore::ExploreResult merge() {
        explore::ExploreResult res;
        std::vector<const FailRecord*> fails;
        for (const auto& w : workers_) {
            res.stats.paths += w->stats.paths;
            res.stats.choice_points += w->stats.choice_points;
            res.stats.pruned += w->stats.pruned;
            res.stats.truncated += w->stats.truncated;
            res.stats.max_depth =
                std::max(res.stats.max_depth, w->stats.max_depth);
            for (const FailRecord& fr : w->fails) {
                fails.push_back(&fr);
            }
        }
        res.exhausted = !budget_hit_.load(std::memory_order_seq_cst);

        // Deterministic merge: distinct paths never share a decision trace,
        // so sorting by trace reproduces the serial engine's lexicographic
        // emission order regardless of which worker ran what when.
        std::sort(fails.begin(), fails.end(),
                  [](const FailRecord* a, const FailRecord* b) {
                      return a->choices < b->choices;
                  });
        for (const FailRecord* fr : fails) {
            for (const explore::Violation& v : fr->violations) {
                if (res.violations.size() >= cfg_.max_violations) {
                    break;
                }
                res.violations.push_back(v);
            }
        }
        // Serial explore() stops as soon as the violation cap fills, so it
        // never marks a capped space exhausted.
        if (!fails.empty() && res.violations.size() >= cfg_.max_violations) {
            res.exhausted = false;
        }

        if (!fails.empty()) {
            const std::vector<std::uint32_t>& first = fails.front()->choices;
            for (auto& w : workers_) {
                if (w->min_fail.has_value() &&
                    w->min_fail->schedule.choices == first) {
                    res.first_failure = std::move(w->min_fail);
                    break;
                }
            }
            if (!res.first_failure.has_value()) {
                // The first failure was served from the cache (trace-free):
                // re-simulate it. Replay is deterministic, so the regenerated
                // trace is byte-identical to what a cold run produced.
                ++first_failure_replays_;
                explore::Explorer ex(build_, cfg_);
                explore::Schedule s;
                s.choices = first;
                res.first_failure = ex.replay(s);
            }
        }
        return res;
    }

    void fill_stats(ParallelStats& out, unsigned jobs, std::uint64_t wall_ns) {
        out = ParallelStats{};
        out.workers = jobs;
        out.wall_ns = wall_ns;
        out.first_failure_replays = first_failure_replays_;
        for (const auto& w : workers_) {
            out.tasks_executed += w->executed;
            out.tasks_stolen += w->stolen;
            out.cache_hits += w->cache_hits;
            out.cache_misses += w->cache_misses;
            out.busy_ns += w->busy_ns;
        }
    }

    const explore::Explorer::BuildFn& build_;
    explore::ExploreConfig cfg_;
    ParallelConfig pcfg_;
    std::string key_prefix_;
    std::vector<std::unique_ptr<ExploreWorker>> workers_;
    std::atomic<std::uint64_t> in_flight_{0};
    std::atomic<std::uint64_t> path_tickets_{0};
    std::atomic<bool> budget_hit_{false};
    std::uint64_t first_failure_replays_ = 0;
};

// ---- the index pool (campaigns, sweeps, soaks) ----

struct IndexWorker {
    unsigned id = 0;
    WorkDeque<std::size_t> deque;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t busy_ns = 0;
};

}  // namespace

std::string expansion_cache_key(const std::string& fingerprint,
                                const explore::ExploreConfig& cfg,
                                const std::vector<std::uint32_t>& plan) {
    return "x/" + fingerprint + '/' + hex64(explore_config_digest(cfg)) + '/' +
           plan_to_string(plan);
}

std::string campaign_cache_key(const std::string& fingerprint,
                               const fault::FaultPlan& plan, std::uint64_t seed) {
    return "c/" + fingerprint + '/' + hex64(fault_plan_digest(plan)) + '/' +
           std::to_string(seed);
}

explore::ExploreResult explore(const explore::Explorer::BuildFn& build,
                               const explore::ExploreConfig& cfg,
                               const ParallelConfig& pcfg,
                               ParallelStats* stats_out) {
    ExploreEngine engine(build, cfg, pcfg);
    return engine.run(resolve_jobs(pcfg.jobs), stats_out);
}

fault::CampaignResult run_campaign(const fault::FaultPlan& plan,
                                   const fault::CampaignConfig& cfg,
                                   const fault::CampaignRunFn& fn,
                                   const ParallelConfig& pcfg,
                                   ParallelStats* stats_out) {
    fault::CampaignResult res;
    res.runs.resize(cfg.runs);
    const std::string key_mid =
        pcfg.cache != nullptr
            ? "c/" + pcfg.model_fingerprint + '/' + hex64(fault_plan_digest(plan)) + '/'
            : std::string{};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};

    // One pool item per seed; each run lands in its own seed-ordered slot.
    for_each_index(
        cfg.runs, pcfg.jobs,
        [&](std::size_t idx) {
            const std::uint64_t seed = cfg.first_seed + idx;
            fault::CampaignRun run;
            bool from_cache = false;
            std::string key;
            if (pcfg.cache != nullptr) {
                key = key_mid + std::to_string(seed);
                from_cache = pcfg.cache->lookup(key, run);
                ++(from_cache ? cache_hits : cache_misses);
            }
            if (!from_cache) {
                fault::FaultInjector inj(plan, seed);
                fn(inj, run);
                run.seed = seed;  // driver-owned fields, set last (same
                run.injections = inj.stats().total();  // contract as serial)
                if (pcfg.cache != nullptr) {
                    pcfg.cache->store(key, run);
                }
            }
            res.runs[idx] = std::move(run);  // disjoint slots: no lock needed
        },
        stats_out);

    if (stats_out != nullptr) {
        stats_out->cache_hits = cache_hits.load();
        stats_out->cache_misses = cache_misses.load();
    }
    return res;
}

void for_each_index(std::size_t count, unsigned jobs,
                    const std::function<void(std::size_t)>& fn,
                    ParallelStats* stats_out) {
    const auto wall0 = Clock::now();
    const unsigned n_workers = resolve_jobs(jobs);

    if (n_workers == 1) {
        // Serial fast path: no pool, no atomics — the byte-identity contract
        // is trivially met because there is nothing to merge.
        std::uint64_t busy = 0;
        for (std::size_t i = 0; i < count; ++i) {
            const auto t0 = Clock::now();
            fn(i);
            busy += since_ns(t0);
        }
        if (stats_out != nullptr) {
            *stats_out = ParallelStats{};
            stats_out->workers = 1;
            stats_out->tasks_executed = count;
            stats_out->busy_ns = busy;
            stats_out->wall_ns = since_ns(wall0);
        }
        return;
    }

    std::vector<std::unique_ptr<IndexWorker>> workers;
    workers.reserve(n_workers);
    for (unsigned i = 0; i < n_workers; ++i) {
        workers.push_back(std::make_unique<IndexWorker>());
        workers.back()->id = i;
    }
    std::atomic<std::uint64_t> in_flight{count};
    for (std::size_t i = 0; i < count; ++i) {
        workers[i % n_workers]->deque.push(i);
    }

    const auto worker_main = [&](IndexWorker& w) {
        std::size_t idx = 0;
        const auto acquire = [&]() {
            if (w.deque.pop(idx)) {
                return true;
            }
            for (std::size_t k = 1; k < workers.size(); ++k) {
                if (workers[(w.id + k) % workers.size()]->deque.steal(idx)) {
                    ++w.stolen;
                    return true;
                }
            }
            return false;
        };
        for (;;) {
            if (!acquire()) {
                if (in_flight.load(std::memory_order_seq_cst) == 0) {
                    return;
                }
                std::this_thread::yield();
                continue;
            }
            const auto t0 = Clock::now();
            ++w.executed;
            fn(idx);
            w.busy_ns += since_ns(t0);
            in_flight.fetch_sub(1, std::memory_order_seq_cst);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(n_workers);
    for (unsigned i = 0; i < n_workers; ++i) {
        threads.emplace_back([&, i] { worker_main(*workers[i]); });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    if (stats_out != nullptr) {
        *stats_out = ParallelStats{};
        stats_out->workers = n_workers;
        stats_out->wall_ns = since_ns(wall0);
        for (const auto& w : workers) {
            stats_out->tasks_executed += w->executed;
            stats_out->tasks_stolen += w->stolen;
            stats_out->busy_ns += w->busy_ns;
        }
    }
}

void register_parallel_stats(obs::Registry& reg, const ParallelStats& s,
                             obs::Labels base) {
    const auto gauge = [&](const char* name, const char* help, auto getter) {
        reg.gauge_fn(name, help, [&s, getter] { return getter(s); }, base);
    };
    gauge("slm_parallel_workers", "Worker threads of the last parallel run",
          [](const ParallelStats& st) { return static_cast<double>(st.workers); });
    gauge("slm_parallel_tasks_executed_total",
          "Work items processed (plan prefixes or campaign seeds)",
          [](const ParallelStats& st) {
              return static_cast<double>(st.tasks_executed);
          });
    gauge("slm_parallel_tasks_stolen_total",
          "Work items taken from another worker's deque",
          [](const ParallelStats& st) { return static_cast<double>(st.tasks_stolen); });
    gauge("slm_parallel_cache_hits_total", "Result-cache hits",
          [](const ParallelStats& st) { return static_cast<double>(st.cache_hits); });
    gauge("slm_parallel_cache_misses_total", "Result-cache misses",
          [](const ParallelStats& st) { return static_cast<double>(st.cache_misses); });
    gauge("slm_parallel_first_failure_replays_total",
          "Cached first failures re-simulated for their trace",
          [](const ParallelStats& st) {
              return static_cast<double>(st.first_failure_replays);
          });
    gauge("slm_parallel_busy_ns_total", "Summed per-worker busy time",
          [](const ParallelStats& st) { return static_cast<double>(st.busy_ns); });
    gauge("slm_parallel_wall_ns", "Pool wall-clock time",
          [](const ParallelStats& st) { return static_cast<double>(st.wall_ns); });
    gauge("slm_parallel_utilization",
          "busy / (workers * wall): 1.0 = every worker always fed",
          [](const ParallelStats& st) { return st.utilization(); });
}

}  // namespace slm::parallel
