#include "sim/stack_pool.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <new>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "sim/assert.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SLM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SLM_ASAN 1
#endif
#endif
#ifndef SLM_ASAN
#define SLM_ASAN 0
#endif

#if SLM_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace slm::sim {

namespace {

std::size_t page_size() {
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

std::atomic<bool> g_force_guard_failure{false};

/// A fresh stack from mmap, guarded or plain. Plain stacks come from mmap
/// too, not the heap: a cached stack then keeps only the pages its users
/// touched, and freeing it returns them to the system instead of leaving a
/// hole in the heap. Returns an empty block (does not assert) when mmap or
/// mprotect fails — e.g. vm.max_map_count exhaustion or a locked-down seccomp
/// profile — so the caller can fall back to a plain stack or report it.
StackBlock map_stack(std::size_t size, bool guarded) {
    if (guarded && g_force_guard_failure.load(std::memory_order_relaxed)) {
        return {};
    }
    const std::size_t page = page_size();
    const std::size_t usable = (size + page - 1) / page * page;
    const std::size_t guard = guarded ? page : 0;
    void* m = mmap(nullptr, usable + guard, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) {
        return {};
    }
    // Guard at the low end: stacks grow down, so overrunning the usable range
    // hits PROT_NONE and faults at the overflowing frame.
    if (guarded && mprotect(m, page, PROT_NONE) != 0) {
        munmap(m, usable + guard);
        return {};
    }
    return StackBlock{static_cast<std::byte*>(m) + guard, usable, m, usable + guard, guarded};
}

void free_block(StackBlock& blk) {
    munmap(blk.map, blk.map_len);
    blk = StackBlock{};
}

/// Set when the calling thread's cache was destroyed at thread exit; later
/// releases on this thread then free their stack.
thread_local bool t_cache_dead = false;

/// One thread's cached stacks: free lists indexed by log2(size), one set per
/// kind, and the bytes they hold. Destroyed at thread exit with everything in
/// it.
class ThreadCache {
public:
    ThreadCache() = default;
    ThreadCache(const ThreadCache&) = delete;
    ThreadCache& operator=(const ThreadCache&) = delete;
    ~ThreadCache() {
        drop(false);
        drop(true);
        t_cache_dead = true;
    }

    std::vector<StackBlock>& list(bool guarded, std::size_t size) {
        const auto cls = static_cast<std::size_t>(std::countr_zero(std::bit_ceil(size)));
        return lists(guarded)[cls];
    }

    /// Bytes held on the lists of one kind.
    [[nodiscard]] std::size_t bytes_of(bool guarded) {
        std::size_t n = 0;
        for (const auto& list : lists(guarded)) {
            for (const StackBlock& blk : list) {
                n += blk.size;
            }
        }
        return n;
    }

    /// Make `blk` fit under the cap by freeing cached stacks of other kinds
    /// and sizes: what the thread releases now displaces what it used before.
    /// False when it cannot fit even so.
    bool make_room(const StackBlock& blk) {
        const auto fits = [&] { return bytes + blk.size <= StackPool::kMaxCachedBytes; };
        if (fits()) {
            return true;
        }
        const std::vector<StackBlock>* own = &list(blk.guarded, blk.size);
        for (bool guarded : {false, true}) {
            for (auto& other : lists(guarded)) {
                while (!fits() && &other != own && !other.empty()) {
                    bytes -= other.back().size;
                    free_block(other.back());
                    other.pop_back();
                }
            }
        }
        return fits();
    }

    /// Free every cached stack of one kind.
    void drop(bool guarded) {
        for (auto& list : lists(guarded)) {
            for (StackBlock& blk : list) {
                bytes -= blk.size;
                free_block(blk);
            }
            list.clear();
        }
    }

    std::size_t bytes = 0;  ///< held on all lists; at most StackPool::kMaxCachedBytes

private:
    using Lists = std::array<std::vector<StackBlock>, sizeof(std::size_t) * 8>;
    Lists& lists(bool guarded) { return guarded ? guarded_ : plain_; }

    Lists plain_;
    Lists guarded_;
};

/// The calling thread's cache, or nullptr once it was destroyed at thread
/// exit (a kernel outliving it, e.g. in another thread_local or a static).
ThreadCache* thread_cache() {
    if (t_cache_dead) {
        return nullptr;
    }
    thread_local ThreadCache cache;
    return &cache;
}

}  // namespace

void StackPool::force_guard_failure_for_testing(bool on) {
    g_force_guard_failure.store(on, std::memory_order_relaxed);
    if (ThreadCache* c = on ? thread_cache() : nullptr) {
        c->drop(/*guarded=*/true);  // the next guarded acquire must allocate
    }
}

std::size_t StackPool::cached_bytes_for_testing(bool guarded) {
    ThreadCache* c = thread_cache();
    return c != nullptr ? c->bytes_of(guarded) : 0;
}

std::size_t StackPool::round_to_class(std::size_t size) {
    if (size < kMinClass) {
        size = kMinClass;
    }
    return std::bit_ceil(size);
}

StackPool::Acquired StackPool::acquire(std::size_t min_size, bool guarded) {
    const std::size_t size = round_to_class(min_size);
    if (ThreadCache* c = thread_cache()) {
        auto& list = c->list(guarded, size);
        if (!list.empty()) {
            const StackBlock blk = list.back();
            list.pop_back();
            c->bytes -= blk.size;
            return {blk, true};
        }
    }
    const StackBlock blk = map_stack(size, guarded);
    if (!blk && !guarded) {
        throw std::bad_alloc{};
    }
    return {blk, false};
}

void StackPool::release(StackBlock blk) {
    SLM_ASSERT(blk.base != nullptr, "release() of an empty StackBlock");
#if SLM_ASAN
    // A recycled stack must present clean shadow to its next owner: frames of
    // the previous process may have left poisoned redzones behind.
    __asan_unpoison_memory_region(blk.base, blk.size);
#endif
    ThreadCache* c = thread_cache();
    if (c == nullptr || !c->make_room(blk)) {
        free_block(blk);
        return;
    }
    c->bytes += blk.size;
    c->list(blk.guarded, blk.size).push_back(blk);
}

}  // namespace slm::sim
