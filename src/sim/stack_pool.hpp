#pragma once

#include <cstddef>
#include <cstdint>

namespace slm::sim {

/// A coroutine stack handed out by StackPool. Plain value handle; ownership is
/// returned with StackPool::release(), on any thread.
struct StackBlock {
    std::byte* base = nullptr;  ///< lowest usable byte, suitably aligned
    std::size_t size = 0;       ///< usable bytes
    void* map = nullptr;        ///< mmap base
    std::size_t map_len = 0;    ///< mmap length
    bool guarded = false;       ///< has a PROT_NONE guard page below `base`

    [[nodiscard]] explicit operator bool() const { return base != nullptr; }
};

/// The calling thread's cache of coroutine stacks. Stacks are recycled by
/// power-of-two size class, so process churn, and a run rebuilt from t=0 on
/// a fresh Kernel, costs a free-list pop instead of mapping a 256 KiB stack
/// per spawn. Guarded stacks (a PROT_NONE page below the usable range turns
/// a stack overflow into an immediate fault) and plain stacks sit on
/// separate lists, so a kernel gets the kind it asked for. The cache keeps at
/// most kMaxCachedBytes: a released stack that does not fit displaces cached
/// stacks of other kinds and sizes, or is freed when its own list fills the
/// cache. Release may happen on any thread (the stack joins that thread's
/// cache), and after the thread's cache was destroyed at thread exit (the
/// stack is freed).
class StackPool {
public:
    /// Smallest size class; requests are rounded up to a power of two >= this.
    static constexpr std::size_t kMinClass = 16 * 1024;
    /// Most stack bytes one thread's cache keeps (64 default-size stacks).
    static constexpr std::size_t kMaxCachedBytes = 16u * 1024 * 1024;

    StackPool() = delete;

    struct Acquired {
        StackBlock block;       ///< empty only when a guarded allocation failed
        bool recycled = false;  ///< served from the cache, not freshly allocated
    };

    /// A stack of at least `min_size` usable bytes (rounded up to its class),
    /// guarded or plain as asked. A guarded request whose mmap or mprotect
    /// fails (vm.max_map_count exhaustion, a locked-down seccomp profile)
    /// returns an empty block instead of asserting, so the caller can fall
    /// back to a plain stack; a plain one throws std::bad_alloc.
    [[nodiscard]] static Acquired acquire(std::size_t min_size, bool guarded);

    /// Return a stack to the calling thread's cache, or free it when stacks of
    /// its own kind and size fill the cache or the cache is already destroyed.
    static void release(StackBlock blk);

    [[nodiscard]] static std::size_t round_to_class(std::size_t size);

    /// Test seam: bytes of guarded or of plain stacks the calling thread's
    /// cache holds right now.
    [[nodiscard]] static std::size_t cached_bytes_for_testing(bool guarded);

    /// Test seam: make guard-page allocation fail as if mmap/mprotect had
    /// errored, exercising the unguarded-fallback path. Process-wide;
    /// switching it on also frees the calling thread's cached guarded stacks,
    /// so the next guarded acquire really allocates.
    static void force_guard_failure_for_testing(bool on);
};

}  // namespace slm::sim
