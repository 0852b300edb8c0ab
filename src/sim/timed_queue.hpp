#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace slm::sim {

class Process;

/// One entry of the kernel's timed queue: a process's wakeup (embedded in its
/// Process) or a post_at timer (embedded in its timer slot). The queue links
/// to entries and knows where each one sits, so an owner can remove its entry
/// in O(log n) the moment it stops being wanted.
struct TimedEntry {
    static constexpr std::uint32_t kIdle = std::numeric_limits<std::uint32_t>::max();
    /// Armed, but held out of the queue: a blocking process's wakeup while
    /// the dispatch step decides whether anything must run before it, or a
    /// timer set aside until the next advance.
    static constexpr std::uint32_t kHeld = kIdle - 1;
    /// Set in `order` for process wakeups: a timer sorts before every wakeup
    /// at the same instant; within each kind the posting sequence decides.
    static constexpr std::uint64_t kWakeupBit = std::uint64_t{1} << 63;

    SimTime t{};
    std::uint64_t order = 0;        ///< kWakeupBit for wakeups, | posting sequence
    std::uint32_t pos = kIdle;      ///< heap index, kHeld, or kIdle
    std::uint32_t timer_slot = 0;   ///< the owning timer slot (timers only)
    Process* proc = nullptr;        ///< the owning process, null for a timer

    [[nodiscard]] bool armed() const { return pos != kIdle; }
    [[nodiscard]] bool queued() const { return pos < kHeld; }
};

/// Indexed 4-ary min-heap of intrusive entries ordered by (t, order). Each
/// entry records its heap index, so erase() needs no search and no stale
/// entries ever wait to be skimmed. The heap keeps a copy of each entry's
/// key next to the link, so sifting compares within the array and touches
/// an entry only to update its index; four children per node halve the
/// depth, and so the entries re-indexed per operation, of a deep queue.
class TimedQueue {
public:
    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] TimedEntry& top() const { return *heap_.front().e; }

    void push(TimedEntry& e) {
        if (heap_.capacity() == 0) {
            heap_.reserve(kFirstCapacity);  // one allocation for a small model
        }
        heap_.emplace_back();
        sift_up(static_cast<std::uint32_t>(heap_.size() - 1), Node{e.t, e.order, &e});
    }

    /// Remove `e` (which must be queued) and mark it idle.
    void erase(TimedEntry& e) {
        const std::uint32_t i = e.pos;
        const Node last = heap_.back();
        heap_.pop_back();
        e.pos = TimedEntry::kIdle;
        if (last.e == &e) {
            return;
        }
        if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
            sift_up(i, last);
        } else {
            sift_down(i, last);
        }
    }

private:
    struct Node {
        SimTime t;
        std::uint64_t order;
        TimedEntry* e;
    };
    static constexpr std::size_t kFirstCapacity = 16;
    static constexpr std::uint32_t kArity = 4;

    static bool before(const Node& a, const Node& b) {
        return a.t != b.t ? a.t < b.t : a.order < b.order;
    }

    void place(const Node& n, std::uint32_t i) {
        heap_[i] = n;
        n.e->pos = i;
    }

    /// Settle `n` at or above the free slot `i`.
    void sift_up(std::uint32_t i, const Node& n) {
        while (i > 0) {
            const std::uint32_t parent = (i - 1) / kArity;
            if (!before(n, heap_[parent])) {
                break;
            }
            place(heap_[parent], i);
            i = parent;
        }
        place(n, i);
    }

    /// Settle `n` at or below the free slot `i`.
    void sift_down(std::uint32_t i, const Node& n) {
        const auto size = static_cast<std::uint32_t>(heap_.size());
        for (;;) {
            const std::uint32_t first = kArity * i + 1;
            if (first >= size) {
                break;
            }
            std::uint32_t child = first;
            const std::uint32_t end = std::min(first + kArity, size);
            for (std::uint32_t c = first + 1; c < end; ++c) {
                if (before(heap_[c], heap_[child])) {
                    child = c;
                }
            }
            if (!before(heap_[child], n)) {
                break;
            }
            place(heap_[child], i);
            i = child;
        }
        place(n, i);
    }

    std::vector<Node> heap_;
};

}  // namespace slm::sim
