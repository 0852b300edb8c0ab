#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/assert.hpp"

namespace slm::trace {

/// The interning machinery of the fixed-width recorders (trace::TraceRecorder,
/// obs::SpanRecorder): append-only record storage in stable chunks, and a
/// deduplicating string table with a direct-mapped lookup cache. Neither
/// allocates before its first append or intern, so an unused recorder costs
/// no allocation (the explorer builds one per path).

/// Append-only fixed-width record storage in chunks that double in size, the
/// first holding 2^Shift records: appends never reallocate-and-copy (the
/// dominant cost of a growing vector at trace sizes), a short trace costs one
/// small chunk, and element addresses are stable — so a recorder may patch
/// an earlier record in place (SpanRecorder closes spans that way).
template <typename Rec, unsigned Shift = 6>
class RecordLog {
public:
    RecordLog() = default;
    RecordLog(RecordLog&& o) noexcept { *this = std::move(o); }
    RecordLog& operator=(RecordLog&& o) noexcept {
        chunks_ = std::exchange(o.chunks_, {});
        tail_ = std::exchange(o.tail_, nullptr);
        tail_end_ = std::exchange(o.tail_end_, nullptr);
        size_ = std::exchange(o.size_, 0);
        return *this;
    }

    /// Append and return the record's index.
    std::size_t append(Rec r) {
        if (tail_ == tail_end_) {
            grow();
        }
        *tail_++ = std::move(r);
        return size_++;
    }

    [[nodiscard]] const Rec& operator[](std::size_t i) const { return *slot(i); }
    /// Mutable access for in-place patching of an already-appended record.
    [[nodiscard]] Rec& at(std::size_t i) { return *slot(i); }

    [[nodiscard]] std::size_t size() const { return size_; }

    /// Visit every record in append order.
    template <typename F>
    void for_each(F&& f) const {
        for (std::size_t i = 0; i < size_; ++i) {
            f(*slot(i));
        }
    }

    void clear() { *this = RecordLog{}; }

private:
    static constexpr std::size_t kFirst = std::size_t{1} << Shift;

    /// Chunk k holds indices [kFirst * (2^k - 1), kFirst * (2^(k+1) - 1)), so
    /// in i + kFirst the top bit names the chunk and the rest is the offset.
    [[nodiscard]] Rec* slot(std::size_t i) const {
        const std::size_t j = i + kFirst;
        const int top = std::bit_width(j) - 1;
        return chunks_[static_cast<std::size_t>(top) - Shift].get() +
               (j - (std::size_t{1} << top));
    }

    void grow() {
        const std::size_t n = kFirst << chunks_.size();
        // for_overwrite: skip zero-initialization — every slot is written
        // before it is ever read (size_ gates all reads).
        chunks_.push_back(std::make_unique_for_overwrite<Rec[]>(n));
        tail_ = chunks_.back().get();
        tail_end_ = tail_ + n;
    }

    std::vector<std::unique_ptr<Rec[]>> chunks_;
    Rec* tail_ = nullptr;      ///< next write position in the last chunk
    Rec* tail_end_ = nullptr;  ///< end of the last chunk
    std::size_t size_ = 0;
};

/// Deduplicating string table: string -> dense 32-bit id, id 0 always the
/// empty string. A direct-mapped cache in front of the map is indexed by a
/// hash of the string_view's *pointer*: callers pass views of long-lived
/// std::strings (task names, cpu names), so the same pointer recurs on the
/// hot path. A hit is *verified* by comparing the incoming bytes against the
/// interned string's bytes (which live in stable RecordLog storage), so a
/// reused pointer or a colliding slot degrades to a map lookup, never to a
/// wrong id. Distinct ids always name distinct strings.
class StringTable {
public:
    [[nodiscard]] std::uint32_t intern(std::string_view s) {
        if (s.empty()) {
            return 0;
        }
        auto h = reinterpret_cast<std::uintptr_t>(s.data());
        h ^= (h >> 4) ^ (h >> 11);
        CacheSlot& slot = cache_[h & (kCacheSize - 1)];
        // Verify by content, not by pointer: the slot only *suggests* an id.
        if (slot.size == s.size() && slot.data != nullptr &&
            std::memcmp(slot.data, s.data(), s.size()) == 0) {
            return slot.id;
        }
        std::uint32_t id;
        if (const auto it = ids_.find(s); it != ids_.end()) {
            id = it->second;
        } else {
            id = static_cast<std::uint32_t>(count());
            const std::string& stored = strings_[strings_.append(std::string(s))];
            ids_.emplace(std::string_view{stored}, id);
        }
        slot = CacheSlot{str(id).data(), static_cast<std::uint32_t>(s.size()), id};
        return id;
    }

    /// The id of an already-interned string, without interning it.
    [[nodiscard]] std::optional<std::uint32_t> find(std::string_view s) const {
        if (s.empty()) {
            return 0;
        }
        const auto it = ids_.find(s);
        return it == ids_.end() ? std::nullopt : std::optional{it->second};
    }

    /// The interned string for `id` (asserts on out-of-range ids).
    [[nodiscard]] const std::string& str(std::uint32_t id) const {
        SLM_ASSERT(id < count(), "string id out of range");
        return id == 0 ? kEmpty : strings_[id - 1];
    }

    /// Number of ids in use, the empty string's included.
    [[nodiscard]] std::size_t count() const { return strings_.size() + 1; }

    void clear() {
        strings_.clear();
        ids_.clear();
        std::fill(std::begin(cache_), std::end(cache_), CacheSlot{});
    }

private:
    struct CacheSlot {
        const char* data = nullptr;  ///< interned bytes (not the caller's)
        std::uint32_t size = 0;
        std::uint32_t id = 0;
    };
    static constexpr std::size_t kCacheSize = 256;  // power of two
    static inline const std::string kEmpty;

    RecordLog<std::string, 4> strings_;  ///< stable storage; index == id - 1
    std::unordered_map<std::string_view, std::uint32_t> ids_;
    /// Inline (4 KiB), not heap-allocated on first use: the hot path then
    /// reads the slots without loading a pointer first.
    CacheSlot cache_[kCacheSize] = {};
};

}  // namespace slm::trace
