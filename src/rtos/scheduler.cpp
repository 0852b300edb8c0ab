#include "rtos/scheduler.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "rtos/rtos.hpp"
#include "sim/assert.hpp"

namespace slm::rtos {

const char* to_string(SchedPolicy p) {
    switch (p) {
        case SchedPolicy::Fifo: return "FIFO";
        case SchedPolicy::Priority: return "Priority";
        case SchedPolicy::RoundRobin: return "RoundRobin";
        case SchedPolicy::Edf: return "EDF";
        case SchedPolicy::Rms: return "RMS";
    }
    return "?";
}

ReadyLink& ReadyQueue::link(Task& t) {
    return t.rq_link_;
}

namespace {

// ---- ready queues ----

/// FIFO order: arrival_seq is monotone in push order, so a plain deque is
/// already sorted. O(1) push/pop. Key changes (priority boosts) cannot affect
/// FIFO order, so requeue() keeps the task in place.
class FifoQueue final : public ReadyQueue {
public:
    void push(Task* t) override {
        link(*t).queued = true;
        // Monotone arrival_seq makes push_back sorted; policy migration at
        // start() may replay tasks out of arrival order.
        if (q_.empty() || q_.back()->arrival_seq() < t->arrival_seq()) {
            q_.push_back(t);
        } else {
            const auto it = std::upper_bound(
                q_.begin(), q_.end(), t->arrival_seq(),
                [](std::uint64_t seq, const Task* q) { return seq < q->arrival_seq(); });
            q_.insert(it, t);
        }
    }
    Task* peek() const override { return q_.empty() ? nullptr : q_.front(); }
    Task* pop() override {
        SLM_ASSERT(!q_.empty(), "pop() on an empty ready queue");
        Task* t = q_.front();
        q_.pop_front();
        link(*t).queued = false;
        return t;
    }
    void erase(Task* t) override {
        if (link(*t).queued) {
            std::erase(q_, t);
            link(*t).queued = false;
        }
    }
    void requeue(Task*) override {}
    bool empty() const override { return q_.empty(); }
    std::size_t size() const override { return q_.size(); }
    void ties(std::vector<Task*>& out) const override {
        // FIFO's dispatch order is total (arrival_seq is unique): no ties.
        if (!q_.empty()) {
            out.push_back(q_.front());
        }
    }

private:
    std::deque<Task*> q_;
};

/// Priority buckets: one FIFO list per effective priority (smaller =
/// higher), threaded through the tasks' intrusive links in arrival_seq order,
/// over a vector of buckets sorted by priority. Finding a bucket is a binary
/// search over the *distinct* priority levels — effectively O(1) for real
/// task sets — and nothing allocates once a level has been seen: an emptied
/// bucket stays in place, so the vector is bounded by the distinct levels
/// ever queued. The insertion key is remembered in the intrusive link so
/// erase() finds the right bucket even after the task's effective priority
/// changed (requeue() re-inserts under the new key, keeping arrival order
/// within the destination bucket).
class PriorityBucketQueue final : public ReadyQueue {
public:
    void push(Task* t) override {
        const int key = t->effective_priority();
        const std::size_t b = bucket_for(key);
        Bucket& bucket = buckets_[b];
        // Monotone arrival_seq makes appending sorted; a requeue()d task may
        // carry an older seq and belongs further forward, after every task
        // whose seq is not larger.
        Task* after = bucket.tail;
        while (after != nullptr && after->arrival_seq() > t->arrival_seq()) {
            after = link(*after).prev;
        }
        ReadyLink& l = link(*t);
        l.prev = after;
        l.next = after != nullptr ? link(*after).next : bucket.head;
        (l.next != nullptr ? link(*l.next).prev : bucket.tail) = t;
        (after != nullptr ? link(*after).next : bucket.head) = t;
        l.bucket = key;
        l.queued = true;
        ++size_;
        best_ = std::min(best_, b);
    }
    Task* peek() const override {
        return best_ < buckets_.size() ? buckets_[best_].head : nullptr;
    }
    Task* pop() override {
        SLM_ASSERT(size_ != 0, "pop() on an empty ready queue");
        Task* t = buckets_[best_].head;
        unlink(t, best_);
        return t;
    }
    void erase(Task* t) override {
        if (!link(*t).queued) {
            return;
        }
        const auto it = find(link(*t).bucket);
        SLM_ASSERT(it != buckets_.end() && it->key == link(*t).bucket,
                   "ready task lost its priority bucket");
        unlink(t, static_cast<std::size_t>(it - buckets_.begin()));
    }
    void requeue(Task* t) override {
        if (link(*t).queued && link(*t).bucket != t->effective_priority()) {
            erase(t);
            push(t);
        }
    }
    bool empty() const override { return size_ == 0; }
    std::size_t size() const override { return size_; }
    void ties(std::vector<Task*>& out) const override {
        // Every task in the best bucket shares the dispatch key; the list is
        // already in arrival order with pop()'s choice at the head.
        for (Task* t = peek(); t != nullptr; t = link(*t).next) {
            out.push_back(t);
        }
    }

private:
    struct Bucket {
        int key;
        Task* head;
        Task* tail;
    };

    std::vector<Bucket>::iterator find(int key) {
        return std::lower_bound(buckets_.begin(), buckets_.end(), key,
                                [](const Bucket& b, int k) { return b.key < k; });
    }
    /// Index of `key`'s bucket, inserted (empty) in order when first seen.
    std::size_t bucket_for(int key) {
        const auto it = find(key);
        const auto b = static_cast<std::size_t>(it - buckets_.begin());
        if (it == buckets_.end() || it->key != key) {
            buckets_.insert(it, Bucket{key, nullptr, nullptr});
            if (best_ >= b) {
                ++best_;  // the first non-empty bucket moved up one slot
            }
        }
        return b;
    }
    void unlink(Task* t, std::size_t b) {
        Bucket& bucket = buckets_[b];
        ReadyLink& l = link(*t);
        (l.prev != nullptr ? link(*l.prev).next : bucket.head) = l.next;
        (l.next != nullptr ? link(*l.next).prev : bucket.tail) = l.prev;
        l.prev = nullptr;
        l.next = nullptr;
        l.queued = false;
        --size_;
        while (best_ < buckets_.size() && buckets_[best_].head == nullptr) {
            ++best_;
        }
    }

    std::vector<Bucket> buckets_;  ///< sorted by key; never shrinks
    std::size_t best_ = 0;         ///< first non-empty bucket (size() when none)
    std::size_t size_ = 0;
};

/// Binary min-heap keyed by a policy-supplied SimTime (absolute deadline for
/// EDF, period for RMS) with arrival_seq as tie-break. O(log n) push/pop,
/// O(log n) erase via the intrusive heap position.
template <typename KeyFn>
class TimeHeapQueue final : public ReadyQueue {
public:
    explicit TimeHeapQueue(KeyFn key) : key_(key) {}

    void push(Task* t) override {
        link(*t).queued = true;
        link(*t).heap_pos = heap_.size();
        heap_.push_back(t);
        sift_up(heap_.size() - 1);
    }
    Task* peek() const override { return heap_.empty() ? nullptr : heap_.front(); }
    Task* pop() override {
        SLM_ASSERT(!heap_.empty(), "pop() on an empty ready queue");
        Task* t = heap_.front();
        remove_at(0);
        return t;
    }
    void erase(Task* t) override {
        if (link(*t).queued) {
            remove_at(link(*t).heap_pos);
        }
    }
    void requeue(Task* t) override {
        if (link(*t).queued) {
            sift_up(link(*t).heap_pos);
            sift_down(link(*t).heap_pos);
        }
    }
    bool empty() const override { return heap_.empty(); }
    std::size_t size() const override { return heap_.size(); }
    void ties(std::vector<Task*>& out) const override {
        if (heap_.empty()) {
            return;
        }
        // All tasks sharing the minimum key are legal dispatches. The heap
        // array has no useful order among them, so sort by arrival_seq — the
        // heap's own tie-break puts the earliest arrival at the top, so out[0]
        // matches pop().
        const SimTime best = key_(*heap_.front());
        const std::size_t first = out.size();
        for (Task* t : heap_) {
            if (key_(*t) == best) {
                out.push_back(t);
            }
        }
        std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                  [](const Task* a, const Task* b) {
                      return a->arrival_seq() < b->arrival_seq();
                  });
    }

private:
    bool before(const Task* a, const Task* b) const {
        const SimTime ka = key_(*a);
        const SimTime kb = key_(*b);
        if (ka != kb) {
            return ka < kb;
        }
        return a->arrival_seq() < b->arrival_seq();
    }
    void place(Task* t, std::size_t pos) {
        heap_[pos] = t;
        link(*t).heap_pos = pos;
    }
    void sift_up(std::size_t pos) {
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / 2;
            if (!before(heap_[pos], heap_[parent])) {
                break;
            }
            Task* tmp = heap_[pos];
            place(heap_[parent], pos);
            place(tmp, parent);
            pos = parent;
        }
    }
    void sift_down(std::size_t pos) {
        for (;;) {
            std::size_t best = pos;
            const std::size_t l = 2 * pos + 1;
            const std::size_t r = 2 * pos + 2;
            if (l < heap_.size() && before(heap_[l], heap_[best])) {
                best = l;
            }
            if (r < heap_.size() && before(heap_[r], heap_[best])) {
                best = r;
            }
            if (best == pos) {
                return;
            }
            Task* tmp = heap_[pos];
            place(heap_[best], pos);
            place(tmp, best);
            pos = best;
        }
    }
    void remove_at(std::size_t pos) {
        SLM_ASSERT(pos < heap_.size(), "heap position out of range");
        link(*heap_[pos]).queued = false;
        link(*heap_[pos]).heap_pos = ReadyLink::npos;
        Task* last = heap_.back();
        heap_.pop_back();
        if (pos < heap_.size()) {
            place(last, pos);
            sift_down(pos);
            sift_up(link(*last).heap_pos);
        }
    }

    KeyFn key_;
    std::vector<Task*> heap_;
};

template <typename KeyFn>
std::unique_ptr<ReadyQueue> make_time_heap(KeyFn key) {
    return std::make_unique<TimeHeapQueue<KeyFn>>(key);
}

// ---- policies ----

class FifoPolicy final : public SchedulerPolicy {
public:
    const char* name() const override { return "FIFO"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return std::make_unique<FifoQueue>();
    }
    bool preempts(const Task&, const Task&) const override { return false; }
};

class PriorityPolicy : public SchedulerPolicy {
public:
    const char* name() const override { return "Priority"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return std::make_unique<PriorityBucketQueue>();
    }
    bool preempts(const Task& cand, const Task& running) const override {
        return cand.effective_priority() < running.effective_priority();
    }
};

class RoundRobinPolicy final : public PriorityPolicy {
public:
    explicit RoundRobinPolicy(SimTime quantum) : quantum_(quantum) {
        SLM_ASSERT(!quantum.is_zero(), "round-robin needs a non-zero quantum");
    }
    const char* name() const override { return "RoundRobin"; }
    SimTime quantum() const override { return quantum_; }

private:
    SimTime quantum_;
};

class EdfPolicy final : public SchedulerPolicy {
public:
    const char* name() const override { return "EDF"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return make_time_heap([](const Task& t) { return t.absolute_deadline(); });
    }
    bool preempts(const Task& cand, const Task& running) const override {
        return cand.absolute_deadline() < running.absolute_deadline();
    }
};

class RmsPolicy final : public SchedulerPolicy {
public:
    const char* name() const override { return "RMS"; }
    std::unique_ptr<ReadyQueue> make_queue() const override {
        return make_time_heap([](const Task& t) { return key(t); });
    }
    bool preempts(const Task& cand, const Task& running) const override {
        return key(cand) < key(running);
    }

private:
    /// Shorter period = higher rate = higher priority. Aperiodic tasks
    /// (no period) run in the background.
    static SimTime key(const Task& t) {
        return t.params().type == TaskType::Periodic ? t.params().period : SimTime::max();
    }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_policy(SchedPolicy p, SimTime quantum) {
    switch (p) {
        case SchedPolicy::Fifo: return std::make_unique<FifoPolicy>();
        case SchedPolicy::Priority: return std::make_unique<PriorityPolicy>();
        case SchedPolicy::RoundRobin: return std::make_unique<RoundRobinPolicy>(quantum);
        case SchedPolicy::Edf: return std::make_unique<EdfPolicy>();
        case SchedPolicy::Rms: return std::make_unique<RmsPolicy>();
    }
    SLM_ASSERT(false, "unknown scheduling policy");
    return nullptr;
}

}  // namespace slm::rtos
