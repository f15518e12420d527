#pragma once

/// \file dary_heap.hpp
/// Addressable 4-ary min-heap over dense owner ids — the merge engine's
/// selection and influence-radius heaps (DESIGN.md §2).
///
/// Each entry carries an owner id (a node id: dense, non-negative) and the
/// heap holds at most one entry per owner.  A position map (owner id ->
/// slot) lets `set` replace an owner's entry in place and `erase` remove
/// it, so the engine never leaves a superseded entry behind: no generation
/// counters, no stale pops, and the heap's size is the number of live
/// records.
///
/// Order: `Before` is a strict weak order and the `Before`-minimum sits at
/// `top()`.  Under a *total* order (the engine's (key, a, b) selection
/// order) the top is therefore unique, whatever sequence of set / erase /
/// pop produced the heap.
///
/// Why 4-ary: a 4-ary layout halves the depth of a binary heap, so a
/// sift-up touches half the levels, and the four children of a node share
/// one cache line of selection-entry-sized elements.  Storage is two
/// vectors that `clear` empties but keeps, so a heap borrowed from
/// engine_scratch is pooled across runs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace astclk::core {

/// Heap arity used by the merge engine's selection and radius heaps.
inline constexpr std::size_t kheap_arity = 4;

/// Min-heap of `T` under `Before` holding at most one entry per owner,
/// where `Owner` is a pointer to the entry's integral owner-id member.
template <class T, class Before, auto Owner, std::size_t D = kheap_arity>
class addressable_heap {
    static_assert(D >= 2, "a heap needs at least two children per node");

  public:
    using value_type = T;
    using before_type = Before;
    static constexpr std::size_t arity = D;
    /// Position-map value of an owner with no entry.
    static constexpr std::uint32_t npos = UINT32_MAX;

    [[nodiscard]] static std::size_t owner(const T& e) {
        return static_cast<std::size_t>(e.*Owner);
    }

    [[nodiscard]] bool empty() const { return items_.empty(); }
    [[nodiscard]] std::size_t size() const { return items_.size(); }
    /// The `Before`-minimum entry; the heap must not be empty.
    [[nodiscard]] const T& top() const { return items_.front(); }
    [[nodiscard]] bool contains(std::size_t id) const {
        return id < pos_.size() && pos_[id] != npos;
    }

    /// The entries in heap order and the owner -> slot map (the auditor's
    /// view, core/audit.hpp).
    [[nodiscard]] const std::vector<T>& items() const { return items_; }
    [[nodiscard]] const std::vector<std::uint32_t>& positions() const {
        return pos_;
    }

    /// Remove every entry, keeping both vectors' capacity.
    void clear() {
        for (const T& e : items_) pos_[owner(e)] = npos;
        items_.clear();
    }

    /// Insert `e`, or replace its owner's entry in place.
    void set(const T& e) {
        const std::size_t id = owner(e);
        if (id >= pos_.size()) pos_.resize(id + 1, npos);
        const std::uint32_t at = pos_[id];
        if (at == npos) {
            items_.push_back(e);
            sift_up(items_.size() - 1, e);
        } else {
            resettle(at, e);
        }
    }

    /// Remove the entry of owner `id`; a no-op when it has none.
    void erase(std::size_t id) {
        if (!contains(id)) return;
        const std::size_t at = pos_[id];
        pos_[id] = npos;
        T last = std::move(items_.back());
        items_.pop_back();
        if (at < items_.size()) resettle(at, std::move(last));
    }

    /// Remove the top entry; the heap must not be empty.
    void pop() { erase(owner(top())); }

    /// Call `fn(e)` for every entry `e` with `in(e)`, where `in` must hold
    /// for an entry's parent whenever it holds for the entry (for example
    /// "the key equals the top's key": heap order sandwiches every such
    /// entry's ancestors between it and the top).  Only the subtree
    /// prefix where `in` holds, and its frontier, is read.
    template <class In, class Fn>
    void for_each_top(In in, Fn fn) const {
        visit(0, in, fn);
    }

  private:
    /// Fill the hole at `at` with `x` and restore heap order around it.
    void resettle(std::size_t at, T x) {
        if (at > 0 && Before{}(x, items_[(at - 1) / D]))
            sift_up(at, std::move(x));
        else
            sift_down(at, std::move(x));
    }

    /// Hole-based sift-up: one move per level instead of a swap.
    void sift_up(std::size_t i, T x) {
        const Before before{};
        while (i > 0) {
            const std::size_t parent = (i - 1) / D;
            if (!before(x, items_[parent])) break;
            place(i, std::move(items_[parent]));
            i = parent;
        }
        place(i, std::move(x));
    }

    void sift_down(std::size_t i, T x) {
        const Before before{};
        const std::size_t n = items_.size();
        for (;;) {
            const std::size_t first = i * D + 1;
            if (first >= n) break;
            std::size_t best = first;
            const std::size_t last = std::min(first + D, n);
            for (std::size_t c = first + 1; c < last; ++c)
                if (before(items_[c], items_[best])) best = c;
            if (!before(items_[best], x)) break;
            place(i, std::move(items_[best]));
            i = best;
        }
        place(i, std::move(x));
    }

    void place(std::size_t i, T&& x) {
        pos_[owner(x)] = static_cast<std::uint32_t>(i);
        items_[i] = std::move(x);
    }

    template <class In, class Fn>
    void visit(std::size_t i, In& in, Fn& fn) const {
        if (i >= items_.size() || !in(items_[i])) return;
        fn(items_[i]);
        const std::size_t first = i * D + 1;
        const std::size_t last = std::min(first + D, items_.size());
        for (std::size_t c = first; c < last; ++c) visit(c, in, fn);
    }

    std::vector<T> items_;
    std::vector<std::uint32_t> pos_;  ///< owner id -> slot, npos if absent
};

}  // namespace astclk::core
