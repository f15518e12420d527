// dary_heap.hpp property tests: the addressable 4-ary heap must agree
// with an ordered-set reference under any sequence of set / erase / pop,
// keep its owner -> slot map exact after every operation, and resolve
// equal keys by (a, b) — the merge engine's selection order, whose top
// must not depend on how the heap was built.

#include "core/dary_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace astclk::core {
namespace {

/// The engine's selection-entry shape: key, owner a, partner b.
struct entry {
    double key;
    int a, b;
    bool operator==(const entry&) const = default;
};

/// The engine's selection order: ascending (key, a, b).
struct key_a_b {
    bool operator()(const entry& x, const entry& y) const {
        return std::tie(x.key, x.a, x.b) < std::tie(y.key, y.a, y.b);
    }
};

template <std::size_t D>
using heap_of = addressable_heap<entry, key_a_b, &entry::a, D>;

/// Ordered reference: the (key, a, b) set plus each owner's live entry.
struct reference {
    std::set<std::tuple<double, int, int>> order;
    std::map<int, entry> by_owner;

    void set(const entry& e) {
        erase(e.a);
        order.insert({e.key, e.a, e.b});
        by_owner[e.a] = e;
    }
    void erase(int a) {
        const auto it = by_owner.find(a);
        if (it == by_owner.end()) return;
        order.erase({it->second.key, it->second.a, it->second.b});
        by_owner.erase(it);
    }
    [[nodiscard]] entry top() const {
        const auto& [key, a, b] = *order.begin();
        return {key, a, b};
    }
};

/// The heap's content, top and position map against the reference.
template <std::size_t D>
void expect_matches(const heap_of<D>& h, const reference& ref, int ids) {
    ASSERT_EQ(h.size(), ref.order.size());
    ASSERT_EQ(h.empty(), ref.order.empty());
    if (!ref.order.empty()) {
        ASSERT_EQ(h.top(), ref.top());
    }
    const auto& items = h.items();
    const auto& pos = h.positions();
    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto owner = static_cast<std::size_t>(items[i].a);
        ASSERT_LT(owner, pos.size());
        ASSERT_EQ(pos[owner], i) << "slot " << i;
        ASSERT_EQ(items[i], ref.by_owner.at(items[i].a));
        if (i > 0) {
            ASSERT_FALSE(key_a_b{}(items[i], items[(i - 1) / D]));
        }
    }
    std::size_t mapped = 0;
    for (const std::uint32_t p : pos) mapped += p != heap_of<D>::npos ? 1 : 0;
    ASSERT_EQ(mapped, items.size());
    for (int a = 0; a < ids; ++a)
        ASSERT_EQ(h.contains(static_cast<std::size_t>(a)),
                  ref.by_owner.count(a) != 0)
            << "owner " << a;
}

template <std::size_t D>
void random_set_erase_pop(std::uint32_t seed) {
    std::mt19937 rng(seed);
    constexpr int kids = 48;
    for (int trial = 0; trial < 20; ++trial) {
        heap_of<D> h;
        reference ref;
        for (int op = 0; op < 600; ++op) {
            const unsigned pick = rng() % 8;
            const int a = static_cast<int>(rng() % kids);
            if (pick < 5) {
                // Few distinct keys: equal keys are the rule, so the
                // (a, b) tie-break decides most tops.  Replacing an
                // owner's entry moves its key up or down.
                const entry e{static_cast<double>(rng() % 6), a,
                              static_cast<int>(rng() % kids)};
                h.set(e);
                ref.set(e);
            } else if (pick < 7) {
                h.erase(static_cast<std::size_t>(a));  // present or absent
                ref.erase(a);
            } else if (!ref.order.empty()) {
                ASSERT_EQ(h.top(), ref.top());
                ref.erase(h.top().a);
                h.pop();
            }
            expect_matches<D>(h, ref, kids);
        }
        while (!ref.order.empty()) {
            ASSERT_EQ(h.top(), ref.top()) << "trial " << trial;
            ref.erase(h.top().a);
            h.pop();
            expect_matches<D>(h, ref, kids);
        }
        EXPECT_TRUE(h.empty());
    }
}

TEST(DaryHeap, RandomSetErasePopMatchesOrderedSet) {
    random_set_erase_pop<kheap_arity>(20260730);
}

TEST(DaryHeap, OtherAritiesMatchOrderedSetToo) {
    // The arity is a template knob; every D keeps the same top.
    random_set_erase_pop<2>(11);
    random_set_erase_pop<8>(12);
}

TEST(DaryHeap, EqualKeysResolveByOwnerThenPartner) {
    // One key for everyone: the drain is ascending owner; the partner
    // decides only between equal owners, which a heap never holds at
    // once — a replacement supersedes the old partner.
    heap_of<kheap_arity> h;
    for (int a = 9; a >= 0; --a) h.set({1.0, a, 100 - a});
    h.set({1.0, 4, 7});  // replace owner 4's partner in place
    ASSERT_EQ(h.size(), 10u);
    for (int a = 0; a < 10; ++a) {
        ASSERT_EQ(h.top().a, a);
        EXPECT_EQ(h.top().b, a == 4 ? 7 : 100 - a);
        h.pop();
    }
    EXPECT_TRUE(h.empty());

    // With equal keys and distinct owners the top is the least owner,
    // whatever the insertion order.
    std::mt19937 rng(5);
    std::vector<int> owners{3, 1, 4, 0, 5, 9, 2, 6, 8, 7};
    for (int round = 0; round < 5; ++round) {
        std::shuffle(owners.begin(), owners.end(), rng);
        heap_of<kheap_arity> g;
        for (const int a : owners) g.set({2.0, a, 0});
        EXPECT_EQ(g.top().a, 0);
    }
}

TEST(DaryHeap, ForEachTopVisitsExactlyTheTopKeyGroup) {
    std::mt19937 rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        heap_of<kheap_arity> h;
        for (int a = 0; a < 200; ++a)
            if (rng() % 3 != 0)
                h.set({static_cast<double>(rng() % 5), a, 0});
        if (h.empty()) continue;
        const double key = h.top().key;
        std::set<int> visited;
        h.for_each_top([key](const entry& e) { return e.key == key; },
                       [&visited](const entry& e) { visited.insert(e.a); });
        std::set<int> want;
        for (const entry& e : h.items())
            if (e.key == key) want.insert(e.a);
        EXPECT_EQ(visited, want) << "trial " << trial;
    }
}

TEST(DaryHeap, ClearResetsPositionsAndStorageIsReused) {
    // The engine_scratch pattern: the same heap serves run after run.
    heap_of<kheap_arity> h;
    for (int round = 0; round < 3; ++round) {
        for (int a = 9; a >= 0; --a)
            h.set({static_cast<double>(a), a + round, 0});
        EXPECT_EQ(h.top().a, round);
        h.clear();
        EXPECT_TRUE(h.empty());
        for (int a = 0; a < 16; ++a)
            EXPECT_FALSE(h.contains(static_cast<std::size_t>(a)));
    }
    h.erase(3);  // absent owner: no-op
    EXPECT_TRUE(h.empty());
}

}  // namespace
}  // namespace astclk::core
