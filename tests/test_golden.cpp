// Tree bit-identity (DESIGN.md §11).  The engine has one implementation
// per decision — merge_solver::plan for every merge, the slab ring-walk NN
// query, the degree-pruned ban probe and the per-cell distance fold-in —
// so there is no second path to compare against at run time.  Instead:
//
//  * golden tree fingerprints: r1–r5 x k {4, 6} x fourteen router
//    configurations (windowed 0/5 ps, automatic 0/5 ps, soft ledger,
//    multi-merge windowed/automatic, linear backend, 4 shards, auto shards
//    and windowed zero skew on 3 threads, EXT-BST 10 ps, ZST,
//    separate-stitch) plus the l1 placement at 5000 sinks, each pinned to
//    wirelength, merges, rejected and forced pairs, the snake-wire bits
//    and a hash of every node's children, arc endpoints and edge lengths.
//    The values were captured from the engine while it still carried a
//    separate scalar reference kernel (both kernels built these exact
//    trees; the automatic 5 ps rows, which route the soft ledger at a
//    bounded skew, were added later from the engine of that time) and are
//    never re-captured from a change under test: a mismatch means
//    merge-order semantics moved;
//  * the reference wirelengths (r1/r3/r5, intermingled k=6, grouping seed
//    1, windowed AST);
//  * a soft-ledger route on the grid backend is identical to the same
//    route on the linear-scan backend.

#include "core/route_service.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace astclk::core {
namespace {

/// Intermingled paper instance with the reference grouping seed.
topo::instance paper_instance(const char* name, int groups) {
    auto inst = gen::generate(gen::paper_spec(name));
    gen::apply_intermingled_groups(inst, groups, 1);
    return inst;
}

// ---------------------------------------------------- golden fingerprints

enum class config {
    windowed0,        ///< AST windowed, zero skew
    windowed5,        ///< AST windowed, uniform 5 ps
    automatic,        ///< AST automatic, zero skew (exact ledger)
    automatic5,       ///< AST automatic, uniform 5 ps (soft ledger)
    soft,             ///< AST soft ledger
    multi_windowed,   ///< multi-merge rounds, windowed
    multi_automatic,  ///< multi-merge rounds, automatic
    linear,           ///< windowed on the linear-scan NN backend
    shards4,          ///< windowed, 4 shards
    shards_auto_t3,   ///< windowed, auto shards, 3 service threads
    windowed0_t3,     ///< windowed, zero skew, 3 service threads
    ext_bst10,        ///< EXT-BST, global 10 ps
    zst,              ///< ZST-DME
    separate,         ///< separate trees per group, stitched
};

route_result route_config(const topo::instance& inst, config c) {
    routing_request r;
    r.instance = &inst;
    r.strategy = strategy_id::ast_dme;
    r.mode = ast_mode::windowed;
    engine_options& e = r.options.engine;
    int threads = 1;
    switch (c) {
        case config::windowed0: break;
        case config::windowed5: r.spec = skew_spec::uniform(5e-12); break;
        case config::automatic: r.mode = ast_mode::automatic; break;
        case config::automatic5:
            r.mode = ast_mode::automatic;
            r.spec = skew_spec::uniform(5e-12);
            break;
        case config::soft: r.mode = ast_mode::soft_ledger; break;
        case config::multi_windowed: e.order = merge_order::multi_merge; break;
        case config::multi_automatic:
            e.order = merge_order::multi_merge;
            r.mode = ast_mode::automatic;
            break;
        case config::linear: e.backend = nn_backend::linear; break;
        case config::shards4: e.shards = 4; break;
        case config::shards_auto_t3:
            e.shards = 0;
            threads = 3;
            break;
        case config::windowed0_t3: threads = 3; break;
        case config::ext_bst10:
            r.strategy = strategy_id::ext_bst;
            r.spec = skew_spec::uniform(10e-12);
            break;
        case config::zst: r.strategy = strategy_id::zst_dme; break;
        case config::separate: r.strategy = strategy_id::separate_stitch; break;
    }
    if (threads == 1) return route(r);
    service_options sopt;
    sopt.threads = threads;
    route_service svc(sopt);
    return svc.route_batch({r})[0];
}

/// FNV-1a over the little-endian bytes of one 64-bit word.
std::uint64_t fnv_word(std::uint64_t h, std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
        h ^= (w >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

std::uint64_t id_word(topo::node_id id) {
    return static_cast<std::uint32_t>(id);
}

/// Structural hash of every node in id order: children, the four arc
/// endpoints and both electrical edge lengths, all bitwise.
std::uint64_t tree_hash(const topo::clock_tree& t) {
    std::uint64_t h = fnv_word(0xcbf29ce484222325ULL, t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        const topo::tree_node& n = t.node(static_cast<topo::node_id>(i));
        h = fnv_word(h, id_word(n.left));
        h = fnv_word(h, id_word(n.right));
        h = fnv_word(h, bits(n.arc.u().lo));
        h = fnv_word(h, bits(n.arc.u().hi));
        h = fnv_word(h, bits(n.arc.v().lo));
        h = fnv_word(h, bits(n.arc.v().hi));
        h = fnv_word(h, bits(n.edge_left));
        h = fnv_word(h, bits(n.edge_right));
    }
    return h;
}

struct golden_row {
    const char* instance;  ///< paper name, or "l1/5000"
    int groups;
    config cfg;
    double wirelength;
    int merges, rejected, forced;
    std::uint64_t snake_wire_bits;
    std::uint64_t tree;
};

// clang-format off
const golden_row kgolden[] = {
    {"r1", 4, config::windowed0, 2045461.1189194699, 266, 0, 0,
     0x41031072a807eebbULL, 0x3ed5ed0c0b04c6bfULL},
    {"r1", 4, config::windowed5, 2033415.9225062344, 266, 0, 0,
     0x4104a50d28693b29ULL, 0x32ab5104f4bbf519ULL},
    {"r1", 4, config::automatic, 2045461.1189194717, 266, 0, 0,
     0x41031072a807eeaeULL, 0xa87912e85ce80b87ULL},
    {"r1", 4, config::automatic5, 2033764.5149965398, 266, 0, 0,
     0x4104aac775004444ULL, 0x5b5928ca975ff3eeULL},
    {"r1", 4, config::soft, 2045461.1189194717, 266, 0, 0,
     0x41031072a807eeb5ULL, 0x59c28409a404e6d0ULL},
    {"r1", 4, config::multi_windowed, 2057016.9052513891, 266, 0, 0,
     0x410aa6ab96687c75ULL, 0x657f29288f376350ULL},
    {"r1", 4, config::multi_automatic, 2057016.905251391, 266, 0, 0,
     0x410aa6ab96687c29ULL, 0x1c9c2efae497ca5aULL},
    {"r1", 4, config::linear, 2045461.1189194699, 266, 0, 0,
     0x41031072a807eebbULL, 0x3ed5ed0c0b04c6bfULL},
    {"r1", 4, config::shards4, 2011965.9349161771, 266, 0, 0,
     0x40f15516e1ad0c34ULL, 0x8f6880871a0f2c0cULL},
    {"r1", 4, config::shards_auto_t3, 2045461.1189194699, 266, 0, 0,
     0x41031072a807eebbULL, 0x3ed5ed0c0b04c6bfULL},
    {"r1", 4, config::windowed0_t3, 2045461.1189194699, 266, 0, 0,
     0x41031072a807eebbULL, 0x3ed5ed0c0b04c6bfULL},
    {"r1", 4, config::ext_bst10, 2020547.7575326553, 266, 0, 0,
     0x4104da0b96d849ccULL, 0xc344c2a871998152ULL},
    {"r1", 4, config::zst, 2045461.1189194729, 266, 0, 0,
     0x41031072a807eeb8ULL, 0x5da5ec5f14825deaULL},
    {"r1", 4, config::separate, 3701277.3436120669, 266, 0, 0,
     0x411001d95924ee59ULL, 0x3f9b0becb168581dULL},
    {"r1", 6, config::windowed0, 2045645.3561072454, 266, 0, 0,
     0x41031044ffadfa61ULL, 0x0192da71ffbf3e7aULL},
    {"r1", 6, config::windowed5, 2017083.4638553164, 266, 0, 0,
     0x41048dc03f6b43b0ULL, 0x7c1f1e1c11f94b5bULL},
    {"r1", 6, config::automatic, 2045461.1189194722, 266, 0, 0,
     0x41031072a807eeafULL, 0xa52612979bce8679ULL},
    {"r1", 6, config::automatic5, 2033631.7097181566, 266, 0, 0,
     0x4104a830aeb78b0eULL, 0x0a01bd97caef9619ULL},
    {"r1", 6, config::soft, 2045645.3561072461, 266, 0, 0,
     0x41031044ffadfa28ULL, 0x9417ca157b49d10fULL},
    {"r1", 6, config::multi_windowed, 2057016.9052513891, 266, 0, 0,
     0x410aa6ab96687c5cULL, 0x490c80b0c1532b41ULL},
    {"r1", 6, config::multi_automatic, 2057016.9052513898, 266, 0, 0,
     0x410aa6ab96687c4eULL, 0x2737208164d9c528ULL},
    {"r1", 6, config::linear, 2045645.3561072454, 266, 0, 0,
     0x41031044ffadfa61ULL, 0x0192da71ffbf3e7aULL},
    {"r1", 6, config::shards4, 2011848.5260362253, 266, 0, 0,
     0x40f14a7b62919f72ULL, 0x385b0506d9b2878fULL},
    {"r1", 6, config::shards_auto_t3, 2045645.3561072454, 266, 0, 0,
     0x41031044ffadfa61ULL, 0x0192da71ffbf3e7aULL},
    {"r1", 6, config::windowed0_t3, 2045645.3561072454, 266, 0, 0,
     0x41031044ffadfa61ULL, 0x0192da71ffbf3e7aULL},
    {"r1", 6, config::ext_bst10, 2020547.7575326553, 266, 0, 0,
     0x4104da0b96d849ccULL, 0xc344c2a871998152ULL},
    {"r1", 6, config::zst, 2045461.1189194729, 266, 0, 0,
     0x41031072a807eeb8ULL, 0x5da5ec5f14825deaULL},
    {"r1", 6, config::separate, 4231928.5244154437, 266, 0, 0,
     0x41043a3790888c6aULL, 0xa8ebb6854f16aa60ULL},
    {"r2", 4, config::windowed0, 3411882.095016432, 597, 36, 3,
     0x411ab0736b7075b6ULL, 0xbd88041bef874c0fULL},
    {"r2", 4, config::windowed5, 3167756.4386347788, 597, 0, 0,
     0x410a607867d1ec3cULL, 0xbd09713501b6046aULL},
    {"r2", 4, config::automatic, 3289690.0782471835, 597, 0, 0,
     0x4114fbc945ee62e2ULL, 0x174bcbf7dea6f2dfULL},
    {"r2", 4, config::automatic5, 3158616.8818044574, 597, 3, 1,
     0x4108ead8a80da0eeULL, 0x66c29c2cd43a6de8ULL},
    {"r2", 4, config::soft, 3411882.0950164292, 597, 36, 3,
     0x411ab0736b707530ULL, 0x275cbf7619a2bd6bULL},
    {"r2", 4, config::multi_windowed, 3191161.4143165047, 597, 25, 6,
     0x41127d0c78e32b8dULL, 0x2e99a69d57e5def7ULL},
    {"r2", 4, config::multi_automatic, 3143988.7370736883, 597, 0, 0,
     0x410f449480c8654eULL, 0x0f7085463d9d4c5eULL},
    {"r2", 4, config::linear, 3411882.095016432, 597, 36, 3,
     0x411ab0736b7075b6ULL, 0xbd88041bef874c0fULL},
    {"r2", 4, config::shards4, 3593275.9539813087, 597, 47, 7,
     0x4117db36051ce2a5ULL, 0x18b06bd25e049d9cULL},
    {"r2", 4, config::shards_auto_t3, 3411882.095016432, 597, 36, 3,
     0x411ab0736b7075b6ULL, 0xbd88041bef874c0fULL},
    {"r2", 4, config::windowed0_t3, 3411882.095016432, 597, 36, 3,
     0x411ab0736b7075b6ULL, 0xbd88041bef874c0fULL},
    {"r2", 4, config::ext_bst10, 3136677.428891188, 597, 0, 0,
     0x4104e48ccdb025e8ULL, 0xc1bb0a7999334e10ULL},
    {"r2", 4, config::zst, 3289690.0782471825, 597, 0, 0,
     0x4114fbc945ee62d9ULL, 0xc0ec451160051745ULL},
    {"r2", 4, config::separate, 6017742.7466492308, 597, 0, 0,
     0x41190cb82d984fc2ULL, 0xa7e2aa442ef274b0ULL},
    {"r2", 6, config::windowed0, 3418682.896439366, 597, 69, 4,
     0x41187e72d70ad2fcULL, 0xc2df12d0644bf146ULL},
    {"r2", 6, config::windowed5, 3127191.6789023937, 597, 10, 2,
     0x40ecf30fe64ec905ULL, 0x1cb08e464e1202b8ULL},
    {"r2", 6, config::automatic, 3289690.0782471839, 597, 0, 0,
     0x4114fbc945ee62d1ULL, 0x8ad6b19bc10eaa7eULL},
    {"r2", 6, config::automatic5, 3287187.6446910533, 597, 8, 1,
     0x410e16ab8b8ff755ULL, 0xfac84875bfb07b4eULL},
    {"r2", 6, config::soft, 3418682.3707890362, 597, 69, 4,
     0x41187e7513e16926ULL, 0x866ad18da9a7c7a2ULL},
    {"r2", 6, config::multi_windowed, 3061361.7869893741, 597, 42, 10,
     0x4104cad7bcddeb3eULL, 0x2c6d44bad40c612dULL},
    {"r2", 6, config::multi_automatic, 3143988.7370736892, 597, 0, 0,
     0x410f449480c86526ULL, 0x131c38852d20af6bULL},
    {"r2", 6, config::linear, 3418682.896439366, 597, 69, 4,
     0x41187e72d70ad2fcULL, 0xc2df12d0644bf146ULL},
    {"r2", 6, config::shards4, 3459178.4714364219, 597, 35, 6,
     0x41113754498af9c1ULL, 0x616492a33f2a5cb6ULL},
    {"r2", 6, config::shards_auto_t3, 3418682.896439366, 597, 69, 4,
     0x41187e72d70ad2fcULL, 0xc2df12d0644bf146ULL},
    {"r2", 6, config::windowed0_t3, 3418682.896439366, 597, 69, 4,
     0x41187e72d70ad2fcULL, 0xc2df12d0644bf146ULL},
    {"r2", 6, config::ext_bst10, 3136677.428891188, 597, 0, 0,
     0x4104e48ccdb025e8ULL, 0xc1bb0a7999334e10ULL},
    {"r2", 6, config::zst, 3289690.0782471825, 597, 0, 0,
     0x4114fbc945ee62d9ULL, 0xc0ec451160051745ULL},
    {"r2", 6, config::separate, 7465986.9454932986, 597, 0, 0,
     0x4124ed80205a838dULL, 0x50437c2f936c31ffULL},
    {"r3", 4, config::windowed0, 4070287.8595847595, 861, 51, 4,
     0x411a7bb02e9ce812ULL, 0x12722b2a9f7e8e76ULL},
    {"r3", 4, config::windowed5, 3589900.5800100556, 861, 0, 0,
     0x40fb994f8369f9d9ULL, 0x43b876147510a473ULL},
    {"r3", 4, config::automatic, 3538025.6081258613, 861, 0, 0,
     0x40e569e7ab77cc14ULL, 0xd124e2af729965deULL},
    {"r3", 4, config::automatic5, 3886991.469431295, 861, 0, 0,
     0x411820f31d2f49b1ULL, 0x9d3657ef53254bb1ULL},
    {"r3", 4, config::soft, 4070287.859584759, 861, 51, 4,
     0x411a7bb02e9ce7dfULL, 0xab8991866c06944bULL},
    {"r3", 4, config::multi_windowed, 3969093.8222497129, 861, 27, 7,
     0x411fd154c055fea2ULL, 0x403c6a5e750d5993ULL},
    {"r3", 4, config::multi_automatic, 3696355.0998965073, 861, 0, 0,
     0x4112285656d2da47ULL, 0x7d7eff07738f0e87ULL},
    {"r3", 4, config::linear, 4070287.8595847595, 861, 51, 4,
     0x411a7bb02e9ce812ULL, 0x12722b2a9f7e8e76ULL},
    {"r3", 4, config::shards4, 4192867.3890361791, 861, 31, 5,
     0x4114a0df87eabc69ULL, 0xf2f606d621fe69feULL},
    {"r3", 4, config::shards_auto_t3, 4070287.8595847595, 861, 51, 4,
     0x411a7bb02e9ce812ULL, 0x12722b2a9f7e8e76ULL},
    {"r3", 4, config::windowed0_t3, 4070287.8595847595, 861, 51, 4,
     0x411a7bb02e9ce812ULL, 0x12722b2a9f7e8e76ULL},
    {"r3", 4, config::ext_bst10, 3582651.8149137371, 861, 0, 0,
     0x40f68bd4cbc549c5ULL, 0x1153925fa9c401baULL},
    {"r3", 4, config::zst, 3538025.6081258608, 861, 0, 0,
     0x40e569e7ab77cca5ULL, 0x11a7e8e737d99b7eULL},
    {"r3", 4, config::separate, 7103635.2160696108, 861, 0, 0,
     0x4114a71cf371d9f1ULL, 0x37f0e52eaa9fc2b7ULL},
    {"r3", 6, config::windowed0, 5183649.4927426297, 861, 121, 6,
     0x41375a73f7d75ba0ULL, 0x55f6b7c5ec222f39ULL},
    {"r3", 6, config::windowed5, 3590945.6827290012, 861, 0, 0,
     0x40fbc3c1d944326bULL, 0x397c4105a332e594ULL},
    {"r3", 6, config::automatic, 3538025.608125865, 861, 0, 0,
     0x40e569e7ab77ccf1ULL, 0xe2b0c474ef5280efULL},
    {"r3", 6, config::automatic5, 3887055.041976169, 861, 0, 0,
     0x41182160b6efc298ULL, 0x6afa33683645f054ULL},
    {"r3", 6, config::soft, 5343638.7378573362, 861, 98, 5,
     0x413a5a26355211a8ULL, 0x609c6accfd3d0b02ULL},
    {"r3", 6, config::multi_windowed, 3817849.3130333885, 861, 42, 10,
     0x41191c12c432c35bULL, 0xf9d522a54687f36eULL},
    {"r3", 6, config::multi_automatic, 3696355.0998965073, 861, 0, 0,
     0x4112285656d2da56ULL, 0xb9d367b6ebfb2f31ULL},
    {"r3", 6, config::linear, 5183649.4927426297, 861, 121, 6,
     0x41375a73f7d75ba0ULL, 0x55f6b7c5ec222f39ULL},
    {"r3", 6, config::shards4, 4541980.8595850756, 861, 91, 10,
     0x41250127e5466873ULL, 0x770704ee43f4aa94ULL},
    {"r3", 6, config::shards_auto_t3, 5183649.4927426297, 861, 121, 6,
     0x41375a73f7d75ba0ULL, 0x55f6b7c5ec222f39ULL},
    {"r3", 6, config::windowed0_t3, 5183649.4927426297, 861, 121, 6,
     0x41375a73f7d75ba0ULL, 0x55f6b7c5ec222f39ULL},
    {"r3", 6, config::ext_bst10, 3582651.8149137371, 861, 0, 0,
     0x40f68bd4cbc549c5ULL, 0x1153925fa9c401baULL},
    {"r3", 6, config::zst, 3538025.6081258608, 861, 0, 0,
     0x40e569e7ab77cca5ULL, 0x11a7e8e737d99b7eULL},
    {"r3", 6, config::separate, 8706539.0842640735, 861, 0, 0,
     0x411aca9f5c93ea51ULL, 0x85d3462f33975f02ULL},
    {"r4", 4, config::windowed0, 7819235.5193007831, 1902, 211, 8,
     0x4140e59e12b0a59fULL, 0xf5a5c2396a02a30aULL},
    {"r4", 4, config::windowed5, 6214934.7397957994, 1902, 0, 0,
     0x412b53c2e3ef1294ULL, 0x024f0132133e6010ULL},
    {"r4", 4, config::automatic, 6358540.1395002259, 1902, 0, 0,
     0x4129c56c0c372aceULL, 0xa63e9635fdc2f88cULL},
    {"r4", 4, config::automatic5, 5507757.129458483, 1902, 6, 2,
     0x40ffc2a358ac1325ULL, 0xafb255586ef59158ULL},
    {"r4", 4, config::soft, 7818258.5428507272, 1902, 211, 8,
     0x4140e33e2c196b7fULL, 0x2b312cfb2842432dULL},
    {"r4", 4, config::multi_windowed, 5910468.8854080914, 1902, 45, 7,
     0x4124bbee82d44599ULL, 0xf7e531706f087ae6ULL},
    {"r4", 4, config::multi_automatic, 5473669.6364594931, 1902, 0, 0,
     0x410c5f92e7d3f2c0ULL, 0xe7b7f65b6b99d1e5ULL},
    {"r4", 4, config::linear, 7819235.5193007831, 1902, 211, 8,
     0x4140e59e12b0a59fULL, 0xf5a5c2396a02a30aULL},
    {"r4", 4, config::shards4, 6798188.183459579, 1902, 113, 10,
     0x4131d71157a03e38ULL, 0xf30f699da4a6dd13ULL},
    {"r4", 4, config::shards_auto_t3, 6798188.183459579, 1902, 113, 10,
     0x4131d71157a03e38ULL, 0xf30f699da4a6dd13ULL},
    {"r4", 4, config::windowed0_t3, 7819235.5193007831, 1902, 211, 8,
     0x4140e59e12b0a59fULL, 0xf5a5c2396a02a30aULL},
    {"r4", 4, config::ext_bst10, 5293528.6029210994, 1902, 0, 0,
     0x40dbcc22c9fa32efULL, 0xe90986013aa63322ULL},
    {"r4", 4, config::zst, 6358540.1395002222, 1902, 0, 0,
     0x4129c56c0c372ad5ULL, 0xbeaa764acb73f1a3ULL},
    {"r4", 4, config::separate, 10770747.150876286, 1902, 0, 0,
     0x41174fd47bcf82a8ULL, 0x6fa4752c8c0bbc63ULL},
    {"r4", 6, config::windowed0, 8945721.3514867574, 1902, 700, 19,
     0x4148ff0766674dd6ULL, 0x8dce13ec192eadc7ULL},
    {"r4", 6, config::windowed5, 5621789.7530644489, 1902, 8, 1,
     0x4110f79583405961ULL, 0xaa14f13a47d2a52bULL},
    {"r4", 6, config::automatic, 6358540.139500224, 1902, 0, 0,
     0x4129c56c0c372aaaULL, 0x37d054ebfccbf6f6ULL},
    {"r4", 6, config::automatic5, 5493037.611646469, 1902, 0, 0,
     0x41048b095b3d7542ULL, 0x19a2ad197ce1bfb4ULL},
    {"r4", 6, config::soft, 8840531.384316111, 1902, 697, 19,
     0x4148274041731deaULL, 0x22b43e3bb99fee14ULL},
    {"r4", 6, config::multi_windowed, 6399404.151571475, 1902, 280, 31,
     0x413034539c14393cULL, 0xa50cdb1c5234b225ULL},
    {"r4", 6, config::multi_automatic, 5473669.6364594912, 1902, 0, 0,
     0x410c5f92e7d3f2c2ULL, 0x3e39e23528823121ULL},
    {"r4", 6, config::linear, 8945721.3514867574, 1902, 700, 19,
     0x4148ff0766674dd6ULL, 0x8dce13ec192eadc7ULL},
    {"r4", 6, config::shards4, 7002901.0924022524, 1902, 387, 25,
     0x4132cd7108c9308bULL, 0x872bd3ef8ee0ee21ULL},
    {"r4", 6, config::shards_auto_t3, 7002901.0924022524, 1902, 387, 25,
     0x4132cd7108c9308bULL, 0x872bd3ef8ee0ee21ULL},
    {"r4", 6, config::windowed0_t3, 8945721.3514867574, 1902, 700, 19,
     0x4148ff0766674dd6ULL, 0x8dce13ec192eadc7ULL},
    {"r4", 6, config::ext_bst10, 5293528.6029210994, 1902, 0, 0,
     0x40dbcc22c9fa32efULL, 0xe90986013aa63322ULL},
    {"r4", 6, config::zst, 6358540.1395002222, 1902, 0, 0,
     0x4129c56c0c372ad5ULL, 0xbeaa764acb73f1a3ULL},
    {"r4", 6, config::separate, 14136279.39550342, 1902, 0, 0,
     0x41333dd5a44dc011ULL, 0x36fae4e4218aa0e9ULL},
    {"r5", 4, config::windowed0, 9632507.7963693608, 3100, 569, 16,
     0x4142c9ea6075c861ULL, 0x0ed88bd31a6266daULL},
    {"r5", 4, config::windowed5, 7424868.16830221, 3100, 0, 0,
     0x411e9ad9e8cda4a2ULL, 0xf5fa60b0d33b5c26ULL},
    {"r5", 4, config::automatic, 7882558.9476744598, 3100, 0, 0,
     0x412cbd3e806ddfaaULL, 0xae49c9d1305aa78fULL},
    {"r5", 4, config::automatic5, 7410572.800946082, 3100, 0, 0,
     0x41218e2ec05dddb9ULL, 0xc82a46bef8c03c54ULL},
    {"r5", 4, config::soft, 9632507.7963693459, 3100, 569, 16,
     0x4142c9ea6075c83cULL, 0xbd7024a7f9272ac8ULL},
    {"r5", 4, config::multi_windowed, 8066616.1678454168, 3100, 137, 14,
     0x41330dc7259e6473ULL, 0x0be9ad553e172e62ULL},
    {"r5", 4, config::multi_automatic, 7060094.0118431468, 3100, 0, 0,
     0x41169b70bc7f7031ULL, 0x59a9b7684da56e9dULL},
    {"r5", 4, config::linear, 9632507.7963693608, 3100, 569, 16,
     0x4142c9ea6075c861ULL, 0x0ed88bd31a6266daULL},
    {"r5", 4, config::shards4, 8838090.1342758462, 3100, 309, 18,
     0x413698680e99708aULL, 0x2416157c23891078ULL},
    {"r5", 4, config::shards_auto_t3, 8797340.2696179692, 3100, 257, 21,
     0x41364f84d74a76c8ULL, 0xff80060a8975f5d6ULL},
    {"r5", 4, config::windowed0_t3, 9632507.7963693608, 3100, 569, 16,
     0x4142c9ea6075c861ULL, 0x0ed88bd31a6266daULL},
    {"r5", 4, config::ext_bst10, 6845879.1507648751, 3100, 0, 0,
     0x40ebb27aadca5638ULL, 0x120f45d0016d92a4ULL},
    {"r5", 4, config::zst, 7882558.9476744663, 3100, 0, 0,
     0x412cbd3e806ddfa0ULL, 0xd4df2d1cc2ee247bULL},
    {"r5", 4, config::separate, 14172533.429281607, 3100, 0, 0,
     0x41245252fee03194ULL, 0x9b927ba3547a83bfULL},
    {"r5", 6, config::windowed0, 8998270.1656338405, 3100, 1918, 36,
     0x413934ee9b5d5cd6ULL, 0xdd9d0d44226eac57ULL},
    {"r5", 6, config::windowed5, 7320260.8107939838, 3100, 0, 0,
     0x411bcbb03817b2feULL, 0x20395301ddeb2facULL},
    {"r5", 6, config::automatic, 7882558.9476744719, 3100, 0, 0,
     0x412cbd3e806ddfc1ULL, 0xe2d02d2ed0834c12ULL},
    {"r5", 6, config::automatic5, 7410621.734333821, 3100, 0, 0,
     0x41218f85744b39b8ULL, 0x065f7f61b447de08ULL},
    {"r5", 6, config::soft, 9324613.723649418, 3100, 1923, 36,
     0x413dfd9bb491be26ULL, 0x2639ca2762b1affeULL},
    {"r5", 6, config::multi_windowed, 8458659.8892499804, 3100, 398, 38,
     0x413935a54f615abaULL, 0xd355d1d825c65caaULL},
    {"r5", 6, config::multi_automatic, 7060094.0118431514, 3100, 0, 0,
     0x41169b70bc7f7013ULL, 0xb7eafa618ab9cc12ULL},
    {"r5", 6, config::linear, 8998270.1656338405, 3100, 1918, 36,
     0x413934ee9b5d5cd6ULL, 0xdd9d0d44226eac57ULL},
    {"r5", 6, config::shards4, 9478001.5179762542, 3100, 776, 37,
     0x413f611dd86d3226ULL, 0xd30ed03153fc7602ULL},
    {"r5", 6, config::shards_auto_t3, 9922278.2938309349, 3100, 728, 42,
     0x41424d70a9097331ULL, 0x6e7e61417e18cfd2ULL},
    {"r5", 6, config::windowed0_t3, 8998270.1656338405, 3100, 1918, 36,
     0x413934ee9b5d5cd6ULL, 0xdd9d0d44226eac57ULL},
    {"r5", 6, config::ext_bst10, 6845879.1507648751, 3100, 0, 0,
     0x40ebb27aadca5638ULL, 0x120f45d0016d92a4ULL},
    {"r5", 6, config::zst, 7882558.9476744663, 3100, 0, 0,
     0x412cbd3e806ddfa0ULL, 0xd4df2d1cc2ee247bULL},
    {"r5", 6, config::separate, 17964777.995025709, 3100, 0, 0,
     0x4136b0181779862bULL, 0x3c103ec5bc75fdeaULL},
    {"l1/5000", 6, config::windowed0, 11819303.010121912, 4999, 5848, 65,
     0x41506841fdbcb448ULL, 0x1897e1a855a5ac46ULL},
};
// clang-format on

topo::instance golden_instance(const std::string& name, int groups) {
    if (name != "l1/5000") return paper_instance(name.c_str(), groups);
    gen::instance_spec spec = gen::large_spec("l1");
    spec.num_sinks = 5000;
    auto inst = gen::generate(spec);
    gen::apply_intermingled_groups(inst, groups, 1);
    return inst;
}

TEST(Golden, GoldenTreeFingerprints) {
    std::map<std::pair<std::string, int>, topo::instance> instances;
    for (const golden_row& g : kgolden) {
        const auto key = std::make_pair(std::string(g.instance), g.groups);
        auto it = instances.find(key);
        if (it == instances.end())
            it = instances.emplace(key, golden_instance(key.first, g.groups))
                     .first;
        const route_result r = route_config(it->second, g.cfg);
        const std::string what = key.first + " k=" +
                                 std::to_string(g.groups) + " config " +
                                 std::to_string(static_cast<int>(g.cfg));
        ASSERT_TRUE(r.ok()) << what << ": " << r.status_message;
        EXPECT_EQ(r.wirelength, g.wirelength) << what;
        EXPECT_EQ(r.stats.merges, g.merges) << what;
        EXPECT_EQ(r.stats.rejected_pairs, g.rejected) << what;
        EXPECT_EQ(r.stats.forced_merges, g.forced) << what;
        EXPECT_EQ(bits(r.stats.snake_wire), g.snake_wire_bits) << what;
        EXPECT_EQ(tree_hash(r.tree), g.tree) << what;
    }
}

TEST(Golden, ReferenceWirelengths) {
    const std::pair<const char*, double> refs[] = {
        {"r1", 2045645.3561072454},
        {"r3", 5183649.4927426297},
        {"r5", 8998270.1656338405},
    };
    for (const auto& [name, wirelength] : refs) {
        const auto r = route_config(paper_instance(name, 6), config::windowed0);
        ASSERT_TRUE(r.ok()) << name << ": " << r.status_message;
        EXPECT_EQ(r.wirelength, wirelength) << name;
    }
}

// ------------------------------------------------------------- soft ledger

TEST(Golden, SoftLedgerGridMatchesLinearScan) {
    const auto inst = paper_instance("r2", 6);
    routing_request req;
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    req.mode = ast_mode::soft_ledger;
    const auto got = route(req);
    req.options.engine.backend = nn_backend::linear;
    const auto ref = route(req);
    ASSERT_TRUE(got.ok()) << got.status_message;
    ASSERT_TRUE(ref.ok()) << ref.status_message;
    // The grid queries run the slab walk and the per-cell fold-in; the
    // linear scan is the oracle for both.
    EXPECT_EQ(got.wirelength, ref.wirelength);
    EXPECT_EQ(got.stats.merges, ref.stats.merges);
    EXPECT_EQ(got.stats.rejected_pairs, ref.stats.rejected_pairs);
    EXPECT_EQ(got.stats.forced_merges, ref.stats.forced_merges);
    EXPECT_EQ(bits(got.stats.snake_wire), bits(ref.stats.snake_wire));
    EXPECT_EQ(tree_hash(got.tree), tree_hash(ref.tree));
}

}  // namespace
}  // namespace astclk::core
