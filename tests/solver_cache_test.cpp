// Unit tests for the cross-iteration flip-query cache: digest key
// stability, AST-identity keys surviving freed handles, hit/miss/eviction
// accounting and LRU behavior.
#include <gtest/gtest.h>

#include "symbolic/replayer.hpp"
#include "symbolic/solver_cache.hpp"

namespace wasai::symbolic {
namespace {

QueryKey key_of(int n) {
  return QueryKey{static_cast<std::uint64_t>(n) * 1000 + 1,
                  static_cast<std::uint64_t>(n) * 1000 + 2};
}

TEST(QueryDigest, SamePrefixAndFlipProduceTheSameKey) {
  Z3Env env;
  const z3::expr a = env.var("p0", 64) == env.bv(7, 64);
  const z3::expr b = env.var("p1", 64) != env.bv(9, 64);
  const z3::expr flip = env.var("p2", 64) == env.bv(1, 64);

  QueryDigest first;
  first.extend(a);
  first.extend(b);
  QueryDigest second;
  second.extend(a);
  second.extend(b);
  EXPECT_EQ(first.flip_key(flip), second.flip_key(flip));
}

TEST(QueryDigest, FlipKeyDoesNotMutateThePrefixState) {
  Z3Env env;
  const z3::expr a = env.var("p0", 64) == env.bv(7, 64);
  const z3::expr flip = env.var("p1", 64) == env.bv(1, 64);

  QueryDigest digest;
  digest.extend(a);
  const QueryKey before = digest.flip_key(flip);
  (void)digest.flip_key(env.var("p2", 64) != env.bv(0, 64));
  EXPECT_EQ(digest.flip_key(flip), before);
}

TEST(QueryDigest, DifferentPrefixOrFlipChangesTheKey) {
  Z3Env env;
  const z3::expr a = env.var("p0", 64) == env.bv(7, 64);
  const z3::expr b = env.var("p1", 64) != env.bv(9, 64);
  const z3::expr flip = env.var("p2", 64) == env.bv(1, 64);

  QueryDigest with_a;
  with_a.extend(a);
  QueryDigest with_b;
  with_b.extend(b);
  QueryDigest with_ab;
  with_ab.extend(a);
  with_ab.extend(b);

  EXPECT_NE(with_a.flip_key(flip), with_b.flip_key(flip));
  EXPECT_NE(with_a.flip_key(flip), with_ab.flip_key(flip));
  EXPECT_NE(with_a.flip_key(flip), with_a.flip_key(a));
}

TEST(QueryDigest, VariableNamesAreSignificant) {
  // The key must distinguish alpha-equivalent queries: Z3's model choice
  // depends on symbol names, so "p0 == 7" and "q0 == 7" (distinct ASTs) may
  // not share a cached model.
  Z3Env env;
  QueryDigest digest;
  EXPECT_NE(digest.flip_key(env.var("p0", 64) == env.bv(7, 64)),
            digest.flip_key(env.var("q0", 64) == env.bv(7, 64)));
}

// The query p0 == 7, p1 != 9 (prefix) AND p2 == 1 (flip) built in `env`:
// its key and, for the cache entry to pin, its ASTs.
std::pair<QueryKey, std::vector<z3::expr>> sample_query(Z3Env& env) {
  const z3::expr a = env.var("p0", 64) == env.bv(7, 64);
  const z3::expr b = env.var("p1", 64) != env.bv(9, 64);
  const z3::expr flip = env.var("p2", 64) == env.bv(1, 64);
  QueryDigest digest;
  digest.extend(a);
  digest.extend(b);
  return {digest.flip_key(flip), {a, b, flip}};
}

TEST(SolverCache, RebuiltQueryHitsAfterEveryHandleIsDropped) {
  // Z3 recycles a freed AST's id, and a term rebuilt after being freed
  // gets a new one. The entry's pins keep the original ASTs alive, so the
  // rebuilt terms hash-cons onto them and reproduce the stored key.
  Z3Env env;
  SolverCache cache(8);
  QueryKey stored;
  {
    auto [key, asts] = sample_query(env);
    stored = key;
    cache.insert(key, std::move(asts), CachedVerdict::Sat,
                 ModelValues{{"p2", 1}});
  }
  const auto [rebuilt, asts] = sample_query(env);
  EXPECT_EQ(rebuilt, stored);
  const CacheEntry* entry = cache.lookup(rebuilt);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->verdict, CachedVerdict::Sat);
}

TEST(SolverCache, DistinctQueriesNeverReuseAPinnedKey) {
  // After every handle is dropped, new constraints pick up freed ids. The
  // stored query is a lone flip (empty prefix), so without the pin any new
  // constraint that inherits the freed flip id reproduces the stored key
  // and would be answered from the wrong entry.
  Z3Env env;
  SolverCache cache(8);
  QueryKey stored;
  {
    const z3::expr flip = env.var("p2", 64) == env.bv(1, 64);
    stored = QueryDigest{}.flip_key(flip);
    cache.insert(stored, {flip}, CachedVerdict::Unsat);
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    const z3::expr flip =
        env.var("q" + std::to_string(k % 3), 64) == env.bv(100 + k, 64);
    const QueryKey key = QueryDigest{}.flip_key(flip);
    EXPECT_NE(key, stored) << "k=" << k;
    EXPECT_EQ(cache.lookup(key), nullptr) << "k=" << k;
  }
}

TEST(SolverCache, MissThenHitWithVerdictAndModelRoundTrip) {
  SolverCache cache(8);
  const QueryKey key = key_of(1);
  EXPECT_EQ(cache.lookup(key), nullptr);
  cache.insert(key, {}, CachedVerdict::Sat, ModelValues{{"p0", 42}});

  const CacheEntry* entry = cache.lookup(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->verdict, CachedVerdict::Sat);
  ASSERT_EQ(entry->model.size(), 1u);
  EXPECT_EQ(entry->model[0].first, "p0");
  EXPECT_EQ(entry->model[0].second, 42u);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SolverCache, SecondaryDigestMismatchIsAMiss) {
  // Primary-hash collision with different secondary: must not return the
  // colliding entry.
  SolverCache cache(8);
  cache.insert(QueryKey{5, 100}, {}, CachedVerdict::Sat,
               ModelValues{{"p0", 1}});
  EXPECT_EQ(cache.lookup(QueryKey{5, 999}), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SolverCache, EvictsLeastRecentlyUsedAtCapacity) {
  SolverCache cache(2);
  cache.insert(key_of(1), {}, CachedVerdict::Unsat);
  cache.insert(key_of(2), {}, CachedVerdict::Unsat);
  // Touch 1 so 2 becomes the LRU entry, then overflow.
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(3), {}, CachedVerdict::Unsat);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
}

TEST(SolverCache, ReinsertRefreshesValueWithoutGrowing) {
  SolverCache cache(4);
  cache.insert(key_of(1), {}, CachedVerdict::Unsat);
  cache.insert(key_of(1), {}, CachedVerdict::Sat, ModelValues{{"p0", 9}});
  EXPECT_EQ(cache.size(), 1u);
  const CacheEntry* entry = cache.lookup(key_of(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->verdict, CachedVerdict::Sat);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SolverCache, ZeroCapacityIsClampedToOne) {
  SolverCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.insert(key_of(1), {}, CachedVerdict::Unsat);
  cache.insert(key_of(2), {}, CachedVerdict::Unsat);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

}  // namespace
}  // namespace wasai::symbolic
