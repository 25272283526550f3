// Cross-iteration flip-query dedup (the concolic loop's §3.4.4 hot path):
// every fuzz iteration replays a trace and flips each branch, and most of
// those (prefix, flip) pairs were already decided in an earlier iteration —
// the trace shapes recur as the seed pool converges. The cache keys each
// query by a digest of its constraints' Z3 AST ids and stores the verdict
// plus the satisfying model bindings, so a repeated flip costs a hash
// lookup instead of a Z3 call.
//
// Determinism note: keys are digests of AST ids, not of printed text. Z3
// hash-conses terms, so within one context structurally equal terms that
// are alive at the same time are one AST with one id, and a query's id
// sequence identifies it as exactly as its text would, without printing.
// Replay variable names are deterministic per trace shape ("p0",
// "p1_amount", "mem_<addr>" — see inputs.cpp and memory_model.cpp), so a
// recurring query rebuilds the same terms. Z3 recycles the id of a freed
// AST, though: a term rebuilt after its earlier copy was freed gets a new
// id (a spurious miss), and another term can inherit the freed id (a false
// hit). Each entry therefore pins the ASTs its key mentions until it is
// evicted, so a rebuilt term hash-conses onto the pinned AST and no live
// key's id is reused. Distinct variables are distinct ASTs, so
// alpha-equivalent queries never share an entry (Z3's model choice depends
// on symbol names).
#pragma once

#include <z3++.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/digest.hpp"

namespace wasai::symbolic {

/// Model bindings of a sat query: (variable name, value) in Z3 model
/// declaration order. Small enough that linear lookup beats a map.
using ModelValues = std::vector<std::pair<std::string, std::uint64_t>>;

/// 128-bit cache key: the primary FNV-1a digest plus a salted second
/// FNV-1a stream over the same AST ids (same non-cryptographic hash
/// family, different seed — the streams are correlated, not an
/// independent hash pair). The secondary digest is a best-effort guard
/// against a primary collision silently returning a wrong verdict — a
/// mismatch is treated as a miss.
struct QueryKey {
  std::uint64_t primary = 0;
  std::uint64_t secondary = 0;

  bool operator==(const QueryKey&) const = default;
};

/// Rolling digest over the path-prefix constraints' AST ids. The fuzzer's
/// walk extends it once per hold, and flip_key() forks the prefix state
/// with the flip constraint's id to produce the key of one (prefix, flip)
/// query in O(1). All constraints must come from one Z3 context.
class QueryDigest {
 public:
  /// Absorb the next path-prefix constraint.
  void extend(const z3::expr& hold);

  /// Key of the query "prefix so far AND flip". Does not mutate the prefix.
  [[nodiscard]] QueryKey flip_key(const z3::expr& flip) const;

 private:
  util::Digest primary_;
  util::Digest secondary_{make_secondary()};

  static util::Digest make_secondary() {
    util::Digest d;
    d.u64(0x5eedcafef00dull);  // distinct stream salt
    return d;
  }
};

enum class CachedVerdict : std::uint8_t { Sat, Unsat, Unknown };

struct CacheEntry {
  CachedVerdict verdict = CachedVerdict::Unsat;
  ModelValues model;  // empty unless verdict == Sat
};

struct SolverCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t insertions = 0;
  std::size_t entries = 0;
};

/// Bounded LRU map from query key to verdict + model. One instance per
/// Fuzzer (one Z3Env), destroyed before that context; NOT thread-safe.
/// Unknown is cached like unsat: under a fixed resource budget it is as
/// reproducible as the other verdicts, and asking again would cost the
/// whole budget.
class SolverCache {
 public:
  explicit SolverCache(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the entry or nullptr, counting a hit or miss and refreshing
  /// the entry's LRU position.
  const CacheEntry* lookup(const QueryKey& key);

  /// Record a solved query, evicting the least-recently-used entry when at
  /// capacity. `pins` are the ASTs the key was digested from (prefix holds
  /// and flip); the entry keeps them alive so their ids stay theirs (see
  /// the determinism note). Re-inserting an existing key refreshes value,
  /// pins and position. Returns the stored entry.
  const CacheEntry& insert(const QueryKey& key, std::vector<z3::expr> pins,
                           CachedVerdict verdict, ModelValues model = {});

  [[nodiscard]] const SolverCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    QueryKey key;
    CacheEntry entry;
    std::vector<z3::expr> pins;
    std::list<std::uint64_t>::iterator lru;  // position in lru_
  };

  std::size_t capacity_;
  std::unordered_map<std::uint64_t, Slot> map_;  // keyed by primary digest
  std::list<std::uint64_t> lru_;  // most-recent first, holds primary keys
  SolverCacheStats stats_;
};

}  // namespace wasai::symbolic
