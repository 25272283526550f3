#include "symbolic/solver_cache.hpp"

namespace wasai::symbolic {

void QueryDigest::extend(const z3::expr& hold) {
  primary_.u32(hold.id());
  secondary_.u32(hold.id());
}

QueryKey QueryDigest::flip_key(const z3::expr& flip) const {
  util::Digest p = primary_;
  util::Digest s = secondary_;
  p.u32(flip.id());
  s.u32(flip.id());
  return QueryKey{p.value(), s.value()};
}

const CacheEntry* SolverCache::lookup(const QueryKey& key) {
  const auto it = map_.find(key.primary);
  if (it == map_.end() || it->second.key != key) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return &it->second.entry;
}

const CacheEntry& SolverCache::insert(const QueryKey& key,
                                     std::vector<z3::expr> pins,
                                     CachedVerdict verdict,
                                     ModelValues model) {
  const auto it = map_.find(key.primary);
  if (it != map_.end()) {
    it->second.key = key;
    it->second.entry = CacheEntry{verdict, std::move(model)};
    it->second.pins = std::move(pins);
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.entry;
  }
  if (map_.size() >= capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(key.primary);
  const auto slot =
      map_.emplace(key.primary, Slot{key, CacheEntry{verdict, std::move(model)},
                                     std::move(pins), lru_.begin()})
          .first;
  ++stats_.insertions;
  stats_.entries = map_.size();
  return slot->second.entry;
}

}  // namespace wasai::symbolic
