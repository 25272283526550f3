// Engine unit tests: seed pools (circularity, priority, peek, trim),
// the mutator, the database dependency graph, and the count of findings
// that contradict a static oracle verdict.
#include <gtest/gtest.h>

#include "engine/dbg.hpp"
#include "engine/fuzzer.hpp"
#include "engine/mutator.hpp"
#include "engine/seed.hpp"

namespace wasai::engine {
namespace {

using abi::name;
using abi::ParamType;
using abi::ParamValue;

Seed seed_with_amount(std::int64_t amount) {
  Seed s;
  s.action = name("transfer");
  s.params = {name("a"), name("b"), abi::eos(amount), std::string("m")};
  return s;
}

// ---------------------------------------------------------------- SeedPool

TEST(SeedPool, CircularRotation) {
  SeedPool pool;
  pool.add(seed_with_amount(1));
  pool.add(seed_with_amount(2));
  const auto s1 = pool.next(name("transfer"));
  const auto s2 = pool.next(name("transfer"));
  const auto s3 = pool.next(name("transfer"));
  ASSERT_TRUE(s1 && s2 && s3);
  EXPECT_EQ(std::get<abi::Asset>(s1->params[2]).amount, 1);
  EXPECT_EQ(std::get<abi::Asset>(s2->params[2]).amount, 2);
  EXPECT_EQ(std::get<abi::Asset>(s3->params[2]).amount, 1);  // wrapped
  EXPECT_EQ(pool.size(name("transfer")), 2u);
}

TEST(SeedPool, PriorityInsertsAtFront) {
  SeedPool pool;
  pool.add(seed_with_amount(1));
  pool.add_priority(seed_with_amount(99));
  const auto s = pool.next(name("transfer"));
  ASSERT_TRUE(s);
  EXPECT_EQ(std::get<abi::Asset>(s->params[2]).amount, 99);
}

TEST(SeedPool, PeekDoesNotRotate) {
  SeedPool pool;
  pool.add(seed_with_amount(7));
  pool.add(seed_with_amount(8));
  for (int i = 0; i < 3; ++i) {
    const auto s = pool.peek(name("transfer"));
    ASSERT_TRUE(s);
    EXPECT_EQ(std::get<abi::Asset>(s->params[2]).amount, 7);
  }
  EXPECT_FALSE(pool.peek(name("missing")).has_value());
}

TEST(SeedPool, TrimDropsTailKeepsPriorityFront) {
  SeedPool pool;
  for (int i = 0; i < 5; ++i) pool.add(seed_with_amount(i));
  pool.add_priority(seed_with_amount(100));
  pool.trim(2);
  EXPECT_EQ(pool.size(name("transfer")), 2u);
  const auto s = pool.next(name("transfer"));
  EXPECT_EQ(std::get<abi::Asset>(s->params[2]).amount, 100);
}

TEST(SeedPool, EmptyAndTotals) {
  SeedPool pool;
  EXPECT_FALSE(pool.next(name("transfer")).has_value());
  EXPECT_EQ(pool.total(), 0u);
  pool.add(seed_with_amount(1));
  Seed other;
  other.action = name("withdraw");
  pool.add(other);
  EXPECT_EQ(pool.total(), 2u);
  EXPECT_EQ(pool.size(name("withdraw")), 1u);
}

// ---------------------------------------------------------------- Mutator

TEST(Mutator, RandomSeedMatchesSignature) {
  Mutator mutator(util::Rng(1), {name("attacker")});
  const abi::ActionDef def = abi::transfer_action_def();
  for (int i = 0; i < 50; ++i) {
    const Seed seed = mutator.random_seed(def);
    EXPECT_EQ(seed.action, def.name);
    ASSERT_EQ(seed.params.size(), def.params.size());
    for (std::size_t p = 0; p < def.params.size(); ++p) {
      EXPECT_TRUE(abi::matches(def.params[p], seed.params[p]));
    }
    // Strings are always solvable over their first bytes.
    EXPECT_GE(std::get<std::string>(seed.params[3]).size(), 4u);
  }
}

TEST(Mutator, MutateChangesExactlyOneParameter) {
  Mutator mutator(util::Rng(2), {name("attacker")});
  const abi::ActionDef def = abi::transfer_action_def();
  int diffs_total = 0;
  for (int i = 0; i < 30; ++i) {
    Seed seed = mutator.random_seed(def);
    const Seed before = seed;
    mutator.mutate(seed, def);
    int diffs = 0;
    for (std::size_t p = 0; p < seed.params.size(); ++p) {
      diffs += !(abi::to_string(seed.params[p]) ==
                 abi::to_string(before.params[p]));
    }
    EXPECT_LE(diffs, 1);
    diffs_total += diffs;
  }
  EXPECT_GT(diffs_total, 0);  // mutation usually produces a change
}

TEST(Mutator, DeterministicForSeed) {
  const abi::ActionDef def = abi::transfer_action_def();
  Mutator a(util::Rng(3), {name("x")});
  Mutator b(util::Rng(3), {name("x")});
  for (int i = 0; i < 10; ++i) {
    const Seed sa = a.random_seed(def);
    const Seed sb = b.random_seed(def);
    for (std::size_t p = 0; p < sa.params.size(); ++p) {
      EXPECT_EQ(abi::to_string(sa.params[p]), abi::to_string(sb.params[p]));
    }
  }
}

// -------------------------------------------------------------------- DBG

symbolic::ApiCall api(std::string name_, std::vector<std::uint64_t> args,
                      std::optional<std::int32_t> ret, symbolic::Z3Env& env) {
  symbolic::ApiCall call;
  call.name = std::move(name_);
  for (const auto a : args) {
    call.args.push_back(
        symbolic::SymValue{wasm::ValType::I64, env.bv(a, 64)});
  }
  if (ret) {
    call.ret = vm::Value::i32s(*ret);
    call.completed = true;
  }
  return call;
}

TEST(Dbg, RecordsWritersAndBlockedReads) {
  symbolic::Z3Env env;
  Dbg dbg;
  const std::uint64_t table = name("inittab").value();
  // withdraw reads the table and misses (ret -1).
  dbg.record(name("withdraw"),
             {api("db_find_i64", {1, 0, table, 1}, -1, env)});
  EXPECT_TRUE(dbg.blocked(name("withdraw")));
  EXPECT_FALSE(dbg.writer_for(name("withdraw")).has_value());

  // prepare writes it: db_store_i64(scope, table, payer, id, ...).
  dbg.record(name("prepare"),
             {api("db_store_i64", {0, table, 1, 1}, 0, env)});
  const auto writer = dbg.writer_for(name("withdraw"));
  ASSERT_TRUE(writer.has_value());
  EXPECT_EQ(*writer, name("prepare"));
  EXPECT_EQ(dbg.tables_seen(), 1u);
}

TEST(Dbg, SuccessfulReadUnblocks) {
  symbolic::Z3Env env;
  Dbg dbg;
  const std::uint64_t table = name("t").value();
  dbg.record(name("withdraw"),
             {api("db_find_i64", {1, 0, table, 1}, -1, env)});
  EXPECT_TRUE(dbg.blocked(name("withdraw")));
  dbg.record(name("withdraw"),
             {api("db_find_i64", {1, 0, table, 1}, 0, env)});
  EXPECT_FALSE(dbg.blocked(name("withdraw")));
}

TEST(Dbg, WriterForIgnoresSelfWrites) {
  symbolic::Z3Env env;
  Dbg dbg;
  const std::uint64_t table = name("t").value();
  dbg.record(name("selfloop"),
             {api("db_find_i64", {1, 0, table, 1}, -1, env),
              api("db_store_i64", {0, table, 1, 1}, 0, env)});
  // Only the action itself writes the table: no external writer available.
  EXPECT_FALSE(dbg.writer_for(name("selfloop")).has_value());
}

// ------------------------------------------- static oracle contradictions

TEST(OracleContradictions, FindingForImpossibleOracleCounts) {
  analysis::StaticReport static_report;
  static_report.oracles[static_cast<std::size_t>(analysis::Oracle::Rollback)]
      .possible = false;
  const auto scan_of = [](scanner::VulnType type) {
    scanner::Report scan;
    scan.found.insert(type);
    scan.findings.push_back(scanner::Finding{type, "planted"});
    return scan;
  };
  EXPECT_EQ(count_contradicted_oracles(scan_of(scanner::VulnType::Rollback),
                                       static_report),
            1u);
  EXPECT_EQ(count_contradicted_oracles(scan_of(scanner::VulnType::FakeEos),
                                       static_report),
            0u);
}

}  // namespace
}  // namespace wasai::engine
