// Chain substrate tests: token semantics, notifications (original-code
// propagation), inline/deferred actions, rollback atomicity, Wasm contract
// dispatch and the db_* host APIs.
#include <gtest/gtest.h>

#include "abi/serializer.hpp"
#include "chain/agents.hpp"
#include "chain/controller.hpp"
#include "chain/token.hpp"
#include "wasm/builder.hpp"
#include "wasm/encoder.hpp"

namespace wasai::chain {
namespace {

using abi::Asset;
using abi::eos;
using abi::eos_symbol;
using abi::name;
using util::Trap;

/// Chain with eosio.token deployed, EOS created, and two funded players.
class ChainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    token_ = name("eosio.token");
    alice_ = name("alice");
    bob_ = name("bob");
    chain_.deploy_native(token_, std::make_shared<TokenContract>());
    chain_.create_account(alice_);
    chain_.create_account(bob_);
    ASSERT_TRUE(
        chain_
            .push_action(token_create(token_, token_, eos(1'000'000'0000)))
            .success);
    ASSERT_TRUE(chain_
                    .push_action(token_issue(token_, token_, alice_,
                                             eos(1'000'0000), "init"))
                    .success);
  }

  Asset balance(Name owner) {
    return token_balance(chain_, token_, owner, eos_symbol());
  }

  Controller chain_;
  Name token_, alice_, bob_;
};

// ------------------------------------------------------------------ token

TEST_F(ChainFixture, IssueCreatesBalance) {
  EXPECT_EQ(balance(alice_), eos(1'000'0000));
  EXPECT_EQ(balance(bob_), eos(0));
}

TEST_F(ChainFixture, TransferMovesTokens) {
  const auto r = chain_.push_action(
      token_transfer(token_, alice_, bob_, eos(25'0000), "hi"));
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(balance(alice_), eos(975'0000));
  EXPECT_EQ(balance(bob_), eos(25'0000));
}

TEST_F(ChainFixture, TransferNotifiesBothParties) {
  const auto r = chain_.push_action(
      token_transfer(token_, alice_, bob_, eos(1'0000), ""));
  ASSERT_TRUE(r.success);
  // Executions: token itself, then notifications to alice and bob.
  ASSERT_EQ(r.executed.size(), 3u);
  EXPECT_EQ(r.executed[0].receiver, token_);
  EXPECT_FALSE(r.executed[0].notification);
  EXPECT_EQ(r.executed[1].receiver, alice_);
  EXPECT_TRUE(r.executed[1].notification);
  EXPECT_EQ(r.executed[1].code, token_);  // code stays eosio.token
  EXPECT_EQ(r.executed[2].receiver, bob_);
  EXPECT_TRUE(r.executed[2].notification);
}

TEST_F(ChainFixture, TransferRequiresAuthorization) {
  Action act = token_transfer(token_, alice_, bob_, eos(1'0000), "");
  act.authorization = {active(bob_)};  // bob cannot move alice's tokens
  const auto r = chain_.push_action(act);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("missing authority"), std::string::npos);
  EXPECT_EQ(balance(alice_), eos(1'000'0000));
}

TEST_F(ChainFixture, OverdraftRejected) {
  const auto r = chain_.push_action(
      token_transfer(token_, alice_, bob_, eos(9'999'0000), ""));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(balance(alice_), eos(1'000'0000));
  EXPECT_EQ(balance(bob_), eos(0));
}

TEST_F(ChainFixture, TransferToMissingAccountRejected) {
  const auto r = chain_.push_action(
      token_transfer(token_, alice_, name("ghost"), eos(1), ""));
  EXPECT_FALSE(r.success);
}

TEST_F(ChainFixture, NegativeAndSelfTransfersRejected) {
  EXPECT_FALSE(chain_
                   .push_action(token_transfer(token_, alice_, bob_,
                                               eos(-5), ""))
                   .success);
  EXPECT_FALSE(chain_
                   .push_action(token_transfer(token_, alice_, alice_,
                                               eos(5), ""))
                   .success);
}

TEST_F(ChainFixture, IssueBeyondMaxSupplyRejected) {
  const auto r = chain_.push_action(
      token_issue(token_, token_, bob_, eos(999'999'999'0000), ""));
  EXPECT_FALSE(r.success);
}

TEST_F(ChainFixture, UnknownSymbolRejected) {
  const auto r = chain_.push_action(token_transfer(
      token_, alice_, bob_, Asset{5, abi::Symbol::from_code(4, "FOO")}, ""));
  EXPECT_FALSE(r.success);
}

TEST_F(ChainFixture, FakeTokenIsIndependent) {
  // An attacker runs the same token code under fake.token and issues
  // counterfeit EOS — balances live in a different database.
  const Name fake = name("fake.token");
  chain_.deploy_native(fake, std::make_shared<TokenContract>());
  ASSERT_TRUE(
      chain_.push_action(token_create(fake, fake, eos(1'000'000'0000)))
          .success);
  ASSERT_TRUE(chain_
                  .push_action(
                      token_issue(fake, fake, bob_, eos(500'0000), "fake!"))
                  .success);
  EXPECT_EQ(token_balance(chain_, fake, bob_, eos_symbol()), eos(500'0000));
  EXPECT_EQ(balance(bob_), eos(0));  // real EOS unaffected
}

// -------------------------------------------------------------- forwarding

TEST_F(ChainFixture, ForwardNotifAgentKeepsOriginalCode) {
  const Name agent = name("fake.notif");
  const Name victim = name("victim");
  chain_.deploy_native(agent,
                       std::make_shared<ForwardNotifAgent>(token_, victim));
  chain_.create_account(victim);
  const auto r = chain_.push_action(
      token_transfer(token_, alice_, agent, eos(1'0000), "step2"));
  ASSERT_TRUE(r.success) << r.error;
  // token -> notify alice -> notify agent -> agent forwards to victim.
  bool victim_notified = false;
  for (const auto& e : r.executed) {
    if (e.receiver == victim) {
      victim_notified = true;
      EXPECT_TRUE(e.notification);
      EXPECT_EQ(e.code, token_);  // the forged notification carries
                                  // eosio.token as code — the attack core
    }
  }
  EXPECT_TRUE(victim_notified);
}

// ------------------------------------------------------- inline & deferred

/// Native contract that, on "go", transfers and then optionally aborts —
/// the rollback attacker shape (§2.3.5).
class InlineSender : public NativeContract {
 public:
  InlineSender(Name self, Name token, Name to, bool abort_after)
      : self_(self), token_(token), to_(to), abort_after_(abort_after) {}

  void apply(ApplyContext& ctx) override {
    if (ctx.action_name() != name("go")) return;
    ctx.send_inline(token_transfer(token_, self_, to_, eos(10'0000), "in"));
    if (abort_after_) {
      throw Trap("eosio_assert: revert to avoid loss");
    }
  }

 private:
  Name self_, token_, to_;
  bool abort_after_;
};

TEST_F(ChainFixture, InlineActionExecutesWithinTransaction) {
  const Name evil = name("evilplayer");
  chain_.deploy_native(
      evil, std::make_shared<InlineSender>(evil, token_, bob_, false));
  ASSERT_TRUE(chain_
                  .push_action(token_transfer(token_, alice_, evil,
                                              eos(100'0000), "fund"))
                  .success);
  Action go;
  go.account = evil;
  go.name = name("go");
  go.authorization = {active(evil)};
  const auto r = chain_.push_action(go);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(balance(bob_), eos(10'0000));
  // The inline transfer execution is recorded with from_inline.
  bool saw_inline = false;
  for (const auto& e : r.executed) {
    if (e.receiver == token_ && e.from_inline) saw_inline = true;
  }
  EXPECT_TRUE(saw_inline);
}

TEST_F(ChainFixture, InlineActionsRevertWithTransaction) {
  const Name evil = name("evilplayer");
  chain_.deploy_native(
      evil, std::make_shared<InlineSender>(evil, token_, bob_, true));
  ASSERT_TRUE(chain_
                  .push_action(token_transfer(token_, alice_, evil,
                                              eos(100'0000), "fund"))
                  .success);
  Action go;
  go.account = evil;
  go.name = name("go");
  go.authorization = {active(evil)};
  const auto r = chain_.push_action(go);
  EXPECT_FALSE(r.success);
  // The inline transfer was rolled back — the attacker kept its stake.
  EXPECT_EQ(balance(bob_), eos(0));
  EXPECT_EQ(token_balance(chain_, token_, evil, eos_symbol()),
            eos(100'0000));
}

/// Native contract that defers a transfer instead of inlining it.
class DeferredSender : public NativeContract {
 public:
  DeferredSender(Name self, Name token, Name to)
      : self_(self), token_(token), to_(to) {}

  void apply(ApplyContext& ctx) override {
    if (ctx.action_name() != name("go")) return;
    ctx.send_deferred(token_transfer(token_, self_, to_, eos(10'0000), "d"));
  }

 private:
  Name self_, token_, to_;
};

TEST_F(ChainFixture, DeferredActionsRunAsSeparateTransactions) {
  const Name lotto = name("lotto");
  chain_.deploy_native(lotto,
                       std::make_shared<DeferredSender>(lotto, token_, bob_));
  ASSERT_TRUE(chain_
                  .push_action(token_transfer(token_, alice_, lotto,
                                              eos(100'0000), "fund"))
                  .success);
  Action go;
  go.account = lotto;
  go.name = name("go");
  go.authorization = {active(lotto)};
  ASSERT_TRUE(chain_.push_action(go).success);
  EXPECT_EQ(balance(bob_), eos(0));  // not yet executed
  EXPECT_EQ(chain_.pending_deferred(), 1u);
  const auto results = chain_.execute_deferred();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].success) << results[0].error;
  EXPECT_EQ(balance(bob_), eos(10'0000));
  EXPECT_EQ(chain_.pending_deferred(), 0u);
}

TEST_F(ChainFixture, FailedTransactionDropsItsDeferredActions) {
  /// Defer then abort: the deferred action must not survive the revert.
  class DeferThenAbort : public NativeContract {
   public:
    DeferThenAbort(Name self, Name token, Name to)
        : self_(self), token_(token), to_(to) {}
    void apply(ApplyContext& ctx) override {
      ctx.send_deferred(token_transfer(token_, self_, to_, eos(1), "d"));
      throw Trap("abort");
    }
    Name self_, token_, to_;
  };
  const Name c = name("aborter");
  chain_.deploy_native(c, std::make_shared<DeferThenAbort>(c, token_, bob_));
  Action go;
  go.account = c;
  go.name = name("go");
  const auto r = chain_.push_action(go);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(chain_.pending_deferred(), 0u);
}

TEST_F(ChainFixture, InlineActionCannotForgeAuthority) {
  /// A contract trying to authorize as alice (who did not sign) must fail.
  class Forger : public NativeContract {
   public:
    Forger(Name token, Name alice, Name bob)
        : token_(token), alice_(alice), bob_(bob) {}
    void apply(ApplyContext& ctx) override {
      ctx.send_inline(token_transfer(token_, alice_, bob_, eos(5'0000), ""));
    }
    Name token_, alice_, bob_;
  };
  const Name thief = name("thief");
  chain_.deploy_native(thief,
                       std::make_shared<Forger>(token_, alice_, bob_));
  Action go;
  go.account = thief;
  go.name = name("go");
  go.authorization = {active(thief)};
  const auto r = chain_.push_action(go);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(balance(bob_), eos(0));
}

// ------------------------------------------------------------ chain state

TEST_F(ChainFixture, BlockStateAdvancesPerTransaction) {
  const auto num0 = chain_.tapos_block_num();
  const auto prefix0 = chain_.tapos_block_prefix();
  const auto time0 = chain_.now_us();
  chain_.push_action(token_transfer(token_, alice_, bob_, eos(1), ""));
  EXPECT_EQ(chain_.tapos_block_num(), num0 + 1);
  EXPECT_NE(chain_.tapos_block_prefix(), prefix0);
  EXPECT_GT(chain_.now_us(), time0);
}

TEST_F(ChainFixture, MissingAccountActionFails) {
  Action act;
  act.account = name("nobody");
  act.name = name("go");
  EXPECT_FALSE(chain_.push_action(act).success);
}

// ------------------------------------------------------------ packed action

TEST(PackedAction, RoundTrips) {
  Action act = token_transfer(name("eosio.token"), name("a"), name("b"),
                              eos(42), "memo");
  const auto bytes = pack_action(act);
  const Action back = unpack_action(bytes);
  EXPECT_EQ(back.account, act.account);
  EXPECT_EQ(back.name, act.name);
  EXPECT_EQ(back.authorization, act.authorization);
  EXPECT_EQ(back.data, act.data);
}

TEST(PackedAction, RejectsTrailing) {
  auto bytes = pack_action(Action{name("a"), name("b"), {}, {}});
  bytes.push_back(1);
  EXPECT_THROW(unpack_action(bytes), util::DecodeError);
}

// --------------------------------------------------------------- database

TEST(Database, StoreFindUpdateEraseCycle) {
  Database db;
  const TableKey tk{1, 2};
  db.store(tk, 10, {1, 2, 3});
  ASSERT_NE(db.find(tk, 10), nullptr);
  EXPECT_EQ(*db.find(tk, 10), (util::Bytes{1, 2, 3}));
  db.update(tk, 10, {9});
  EXPECT_EQ(*db.find(tk, 10), (util::Bytes{9}));
  db.erase(tk, 10);
  EXPECT_EQ(db.find(tk, 10), nullptr);
  EXPECT_TRUE(db.empty());
}

TEST(Database, DuplicateKeyRejected) {
  Database db;
  db.store(TableKey{0, 0}, 1, {});
  EXPECT_THROW(db.store(TableKey{0, 0}, 1, {}), util::UsageError);
}

TEST(Database, IterationOrder) {
  Database db;
  const TableKey tk{5, 5};
  db.store(tk, 30, {});
  db.store(tk, 10, {});
  db.store(tk, 20, {});
  EXPECT_EQ(db.lower_bound(tk, 0), std::optional<std::uint64_t>(10));
  EXPECT_EQ(db.lower_bound(tk, 15), std::optional<std::uint64_t>(20));
  EXPECT_EQ(db.next(tk, 10), std::optional<std::uint64_t>(20));
  EXPECT_EQ(db.next(tk, 30), std::nullopt);
  EXPECT_EQ(db.row_count(), 3u);
}

TEST(Database, SnapshotRestoreRoundTripPreservesIterationOrder) {
  // Transaction atomicity and Controller copies both rely on Database being
  // a plain value type: a copy taken before mutations must restore the exact
  // row set AND the exact lower_bound/next walk order afterwards.
  Database db;
  const TableKey accounts{1, 100};
  const TableKey stats{2, 200};
  db.store(accounts, 30, {3});
  db.store(accounts, 10, {1});
  db.store(accounts, 20, {2});
  db.store(stats, 7, {9, 9});

  const Database snapshot = db;  // what Controller::Snapshot captures

  // Mutate every table: overwrite, erase, insert, and add a new table.
  db.update(accounts, 10, {0xff});
  db.erase(accounts, 20);
  db.store(accounts, 15, {5});
  db.store(stats, 1, {});
  db.store(TableKey{3, 300}, 42, {4});
  ASSERT_EQ(db.row_count(), 6u);

  db = snapshot;  // restore

  EXPECT_EQ(db.row_count(), 4u);
  ASSERT_NE(db.find(accounts, 10), nullptr);
  EXPECT_EQ(*db.find(accounts, 10), (util::Bytes{1}));
  ASSERT_NE(db.find(accounts, 20), nullptr);
  EXPECT_EQ(*db.find(accounts, 20), (util::Bytes{2}));
  EXPECT_EQ(db.find(accounts, 15), nullptr);
  EXPECT_EQ(db.find(stats, 1), nullptr);
  EXPECT_EQ(db.find(TableKey{3, 300}, 42), nullptr);

  // The full iteration walk is back to the pre-mutation order.
  EXPECT_EQ(db.lower_bound(accounts, 0), std::optional<std::uint64_t>(10));
  EXPECT_EQ(db.next(accounts, 10), std::optional<std::uint64_t>(20));
  EXPECT_EQ(db.next(accounts, 20), std::optional<std::uint64_t>(30));
  EXPECT_EQ(db.next(accounts, 30), std::nullopt);
  EXPECT_EQ(db.lower_bound(stats, 0), std::optional<std::uint64_t>(7));
  EXPECT_EQ(db.next(stats, 7), std::nullopt);
  EXPECT_EQ(db.table_keys(), (std::vector<TableKey>{accounts, stats}));
}

// ------------------------------------------------------- wasm contracts

/// Builds a minimal Wasm contract exercising db + assert host functions:
///   apply(receiver, code, action):
///     if action == N("put"):   db_store(scope=0, table=1, pk=7, 8 bytes)
///     if action == N("check"): eosio_assert(db_find(...) >= 0, "no row")
util::Bytes build_db_contract() {
  using namespace wasai::wasm;
  ModuleBuilder b;
  constexpr ValType I32 = ValType::I32;
  constexpr ValType I64 = ValType::I64;
  const auto db_store = b.import_func(
      "env", "db_store_i64",
      FuncType{{I64, I64, I64, I64, I32, I32}, {I32}});
  const auto db_find = b.import_func(
      "env", "db_find_i64", FuncType{{I64, I64, I64, I64}, {I32}});
  const auto assert_fn =
      b.import_func("env", "eosio_assert", FuncType{{I32, I32}, {}});
  b.add_memory(1);

  const auto put_action = abi::name("put").value();
  const auto check_action = abi::name("check").value();

  std::vector<Instr> body = {
      // if (action == N(put))
      local_get(2),
      i64_const_u(put_action),
      Instr(Opcode::I64Eq),
      if_(),
      i64_const(0),                        // scope
      i64_const(1),                        // table
      local_get(0),                        // payer = receiver
      i64_const(7),                        // pk
      i32_const(0),                        // data ptr
      i32_const(8),                        // len
      call(db_store),
      Instr(Opcode::Drop),
      Instr(Opcode::End),
      // if (action == N(check))
      local_get(2),
      i64_const_u(check_action),
      Instr(Opcode::I64Eq),
      if_(),
      local_get(0),                        // code = self
      i64_const(0),
      i64_const(1),
      i64_const(7),
      call(db_find),
      i32_const(0),
      Instr(Opcode::I32GeS),               // found?
      i32_const(64),                       // message ptr
      call(assert_fn),
      Instr(Opcode::End),
      Instr(Opcode::End),
  };
  const auto apply =
      b.add_func(FuncType{{I64, I64, I64}, {}}, {}, body, "apply");
  b.export_func("apply", apply);
  b.add_data(64, {'n', 'o', ' ', 'r', 'o', 'w', 0});
  return encode(std::move(b).build());
}

TEST(WasmContract, DbStoreAndAssertFlow) {
  Controller chain;
  const Name c = name("dbdemo");
  abi::Abi abi;
  abi.actions.push_back(abi::ActionDef{name("put"), {}});
  abi.actions.push_back(abi::ActionDef{name("check"), {}});
  chain.deploy_contract(c, build_db_contract(), abi);

  Action check;
  check.account = c;
  check.name = name("check");
  const auto r1 = chain.push_action(check);
  EXPECT_FALSE(r1.success);  // row not stored yet
  EXPECT_NE(r1.error.find("no row"), std::string::npos);

  Action put;
  put.account = c;
  put.name = name("put");
  ASSERT_TRUE(chain.push_action(put).success);
  EXPECT_EQ(chain.database(c).row_count(), 1u);

  const auto r2 = chain.push_action(check);
  EXPECT_TRUE(r2.success) << r2.error;
}

TEST(WasmContract, TrapRevertsDbWrites) {
  // A contract that writes a row then asserts false.
  using namespace wasai::wasm;
  ModuleBuilder b;
  constexpr ValType I32 = ValType::I32;
  constexpr ValType I64 = ValType::I64;
  const auto db_store = b.import_func(
      "env", "db_store_i64",
      FuncType{{I64, I64, I64, I64, I32, I32}, {I32}});
  const auto assert_fn =
      b.import_func("env", "eosio_assert", FuncType{{I32, I32}, {}});
  b.add_memory(1);
  const auto apply = b.add_func(
      FuncType{{I64, I64, I64}, {}}, {},
      {i64_const(0), i64_const(1), local_get(0), i64_const(9),
       i32_const(0), i32_const(4), call(db_store), Instr(Opcode::Drop),
       i32_const(0), i32_const(0), call(assert_fn), Instr(Opcode::End)},
      "apply");
  b.export_func("apply", apply);

  Controller chain;
  const Name c = name("revertme");
  chain.deploy_contract(c, encode(std::move(b).build()), abi::Abi{});
  Action act;
  act.account = c;
  act.name = name("boom");
  const auto r = chain.push_action(act);
  EXPECT_FALSE(r.success);
  const Database* db = chain.find_database(c);
  EXPECT_TRUE(db == nullptr || db->empty());
}

/// Contract for the Controller-copy atomicity test. Each `seed*` action
/// commits one row to table (scope 0, table 1); `boom` stores pk 20 and
/// then asserts false, so its write must never become visible.
util::Bytes build_seeded_db_contract() {
  using namespace wasai::wasm;
  ModuleBuilder b;
  constexpr ValType I32 = ValType::I32;
  constexpr ValType I64 = ValType::I64;
  const auto db_store = b.import_func(
      "env", "db_store_i64",
      FuncType{{I64, I64, I64, I64, I32, I32}, {I32}});
  const auto assert_fn =
      b.import_func("env", "eosio_assert", FuncType{{I32, I32}, {}});
  b.add_memory(1);

  std::vector<Instr> body;
  const auto store_on = [&](const char* action, std::int64_t pk) {
    const std::vector<Instr> block = {
        local_get(2),
        i64_const_u(abi::name(action).value()),
        Instr(Opcode::I64Eq),
        if_(),
        i64_const(0),         // scope
        i64_const(1),         // table
        local_get(0),         // payer = receiver
        i64_const(pk),
        i32_const(0),         // data ptr
        i32_const(8),         // len
        call(db_store),
        Instr(Opcode::Drop),
        Instr(Opcode::End),
    };
    body.insert(body.end(), block.begin(), block.end());
  };
  store_on("seeda", 10);
  store_on("seedb", 30);
  store_on("seedc", 20);
  store_on("boom", 20);
  const std::vector<Instr> trap = {
      local_get(2),
      i64_const_u(abi::name("boom").value()),
      Instr(Opcode::I64Eq),
      if_(),
      i32_const(0),           // condition: fail
      i32_const(64),          // message ptr
      call(assert_fn),
      Instr(Opcode::End),
      Instr(Opcode::End),     // function
  };
  body.insert(body.end(), trap.begin(), trap.end());

  const auto apply =
      b.add_func(FuncType{{I64, I64, I64}, {}}, {}, body, "apply");
  b.export_func("apply", apply);
  b.add_data(64, {'b', 'o', 'o', 'm', 0});
  return encode(std::move(b).build());
}

TEST(WasmContract, FailedTransactionLeavesNoPartialRowsInShardClone) {
  // Copying a Controller snapshots the whole chain. A transaction that
  // traps midway rolls back before any such copy can be taken, so a copy
  // must see only committed rows — in the committed iteration order — and
  // writes made on the copy must never surface in the original.
  Controller chain;
  const Name c = name("shardclone");
  abi::Abi abi;
  for (const char* action : {"seeda", "seedb", "seedc", "boom"}) {
    abi.actions.push_back(abi::ActionDef{name(action), {}});
  }
  chain.deploy_contract(c, build_seeded_db_contract(), abi);

  const auto push = [&](Controller& target, const char* action) {
    Action act;
    act.account = c;
    act.name = name(action);
    return target.push_action(act);
  };
  ASSERT_TRUE(push(chain, "seeda").success);
  ASSERT_TRUE(push(chain, "seedb").success);
  const auto failed = push(chain, "boom");
  ASSERT_FALSE(failed.success);
  EXPECT_NE(failed.error.find("boom"), std::string::npos);

  Controller clone = chain;
  const TableKey tk{0, 1};
  const Database* db = clone.find_database(c);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->row_count(), 2u);
  EXPECT_EQ(db->find(tk, 20), nullptr);  // boom's write did not leak
  EXPECT_EQ(db->lower_bound(tk, 0), std::optional<std::uint64_t>(10));
  EXPECT_EQ(db->next(tk, 10), std::optional<std::uint64_t>(30));
  EXPECT_EQ(db->next(tk, 30), std::nullopt);

  // The clone is a live, independent chain: committing pk 20 there must
  // not appear in the original's database.
  ASSERT_TRUE(push(clone, "seedc").success);
  EXPECT_EQ(clone.find_database(c)->row_count(), 3u);
  EXPECT_EQ(chain.find_database(c)->row_count(), 2u);
  EXPECT_EQ(chain.find_database(c)->find(tk, 20), nullptr);
}

TEST(WasmContract, DeployRejectsContractWithoutApply) {
  using namespace wasai::wasm;
  ModuleBuilder b;
  b.add_func(FuncType{{}, {}}, {}, {Instr(Opcode::End)});
  Controller chain;
  EXPECT_THROW(chain.deploy_contract(name("bad"), encode(std::move(b).build()),
                                     abi::Abi{}),
               util::ValidationError);
}

TEST(WasmContract, DeployRejectsMalformedBinary) {
  Controller chain;
  EXPECT_THROW(
      chain.deploy_contract(name("bad"), util::Bytes{1, 2, 3}, abi::Abi{}),
      util::DecodeError);
}

}  // namespace
}  // namespace wasai::chain
