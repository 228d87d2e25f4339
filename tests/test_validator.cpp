//===- tests/test_validator.cpp - validation and side-table tests ----------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace wisp;

namespace {

TEST(Validator, AcceptsSimpleAdd) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Funcs[0].MaxStack, 2u);
  EXPECT_TRUE(M->Funcs[0].Table.Entries.empty());
}

TEST(Validator, RejectsTypeMismatch) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.op(Opcode::F64Sqrt); // f64 op on i32 value.
  expectInvalid(MB, "type mismatch: expected f64, found i32");
}

TEST(Validator, RejectsStackUnderflow) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.op(Opcode::I32Add); // Nothing to pop.
  expectInvalid(MB, "operand stack underflow");
}

TEST(Validator, RejectsMissingResult) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.op(Opcode::Nop);
  expectInvalid(MB, "operand stack underflow");
}

TEST(Validator, RejectsSuperfluousResult) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1);
  expectInvalid(MB, "1 superfluous values at end of block");
}

TEST(Validator, AcceptsBlockWithResult) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I32));
  F.i32Const(7);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
}

TEST(Validator, BrIfSideTableEntry) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I32));
  F.i32Const(1);
  F.localGet(0);
  F.brIf(0);
  F.drop();
  F.i32Const(2);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  const SideTable &ST = M->Funcs[0].Table;
  ASSERT_EQ(ST.Entries.size(), 1u);
  const SideTableEntry &E = ST.Entries[0];
  EXPECT_EQ(E.ValCount, 1u);
  EXPECT_EQ(E.TargetHeight, 0u);
  // Target is just past the function's inner `end`, i.e. one byte before
  // the function-terminating end.
  EXPECT_EQ(E.TargetIp, M->Funcs[0].BodyEnd - 1);
  EXPECT_EQ(E.TargetStp, 1u);
}

TEST(Validator, LoopBranchTargetsHeader) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.loop();
  F.localGet(0);
  F.brIf(0);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  const SideTable &ST = M->Funcs[0].Table;
  ASSERT_EQ(ST.Entries.size(), 1u);
  // Loop target: first body instruction = BodyStart + 2 (loop opcode +
  // blocktype byte), with STP 0 (no entries precede the body).
  EXPECT_EQ(ST.Entries[0].TargetIp, M->Funcs[0].BodyStart + 2);
  EXPECT_EQ(ST.Entries[0].TargetStp, 0u);
  EXPECT_EQ(ST.Entries[0].ValCount, 0u);
}

TEST(Validator, IfElseSideTable) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.ifOp(BlockType::oneResult(ValType::I32));
  F.i32Const(1);
  F.elseOp();
  F.i32Const(2);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  const SideTable &ST = M->Funcs[0].Table;
  // Entry 0: if false edge -> after `else`. Entry 1: else skip -> after end.
  ASSERT_EQ(ST.Entries.size(), 2u);
  EXPECT_LT(ST.Entries[0].TargetIp, ST.Entries[1].TargetIp);
  EXPECT_EQ(ST.Entries[0].TargetStp, 2u);
  EXPECT_EQ(ST.Entries[1].TargetStp, 2u);
  EXPECT_EQ(ST.Entries[1].ValCount, 1u);
}

TEST(Validator, IfWithoutElseRequiresBalancedTypes) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(0);
  F.ifOp(BlockType::oneResult(ValType::I32)); // [] -> [i32] but no else.
  F.i32Const(1);
  F.end();
  expectInvalid(MB, "if without else requires matching params and results");
}

TEST(Validator, BrTableEntries) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.block();
  F.localGet(0);
  F.brTable({0, 1}, 1);
  F.end();
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  // Three entries: target 0, target 1, default(1).
  ASSERT_EQ(M->Funcs[0].Table.Entries.size(), 3u);
  const auto &E = M->Funcs[0].Table.Entries;
  EXPECT_LT(E[0].TargetIp, E[1].TargetIp);
  EXPECT_EQ(E[1].TargetIp, E[2].TargetIp);
}

TEST(Validator, BrTableInconsistentArity) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::oneResult(ValType::I32));
  F.block();
  F.localGet(0);
  F.brTable({1}, 0); // Outer expects i32, inner expects nothing.
  F.end();
  F.i32Const(0);
  F.end();
  expectInvalid(MB, "br_table labels have inconsistent types");
}

TEST(Validator, UnreachableMakesStackPolymorphic) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.unreachable();
  F.op(Opcode::I32Add); // Pops two polymorphic values.
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
}

TEST(Validator, BranchDepthOutOfRange) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.br(5);
  F.end();
  expectInvalid(MB, "branch depth 5 exceeds nesting 2");
}

TEST(Validator, LocalIndexOutOfRange) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.localGet(3);
  F.drop();
  expectInvalid(MB, "local index out of range");
}

TEST(Validator, GlobalSetImmutable) {
  ModuleBuilder MB;
  uint32_t G = MB.addGlobal(ValType::I32, false,
                            ModuleBuilder::constInit(ValType::I32, 1));
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(2);
  F.globalSet(G);
  expectInvalid(MB, "global.set of immutable global 0");
}

TEST(Validator, MemoryOpsRequireMemory) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(0);
  F.load(Opcode::I32Load, 0, 2);
  expectInvalid(MB, "memory instruction without declared memory");
}

TEST(Validator, AlignmentTooLarge) {
  ModuleBuilder MB;
  MB.addMemory(1);
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(0);
  F.load(Opcode::I32Load, 0, 3); // 2**3 = 8 > 4.
  expectInvalid(MB, "alignment 2**3 exceeds natural alignment 4 of i32.load");
}

// An exponent past 31 is rejected outright; shifting by it is undefined
// and on x86 wrapped 2**32 around to 2**0, which passed the check.
TEST(Validator, AlignmentExponentBeyond31) {
  ModuleBuilder MB;
  MB.addMemory(1);
  FuncBuilder &F = MB.addFunc(MB.addType({}, {ValType::I32}));
  F.i32Const(0);
  F.load(Opcode::I32Load, 0, 32);
  expectInvalid(MB, "alignment 2**32 exceeds natural alignment 4 of i32.load");
}

TEST(Validator, MultiValueBlock) {
  ModuleBuilder MB;
  uint32_t Pair = MB.addType({}, {ValType::I32, ValType::I32});
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.block(BlockType::funcType(Pair));
  F.i32Const(3);
  F.i32Const(4);
  F.end();
  F.op(Opcode::I32Add);
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Funcs[0].MaxStack, 2u);
}

TEST(Validator, MultiValueBlockParams) {
  ModuleBuilder MB;
  uint32_t BT = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  uint32_t T = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(10);
  F.i32Const(20);
  F.block(BlockType::funcType(BT));
  F.op(Opcode::I32Add);
  F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
}

TEST(Validator, SelectRequiresMatchingTypes) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1);
  F.f64Const(2.0);
  F.localGet(0);
  F.select();
  F.drop();
  expectInvalid(MB, "select operands disagree: f64 vs i32");
}

TEST(Validator, CallTypeChecking) {
  ModuleBuilder MB;
  uint32_t Callee = MB.addType({ValType::I64}, {ValType::I64});
  uint32_t T = MB.addType({}, {});
  FuncBuilder &C = MB.addFunc(Callee);
  C.localGet(0);
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(1); // Wrong: callee wants i64.
  F.call(MB.funcIndex(C));
  F.drop();
  expectInvalid(MB, "type mismatch: expected i64, found i32");
}

TEST(Validator, CallIndirectRequiresTable) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(0);
  F.callIndirect(T);
  expectInvalid(MB, "call_indirect table index out of range");
}

TEST(Validator, ElseWithoutIf) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.block();
  F.elseOp();
  F.end();
  expectInvalid(MB, "else without matching if");
}

TEST(Validator, NestedControlDeep) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  const int Depth = 64;
  for (int I = 0; I < Depth; ++I)
    F.block();
  F.localGet(0);
  F.brIf(Depth - 1);
  for (int I = 0; I < Depth; ++I)
    F.end();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(M->Funcs[0].Table.Entries.size(), 1u);
  // Branch to the outermost block lands just inside the last `end` run.
  EXPECT_EQ(M->Funcs[0].Table.Entries[0].TargetIp, M->Funcs[0].BodyEnd - 1);
}

TEST(Validator, StartFunctionSignature) {
  ModuleBuilder MB;
  uint32_t T = MB.addType({ValType::I32}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.op(Opcode::Nop);
  MB.setStart(MB.funcIndex(F));
  expectInvalid(MB, "start function must have empty signature");
}

// --- Body-structure and immediate checks -------------------------------

TEST(Validator, TrailingBytesAfterEnd) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.end(); // Terminates the body; the nop and the appended end trail it.
  F.op(Opcode::Nop);
  expectInvalid(MB, "2 trailing bytes after function end");
}

TEST(Validator, BodyNotTerminated) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.block(); // The appended end closes the block, not the body.
  expectInvalid(MB, "function body not terminated by end");
}

TEST(Validator, UnknownOpcode) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.byte(0x06);
  expectInvalid(MB, "unknown opcode 0x6");
}

TEST(Validator, BlockTypeIndexOutOfRange) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.block(BlockType::funcType(9));
  F.end();
  expectInvalid(MB, "block type index 9 out of range");
}

TEST(Validator, BrTableCountExceedsBody) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.i32Const(0);
  F.op(Opcode::BrTable);
  F.u32(3); // Three targets promised, two bytes left.
  F.u32(0);
  expectInvalid(MB, "malformed br_table targets");
}

TEST(Validator, BrTableDefaultOutOfRange) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.i32Const(0);
  F.brTable({}, 3);
  expectInvalid(MB, "br_table default depth out of range");
}

TEST(Validator, BrTableTargetOutOfRange) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.i32Const(0);
  F.brTable({4}, 0);
  expectInvalid(MB, "br_table target depth out of range");
}

TEST(Validator, BrIfConditionMustBeI32) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.block();
  F.i64Const(1);
  F.brIf(0);
  F.end();
  expectInvalid(MB, "type mismatch: expected i32, found i64");
}

TEST(Validator, ReturnChecksResultType) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {ValType::I32}));
  F.f32Const(1.0f);
  F.op(Opcode::Return);
  expectInvalid(MB, "type mismatch: expected i32, found f32");
}

TEST(Validator, CallIndexOutOfRange) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.call(7);
  expectInvalid(MB, "call index out of range");
}

TEST(Validator, CallIndirectTypeOutOfRange) {
  ModuleBuilder MB;
  MB.addTable(1);
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.i32Const(0);
  F.callIndirect(9);
  expectInvalid(MB, "call_indirect type index out of range");
}

TEST(Validator, CallIndirectTableNotFuncref) {
  ModuleBuilder MB;
  MB.addTable(1, std::nullopt, ValType::ExternRef);
  uint32_t T = MB.addType({}, {});
  FuncBuilder &F = MB.addFunc(T);
  F.i32Const(0);
  F.callIndirect(T);
  expectInvalid(MB, "call_indirect table is not funcref");
}

TEST(Validator, GlobalIndexOutOfRange) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.globalGet(0);
  F.drop();
  expectInvalid(MB, "global index out of range");
}

TEST(Validator, NonzeroMemoryIndex) {
  ModuleBuilder MB;
  MB.addMemory(1);
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.op(Opcode::MemorySize);
  F.byte(1);
  F.drop();
  expectInvalid(MB, "nonzero memory index");
}

TEST(Validator, UntypedSelectOnReference) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.refNull(ValType::FuncRef);
  F.refNull(ValType::FuncRef);
  F.i32Const(1);
  F.select();
  F.drop();
  expectInvalid(MB, "untyped select on reference type");
}

TEST(Validator, SelectTRequiresOneType) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.op(Opcode::SelectT);
  F.u32(2);
  F.byte(0x7f);
  F.byte(0x7f);
  expectInvalid(MB, "select_t requires exactly one type");
}

TEST(Validator, RefIsNullOnNonReference) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.i32Const(0);
  F.refIsNull();
  F.drop();
  expectInvalid(MB, "ref.is_null on non-reference");
}

TEST(Validator, RefFuncIndexOutOfRange) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.refFunc(5);
  F.drop();
  expectInvalid(MB, "ref.func index out of range");
}

// A 42-byte module whose br_table count is 0xffffffff: rejected from the
// bytes left in the body, never by sizing anything from the count.
TEST(Validator, BrTableHugeCountRejected) {
  std::ifstream In(WISP_TESTS_DIR "/data/brtable-huge-count.wasm",
                   std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  ASSERT_EQ(Bytes.size(), 42u);
  expectInvalid(std::move(Bytes), "count 4294967295 exceeds the 2 bytes left");
}

// --- Stack polymorphism: dead code is still typed by what it pushes ----

TEST(Validator, UnreachablePushesAreTyped) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {ValType::I32}));
  F.unreachable();
  F.i64Const(0);
  F.op(Opcode::I32Add);
  expectInvalid(MB, "type mismatch: expected i32, found i64");
}

TEST(Validator, DeadLocalTeePushesLocalType) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({ValType::I32}, {}));
  F.unreachable();
  F.localTee(0); // Pops a polymorphic value, pushes an i32.
  F.op(Opcode::F32Neg);
  expectInvalid(MB, "type mismatch: expected f32, found i32");
}

TEST(Validator, DeadBrIfPushesLabelTypes) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({}, {}));
  F.block(BlockType::oneResult(ValType::I32));
  F.unreachable();
  F.brIf(0); // Re-pushes the label's i32 even when the stack is empty.
  F.op(Opcode::F32Neg);
  F.drop();
  F.i32Const(0);
  F.end();
  F.drop();
  expectInvalid(MB, "type mismatch: expected f32, found i32");
}

TEST(Validator, DeadPushesCountTowardMaxStack) {
  ModuleBuilder MB;
  FuncBuilder &F = MB.addFunc(MB.addType({ValType::I32}, {}));
  F.unreachable();
  F.localGet(0);
  F.localGet(0);
  F.localGet(0);
  F.drop();
  F.drop();
  F.drop();
  auto M = buildAndValidate(MB);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Funcs[0].MaxStack, 3u);
}

} // namespace
