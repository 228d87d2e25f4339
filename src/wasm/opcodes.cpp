//===- wasm/opcodes.cpp - WebAssembly opcode metadata tables --------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "wasm/opcodes.h"

#include <array>

using namespace wisp;

namespace {

/// Metadata tables for plain (single-byte) and 0xFC-prefixed opcodes.
struct OpTables {
  std::array<OpInfo, 256> Plain{};
  std::array<OpInfo, 16> Prefixed{};

  OpInfo &slot(Opcode Op) {
    uint16_t V = uint16_t(Op);
    if (V >= 0xFC00)
      return Prefixed[V & 0xff];
    return Plain[V];
  }

  void special(Opcode Op, const char *Name, ImmKind Imm) {
    OpInfo &I = slot(Op);
    I.Name = Name;
    I.Imm = Imm;
    I.Class = OpClass::Special;
  }

  void unop(Opcode Op, const char *Name, ValType In, ValType Out,
            bool Traps = false) {
    OpInfo &I = slot(Op);
    I.Name = Name;
    I.Imm = ImmKind::None;
    I.Class = OpClass::Simple;
    I.NPop = 1;
    I.Pop[0] = In;
    I.NPush = 1;
    I.Push = Out;
    I.CanTrap = Traps;
  }

  void binop(Opcode Op, const char *Name, ValType T, ValType Out,
             bool Traps = false) {
    OpInfo &I = slot(Op);
    I.Name = Name;
    I.Imm = ImmKind::None;
    I.Class = OpClass::Simple;
    I.NPop = 2;
    I.Pop[0] = T;
    I.Pop[1] = T;
    I.NPush = 1;
    I.Push = Out;
    I.CanTrap = Traps;
  }

  void load(Opcode Op, const char *Name, ValType Out) {
    OpInfo &I = slot(Op);
    I.Name = Name;
    I.Imm = ImmKind::MemArg;
    I.Class = OpClass::Simple;
    I.NPop = 1;
    I.Pop[0] = ValType::I32;
    I.NPush = 1;
    I.Push = Out;
    I.CanTrap = true;
  }

  void store(Opcode Op, const char *Name, ValType In) {
    OpInfo &I = slot(Op);
    I.Name = Name;
    I.Imm = ImmKind::MemArg;
    I.Class = OpClass::Simple;
    I.NPop = 2;
    I.Pop[0] = ValType::I32;
    I.Pop[1] = In;
    I.NPush = 0;
    I.CanTrap = true;
  }
};

} // namespace

static OpTables buildTables() {
  using O = Opcode;
  using V = ValType;
  OpTables T;

  T.special(O::Unreachable, "unreachable", ImmKind::None);
  T.special(O::Nop, "nop", ImmKind::None);
  T.special(O::Block, "block", ImmKind::BlockType);
  T.special(O::Loop, "loop", ImmKind::BlockType);
  T.special(O::If, "if", ImmKind::BlockType);
  T.special(O::Else, "else", ImmKind::None);
  T.special(O::End, "end", ImmKind::None);
  T.special(O::Br, "br", ImmKind::LabelIdx);
  T.special(O::BrIf, "br_if", ImmKind::LabelIdx);
  T.special(O::BrTable, "br_table", ImmKind::BrTable);
  T.special(O::Return, "return", ImmKind::None);
  T.special(O::Call, "call", ImmKind::FuncIdx);
  T.special(O::CallIndirect, "call_indirect", ImmKind::CallIndirect);
  T.special(O::Drop, "drop", ImmKind::None);
  T.special(O::Select, "select", ImmKind::None);
  T.special(O::SelectT, "select", ImmKind::TypeVec);
  T.special(O::LocalGet, "local.get", ImmKind::LocalIdx);
  T.special(O::LocalSet, "local.set", ImmKind::LocalIdx);
  T.special(O::LocalTee, "local.tee", ImmKind::LocalIdx);
  T.special(O::GlobalGet, "global.get", ImmKind::GlobalIdx);
  T.special(O::GlobalSet, "global.set", ImmKind::GlobalIdx);
  T.special(O::I32Const, "i32.const", ImmKind::I32Imm);
  T.special(O::I64Const, "i64.const", ImmKind::I64Imm);
  T.special(O::F32Const, "f32.const", ImmKind::F32Imm);
  T.special(O::F64Const, "f64.const", ImmKind::F64Imm);
  T.special(O::RefNull, "ref.null", ImmKind::RefType);
  T.special(O::RefFunc, "ref.func", ImmKind::FuncIdx);
  T.special(O::MemoryCopy, "memory.copy", ImmKind::MemMemIdx);
  T.special(O::MemoryFill, "memory.fill", ImmKind::MemIdx);

  // memory.size / memory.grow have fixed signatures.
  {
    OpInfo &I = T.slot(O::MemorySize);
    I.Name = "memory.size";
    I.Imm = ImmKind::MemIdx;
    I.Class = OpClass::Simple;
    I.NPush = 1;
    I.Push = V::I32;
  }
  T.unop(O::MemoryGrow, "memory.grow", V::I32, V::I32);
  T.slot(O::MemoryGrow).Imm = ImmKind::MemIdx;
  T.unop(O::RefIsNull, "ref.is_null", V::ExternRef, V::I32);
  T.slot(O::RefIsNull).Class = OpClass::Special; // Accepts any ref type.

  // Loads.
  T.load(O::I32Load, "i32.load", V::I32);
  T.load(O::I64Load, "i64.load", V::I64);
  T.load(O::F32Load, "f32.load", V::F32);
  T.load(O::F64Load, "f64.load", V::F64);
  T.load(O::I32Load8S, "i32.load8_s", V::I32);
  T.load(O::I32Load8U, "i32.load8_u", V::I32);
  T.load(O::I32Load16S, "i32.load16_s", V::I32);
  T.load(O::I32Load16U, "i32.load16_u", V::I32);
  T.load(O::I64Load8S, "i64.load8_s", V::I64);
  T.load(O::I64Load8U, "i64.load8_u", V::I64);
  T.load(O::I64Load16S, "i64.load16_s", V::I64);
  T.load(O::I64Load16U, "i64.load16_u", V::I64);
  T.load(O::I64Load32S, "i64.load32_s", V::I64);
  T.load(O::I64Load32U, "i64.load32_u", V::I64);

  // Stores.
  T.store(O::I32Store, "i32.store", V::I32);
  T.store(O::I64Store, "i64.store", V::I64);
  T.store(O::F32Store, "f32.store", V::F32);
  T.store(O::F64Store, "f64.store", V::F64);
  T.store(O::I32Store8, "i32.store8", V::I32);
  T.store(O::I32Store16, "i32.store16", V::I32);
  T.store(O::I64Store8, "i64.store8", V::I64);
  T.store(O::I64Store16, "i64.store16", V::I64);
  T.store(O::I64Store32, "i64.store32", V::I64);

  // i32 comparisons.
  T.unop(O::I32Eqz, "i32.eqz", V::I32, V::I32);
  T.binop(O::I32Eq, "i32.eq", V::I32, V::I32);
  T.binop(O::I32Ne, "i32.ne", V::I32, V::I32);
  T.binop(O::I32LtS, "i32.lt_s", V::I32, V::I32);
  T.binop(O::I32LtU, "i32.lt_u", V::I32, V::I32);
  T.binop(O::I32GtS, "i32.gt_s", V::I32, V::I32);
  T.binop(O::I32GtU, "i32.gt_u", V::I32, V::I32);
  T.binop(O::I32LeS, "i32.le_s", V::I32, V::I32);
  T.binop(O::I32LeU, "i32.le_u", V::I32, V::I32);
  T.binop(O::I32GeS, "i32.ge_s", V::I32, V::I32);
  T.binop(O::I32GeU, "i32.ge_u", V::I32, V::I32);

  // i64 comparisons (result i32).
  T.unop(O::I64Eqz, "i64.eqz", V::I64, V::I32);
  T.binop(O::I64Eq, "i64.eq", V::I64, V::I32);
  T.binop(O::I64Ne, "i64.ne", V::I64, V::I32);
  T.binop(O::I64LtS, "i64.lt_s", V::I64, V::I32);
  T.binop(O::I64LtU, "i64.lt_u", V::I64, V::I32);
  T.binop(O::I64GtS, "i64.gt_s", V::I64, V::I32);
  T.binop(O::I64GtU, "i64.gt_u", V::I64, V::I32);
  T.binop(O::I64LeS, "i64.le_s", V::I64, V::I32);
  T.binop(O::I64LeU, "i64.le_u", V::I64, V::I32);
  T.binop(O::I64GeS, "i64.ge_s", V::I64, V::I32);
  T.binop(O::I64GeU, "i64.ge_u", V::I64, V::I32);

  // Float comparisons (result i32).
  T.binop(O::F32Eq, "f32.eq", V::F32, V::I32);
  T.binop(O::F32Ne, "f32.ne", V::F32, V::I32);
  T.binop(O::F32Lt, "f32.lt", V::F32, V::I32);
  T.binop(O::F32Gt, "f32.gt", V::F32, V::I32);
  T.binop(O::F32Le, "f32.le", V::F32, V::I32);
  T.binop(O::F32Ge, "f32.ge", V::F32, V::I32);
  T.binop(O::F64Eq, "f64.eq", V::F64, V::I32);
  T.binop(O::F64Ne, "f64.ne", V::F64, V::I32);
  T.binop(O::F64Lt, "f64.lt", V::F64, V::I32);
  T.binop(O::F64Gt, "f64.gt", V::F64, V::I32);
  T.binop(O::F64Le, "f64.le", V::F64, V::I32);
  T.binop(O::F64Ge, "f64.ge", V::F64, V::I32);

  // i32 arithmetic.
  T.unop(O::I32Clz, "i32.clz", V::I32, V::I32);
  T.unop(O::I32Ctz, "i32.ctz", V::I32, V::I32);
  T.unop(O::I32Popcnt, "i32.popcnt", V::I32, V::I32);
  T.binop(O::I32Add, "i32.add", V::I32, V::I32);
  T.binop(O::I32Sub, "i32.sub", V::I32, V::I32);
  T.binop(O::I32Mul, "i32.mul", V::I32, V::I32);
  T.binop(O::I32DivS, "i32.div_s", V::I32, V::I32, true);
  T.binop(O::I32DivU, "i32.div_u", V::I32, V::I32, true);
  T.binop(O::I32RemS, "i32.rem_s", V::I32, V::I32, true);
  T.binop(O::I32RemU, "i32.rem_u", V::I32, V::I32, true);
  T.binop(O::I32And, "i32.and", V::I32, V::I32);
  T.binop(O::I32Or, "i32.or", V::I32, V::I32);
  T.binop(O::I32Xor, "i32.xor", V::I32, V::I32);
  T.binop(O::I32Shl, "i32.shl", V::I32, V::I32);
  T.binop(O::I32ShrS, "i32.shr_s", V::I32, V::I32);
  T.binop(O::I32ShrU, "i32.shr_u", V::I32, V::I32);
  T.binop(O::I32Rotl, "i32.rotl", V::I32, V::I32);
  T.binop(O::I32Rotr, "i32.rotr", V::I32, V::I32);

  // i64 arithmetic.
  T.unop(O::I64Clz, "i64.clz", V::I64, V::I64);
  T.unop(O::I64Ctz, "i64.ctz", V::I64, V::I64);
  T.unop(O::I64Popcnt, "i64.popcnt", V::I64, V::I64);
  T.binop(O::I64Add, "i64.add", V::I64, V::I64);
  T.binop(O::I64Sub, "i64.sub", V::I64, V::I64);
  T.binop(O::I64Mul, "i64.mul", V::I64, V::I64);
  T.binop(O::I64DivS, "i64.div_s", V::I64, V::I64, true);
  T.binop(O::I64DivU, "i64.div_u", V::I64, V::I64, true);
  T.binop(O::I64RemS, "i64.rem_s", V::I64, V::I64, true);
  T.binop(O::I64RemU, "i64.rem_u", V::I64, V::I64, true);
  T.binop(O::I64And, "i64.and", V::I64, V::I64);
  T.binop(O::I64Or, "i64.or", V::I64, V::I64);
  T.binop(O::I64Xor, "i64.xor", V::I64, V::I64);
  T.binop(O::I64Shl, "i64.shl", V::I64, V::I64);
  T.binop(O::I64ShrS, "i64.shr_s", V::I64, V::I64);
  T.binop(O::I64ShrU, "i64.shr_u", V::I64, V::I64);
  T.binop(O::I64Rotl, "i64.rotl", V::I64, V::I64);
  T.binop(O::I64Rotr, "i64.rotr", V::I64, V::I64);

  // f32 arithmetic.
  T.unop(O::F32Abs, "f32.abs", V::F32, V::F32);
  T.unop(O::F32Neg, "f32.neg", V::F32, V::F32);
  T.unop(O::F32Ceil, "f32.ceil", V::F32, V::F32);
  T.unop(O::F32Floor, "f32.floor", V::F32, V::F32);
  T.unop(O::F32Trunc, "f32.trunc", V::F32, V::F32);
  T.unop(O::F32Nearest, "f32.nearest", V::F32, V::F32);
  T.unop(O::F32Sqrt, "f32.sqrt", V::F32, V::F32);
  T.binop(O::F32Add, "f32.add", V::F32, V::F32);
  T.binop(O::F32Sub, "f32.sub", V::F32, V::F32);
  T.binop(O::F32Mul, "f32.mul", V::F32, V::F32);
  T.binop(O::F32Div, "f32.div", V::F32, V::F32);
  T.binop(O::F32Min, "f32.min", V::F32, V::F32);
  T.binop(O::F32Max, "f32.max", V::F32, V::F32);
  T.binop(O::F32Copysign, "f32.copysign", V::F32, V::F32);

  // f64 arithmetic.
  T.unop(O::F64Abs, "f64.abs", V::F64, V::F64);
  T.unop(O::F64Neg, "f64.neg", V::F64, V::F64);
  T.unop(O::F64Ceil, "f64.ceil", V::F64, V::F64);
  T.unop(O::F64Floor, "f64.floor", V::F64, V::F64);
  T.unop(O::F64Trunc, "f64.trunc", V::F64, V::F64);
  T.unop(O::F64Nearest, "f64.nearest", V::F64, V::F64);
  T.unop(O::F64Sqrt, "f64.sqrt", V::F64, V::F64);
  T.binop(O::F64Add, "f64.add", V::F64, V::F64);
  T.binop(O::F64Sub, "f64.sub", V::F64, V::F64);
  T.binop(O::F64Mul, "f64.mul", V::F64, V::F64);
  T.binop(O::F64Div, "f64.div", V::F64, V::F64);
  T.binop(O::F64Min, "f64.min", V::F64, V::F64);
  T.binop(O::F64Max, "f64.max", V::F64, V::F64);
  T.binop(O::F64Copysign, "f64.copysign", V::F64, V::F64);

  // Conversions.
  T.unop(O::I32WrapI64, "i32.wrap_i64", V::I64, V::I32);
  T.unop(O::I32TruncF32S, "i32.trunc_f32_s", V::F32, V::I32, true);
  T.unop(O::I32TruncF32U, "i32.trunc_f32_u", V::F32, V::I32, true);
  T.unop(O::I32TruncF64S, "i32.trunc_f64_s", V::F64, V::I32, true);
  T.unop(O::I32TruncF64U, "i32.trunc_f64_u", V::F64, V::I32, true);
  T.unop(O::I64ExtendI32S, "i64.extend_i32_s", V::I32, V::I64);
  T.unop(O::I64ExtendI32U, "i64.extend_i32_u", V::I32, V::I64);
  T.unop(O::I64TruncF32S, "i64.trunc_f32_s", V::F32, V::I64, true);
  T.unop(O::I64TruncF32U, "i64.trunc_f32_u", V::F32, V::I64, true);
  T.unop(O::I64TruncF64S, "i64.trunc_f64_s", V::F64, V::I64, true);
  T.unop(O::I64TruncF64U, "i64.trunc_f64_u", V::F64, V::I64, true);
  T.unop(O::F32ConvertI32S, "f32.convert_i32_s", V::I32, V::F32);
  T.unop(O::F32ConvertI32U, "f32.convert_i32_u", V::I32, V::F32);
  T.unop(O::F32ConvertI64S, "f32.convert_i64_s", V::I64, V::F32);
  T.unop(O::F32ConvertI64U, "f32.convert_i64_u", V::I64, V::F32);
  T.unop(O::F32DemoteF64, "f32.demote_f64", V::F64, V::F32);
  T.unop(O::F64ConvertI32S, "f64.convert_i32_s", V::I32, V::F64);
  T.unop(O::F64ConvertI32U, "f64.convert_i32_u", V::I32, V::F64);
  T.unop(O::F64ConvertI64S, "f64.convert_i64_s", V::I64, V::F64);
  T.unop(O::F64ConvertI64U, "f64.convert_i64_u", V::I64, V::F64);
  T.unop(O::F64PromoteF32, "f64.promote_f32", V::F32, V::F64);
  T.unop(O::I32ReinterpretF32, "i32.reinterpret_f32", V::F32, V::I32);
  T.unop(O::I64ReinterpretF64, "i64.reinterpret_f64", V::F64, V::I64);
  T.unop(O::F32ReinterpretI32, "f32.reinterpret_i32", V::I32, V::F32);
  T.unop(O::F64ReinterpretI64, "f64.reinterpret_i64", V::I64, V::F64);
  T.unop(O::I32Extend8S, "i32.extend8_s", V::I32, V::I32);
  T.unop(O::I32Extend16S, "i32.extend16_s", V::I32, V::I32);
  T.unop(O::I64Extend8S, "i64.extend8_s", V::I64, V::I64);
  T.unop(O::I64Extend16S, "i64.extend16_s", V::I64, V::I64);
  T.unop(O::I64Extend32S, "i64.extend32_s", V::I64, V::I64);

  // Saturating truncations (0xFC prefix).
  T.unop(O::I32TruncSatF32S, "i32.trunc_sat_f32_s", V::F32, V::I32);
  T.unop(O::I32TruncSatF32U, "i32.trunc_sat_f32_u", V::F32, V::I32);
  T.unop(O::I32TruncSatF64S, "i32.trunc_sat_f64_s", V::F64, V::I32);
  T.unop(O::I32TruncSatF64U, "i32.trunc_sat_f64_u", V::F64, V::I32);
  T.unop(O::I64TruncSatF32S, "i64.trunc_sat_f32_s", V::F32, V::I64);
  T.unop(O::I64TruncSatF32U, "i64.trunc_sat_f32_u", V::F32, V::I64);
  T.unop(O::I64TruncSatF64S, "i64.trunc_sat_f64_s", V::F64, V::I64);
  T.unop(O::I64TruncSatF64U, "i64.trunc_sat_f64_u", V::F64, V::I64);
  return T;
}

static const OpTables &opTables() {
  static const OpTables Tables = buildTables();
  return Tables;
}

const OpInfo &wisp::opInfo(Opcode Op) {
  const OpTables &T = opTables();
  uint16_t V = uint16_t(Op);
  if (V >= 0xFC00) {
    static const OpInfo Invalid{};
    unsigned Sub = V & 0xff;
    if (Sub >= T.Prefixed.size())
      return Invalid;
    return T.Prefixed[Sub];
  }
  return T.Plain[V];
}

const char *wisp::opName(Opcode Op) {
  const OpInfo &I = opInfo(Op);
  return I.Name ? I.Name : "<invalid>";
}

uint32_t wisp::memAccessSize(Opcode Op) {
  switch (Op) {
  case Opcode::I32Load8S:
  case Opcode::I32Load8U:
  case Opcode::I64Load8S:
  case Opcode::I64Load8U:
  case Opcode::I32Store8:
  case Opcode::I64Store8:
    return 1;
  case Opcode::I32Load16S:
  case Opcode::I32Load16U:
  case Opcode::I64Load16S:
  case Opcode::I64Load16U:
  case Opcode::I32Store16:
  case Opcode::I64Store16:
    return 2;
  case Opcode::I32Load:
  case Opcode::F32Load:
  case Opcode::I64Load32S:
  case Opcode::I64Load32U:
  case Opcode::I32Store:
  case Opcode::F32Store:
  case Opcode::I64Store32:
    return 4;
  case Opcode::I64Load:
  case Opcode::F64Load:
  case Opcode::I64Store:
  case Opcode::F64Store:
    return 8;
  default:
    return 0;
  }
}
