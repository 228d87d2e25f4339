//===- baselines/twopass.cpp - wazero-shaped two-pass compiler --------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "baselines/twopass.h"

#include "wasm/codereader.h"

using namespace wisp;

namespace {

/// One listing-IR operation (wazero's internal representation: fully
/// decoded operands plus the operand-stack height at the operation).
struct ListOp {
  Opcode Op = Opcode::Nop;
  uint32_t Ip = 0;
  int32_t Height = 0;
  uint64_t ImmA = 0;
  uint64_t ImmB = 0;
  std::vector<uint32_t> Targets; ///< br_table only.
};

/// Pass 1: decode the function into the listing and compute stack heights.
/// The output drives wazero's register allocator in the real engine; here
/// the decoded listing is materialized (allocation and all) and codegen
/// re-walks the function, which costs the same second pass.
static std::vector<ListOp> buildListing(const Module &M, const FuncDecl &F) {
  std::vector<ListOp> Listing;
  Listing.reserve((F.BodyEnd - F.BodyStart) / 2);
  CodeReader R(M.Bytes.data(), F.BodyStart, F.BodyEnd);
  int32_t Height = 0;
  while (!R.atEnd()) {
    ListOp L;
    L.Ip = uint32_t(R.pc());
    L.Op = R.readOpcode();
    L.Height = Height;
    const OpInfo &Info = opInfo(L.Op);
    switch (Info.Imm) {
    case ImmKind::BlockType:
      (void)R.readBlockType();
      break;
    case ImmKind::LabelIdx:
    case ImmKind::FuncIdx:
    case ImmKind::LocalIdx:
    case ImmKind::GlobalIdx:
      L.ImmA = R.readU32();
      break;
    case ImmKind::BrTable: {
      uint32_t N = R.readU32();
      for (uint32_t I = 0; I < N; ++I)
        L.Targets.push_back(R.readU32());
      L.ImmA = R.readU32();
      break;
    }
    case ImmKind::CallIndirect:
      L.ImmA = R.readU32();
      L.ImmB = R.readU32();
      break;
    case ImmKind::MemArg: {
      MemArg A = R.readMemArg();
      L.ImmA = A.Align;
      L.ImmB = A.Offset;
      break;
    }
    case ImmKind::I32Imm:
      L.ImmA = uint64_t(uint32_t(R.readS32()));
      break;
    case ImmKind::I64Imm:
      L.ImmA = uint64_t(R.readS64());
      break;
    case ImmKind::F32Imm:
      L.ImmA = R.readF32Bits();
      break;
    case ImmKind::F64Imm:
      L.ImmA = R.readF64Bits();
      break;
    default:
      R.skipImms(L.Op);
      break;
    }
    // Height analysis for the fixed-signature operations (control flow is
    // re-analyzed by codegen).
    if (Info.Class == OpClass::Simple)
      Height += int32_t(Info.NPush) - int32_t(Info.NPop);
    Listing.push_back(std::move(L));
  }
  return Listing;
}

} // namespace

std::unique_ptr<MCode> wisp::compileTwoPass(const Module &M,
                                            const FuncDecl &F,
                                            const CompilerOptions &Opts,
                                            const ProbeSiteOracle *Probes) {
  // Pass 1: lower to the listing IR.
  std::vector<ListOp> Listing = buildListing(M, F);
  // Pass 2: code generation with wazero's feature set (Fig. 3: R only).
  CompilerOptions Restricted = Opts;
  Restricted.TrackConstants = false;
  Restricted.ConstantFolding = false;
  Restricted.InstructionSelect = false;
  Restricted.MultiRegister = false;
  Restricted.Peephole = false;
  Restricted.Tags = TagMode::None; // wazero's host is not garbage-collected.
  std::unique_ptr<MCode> Code = compileFunction(M, F, Restricted, Probes);
  // Keep a record of the listing cost in the snapshot-byte statistic so
  // compile-speed analyses can attribute it.
  Code->Stats.SnapshotBytes += Listing.size() * sizeof(ListOp);
  return Code;
}
