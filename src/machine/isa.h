//===- machine/isa.h - simulated target instruction set ---------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation target: a compact register machine with 16 general
/// registers and 16 float registers, fixed-width instructions, immediate
/// operand forms, fused compare-and-branch, explicit value-stack slot
/// load/store/tag-store instructions, and probe/deopt pseudo-instructions.
///
/// This ISA substitutes for the paper's x86-64 code generation (see
/// DESIGN.md): every phenomenon the paper measures — spill traffic,
/// immediate-mode selection, value-tag stores, probe call overhead — is a
/// property of the dynamic instruction stream, which this target preserves
/// while remaining portable and deterministic. The executor additionally
/// charges a per-instruction cycle cost so experiments can report a
/// deterministic metric alongside wall-clock time.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_MACHINE_ISA_H
#define WISP_MACHINE_ISA_H

#include "wasm/types.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace wisp {

/// Register number within a class (general or float).
using Reg = uint8_t;
constexpr Reg NumGpRegs = 16;
constexpr Reg NumFpRegs = 16;
constexpr Reg NoReg = 0xff;

/// Integer comparison conditions (D field of compare/branch instructions).
enum class Cond : uint8_t { Eq, Ne, LtS, LtU, GtS, GtU, LeS, LeU, GeS, GeU };

/// Float comparison conditions.
enum class FCond : uint8_t { Eq, Ne, Lt, Gt, Le, Ge };

/// Returns the negation of a condition (used by branch folding and the
/// compare+branch peephole).
inline Cond negate(Cond C) {
  switch (C) {
  case Cond::Eq:
    return Cond::Ne;
  case Cond::Ne:
    return Cond::Eq;
  case Cond::LtS:
    return Cond::GeS;
  case Cond::LtU:
    return Cond::GeU;
  case Cond::GtS:
    return Cond::LeS;
  case Cond::GtU:
    return Cond::LeU;
  case Cond::LeS:
    return Cond::GtS;
  case Cond::LeU:
    return Cond::GtU;
  case Cond::GeS:
    return Cond::LtS;
  case Cond::GeU:
    return Cond::LtU;
  }
  return Cond::Eq;
}

inline bool evalCond32(Cond C, uint32_t A, uint32_t B) {
  switch (C) {
  case Cond::Eq:
    return A == B;
  case Cond::Ne:
    return A != B;
  case Cond::LtS:
    return int32_t(A) < int32_t(B);
  case Cond::LtU:
    return A < B;
  case Cond::GtS:
    return int32_t(A) > int32_t(B);
  case Cond::GtU:
    return A > B;
  case Cond::LeS:
    return int32_t(A) <= int32_t(B);
  case Cond::LeU:
    return A <= B;
  case Cond::GeS:
    return int32_t(A) >= int32_t(B);
  case Cond::GeU:
    return A >= B;
  }
  return false;
}

inline bool evalCond64(Cond C, uint64_t A, uint64_t B) {
  switch (C) {
  case Cond::Eq:
    return A == B;
  case Cond::Ne:
    return A != B;
  case Cond::LtS:
    return int64_t(A) < int64_t(B);
  case Cond::LtU:
    return A < B;
  case Cond::GtS:
    return int64_t(A) > int64_t(B);
  case Cond::GtU:
    return A > B;
  case Cond::LeS:
    return int64_t(A) <= int64_t(B);
  case Cond::LeU:
    return A <= B;
  case Cond::GeS:
    return int64_t(A) >= int64_t(B);
  case Cond::GeU:
    return A >= B;
  }
  return false;
}

template <typename T> inline bool evalCondF(FCond C, T A, T B) {
  switch (C) {
  case FCond::Eq:
    return A == B;
  case FCond::Ne:
    return A != B;
  case FCond::Lt:
    return A < B;
  case FCond::Gt:
    return A > B;
  case FCond::Le:
    return A <= B;
  case FCond::Ge:
    return A >= B;
  }
  return false;
}

/// Machine opcodes, generated from the one opcode list in mops.def (see
/// executor.cpp for exact semantics). NumOps counts them and is not an
/// opcode.
enum class MOp : uint16_t {
#define WISP_MOP(Name) Name,
#include "machine/mops.def"
  NumOps
};

/// One fixed-width machine instruction.
struct MInst {
  MOp Op = MOp::Nop;
  uint8_t A = 0;
  uint8_t B = 0;
  uint8_t C = 0;
  uint8_t D = 0;
  int64_t Imm = 0;
  int64_t Imm2 = 0;
};

/// A record of which value-stack slots hold references at a call site
/// (stackmap-based GC configurations, paper §IV.C).
struct StackMapEntry {
  uint32_t Pc = 0;
  uint32_t Height = 0; ///< Live operand height (slots above locals).
  std::vector<uint32_t> RefSlots; ///< Slot indexes relative to VFP.

  size_t byteSize() const { return 8 + 4 * RefSlots.size(); }
};

/// Per-compile statistics, also used by the compile-speed experiments.
struct CompileStats {
  uint64_t CodeInsts = 0;
  uint64_t TagStores = 0;   ///< Static count of StTag instructions.
  uint64_t StackMapBytes = 0;
  uint64_t SnapshotBytes = 0; ///< Abstract-state snapshot traffic.
};

/// One line-table entry: machine instructions at or after \p Pc (up to the
/// next entry) were emitted for the bytecode instruction at \p Ip.
struct LineEntry {
  uint32_t Pc = 0;
  uint32_t Ip = 0;
};

/// What a bind-time patch point resolves. Compiled artifacts are
/// position-independent: nothing process- or instance-absolute is ever
/// baked into an instruction stream. Anything that needs such an address
/// records a patch point instead, and the engine applies the table against
/// its own registries immediately before installing the code — which is
/// what lets artifacts be content-addressed, shared across engines, and
/// persisted to disk (cache/diskcache.h).
enum class PatchKind : uint8_t {
  /// Insts[Pc] is a CntInc whose Imm must become the address of the
  /// probe-counter cell attached at bytecode offset Operand. Until bound,
  /// the Imm is 0 (the verifier enforces this, so no artifact crossing a
  /// process boundary can smuggle an absolute address through CntInc).
  CounterCell,
};

/// One bind-time patch: kind + instruction pc + kind-specific operand.
struct PatchPoint {
  PatchKind Kind = PatchKind::CounterCell;
  uint32_t Pc = 0;
  uint64_t Operand = 0;
};

/// Compiled machine code for one function.
class MCode {
public:
  std::vector<MInst> Insts;
  std::vector<std::vector<uint32_t>> BrTables;
  std::vector<StackMapEntry> StackMaps;
  /// Machine-pc -> bytecode-offset line table, sorted by Pc. Single-pass
  /// pipelines (SPC, copy-and-patch, two-pass) record one entry per
  /// translated opcode, so the executor can attribute a trap to the exact
  /// faulting bytecode — the same coordinate the interpreters report. The
  /// optimizing pipeline reorders and folds across opcodes and leaves this
  /// empty (trap bytecode offsets are unavailable on that tier).
  std::vector<LineEntry> LineTable;
  /// OSR entry points: bytecode loop-header offset -> machine pc (state is
  /// fully spilled there).
  struct OsrEntry {
    uint32_t Ip = 0;
    uint32_t Stp = 0;
    uint32_t Pc = 0;
  };
  std::vector<OsrEntry> OsrEntries;
  /// Bind-time patch table (see PatchKind): every engine-absolute operand
  /// lives here, keyed by pc, and the instruction stream stays relocatable
  /// until Engine installs the artifact. Empty for unprobed bodies — the
  /// only artifacts the compile cache (and the disk cache) ever hold.
  std::vector<PatchPoint> Patches;
  uint32_t FuncIndex = 0;
  uint32_t FrameSlots = 0;
  CompileStats Stats;

  /// Finds the OSR entry for a loop header, or nullptr.
  const OsrEntry *findOsrEntry(uint32_t Ip) const {
    for (const OsrEntry &E : OsrEntries)
      if (E.Ip == Ip)
        return &E;
    return nullptr;
  }

  /// Appends a line-table entry for the bytecode at \p Ip whose code
  /// starts at the current end of Insts (coalescing empty emissions).
  void noteLine(uint32_t Ip) {
    uint32_t Pc = uint32_t(Insts.size());
    // Keep the table sorted: an opcode that emitted nothing is shadowed by
    // its successor at the same pc. A *strictly* greater recorded Pc would
    // mean the instruction stream shrank since that entry was recorded —
    // no emitter rewinds Insts, and silently absorbing such an entry would
    // erase valid trap attribution — so it is an emitter bug, rejected in
    // debug builds rather than papered over.
    while (!LineTable.empty() && LineTable.back().Pc >= Pc) {
      assert(LineTable.back().Pc == Pc &&
             "non-monotonic line table: emitter rewound the code stream");
      LineTable.pop_back();
    }
    LineTable.push_back({Pc, Ip});
  }

  /// Maps a machine pc back to the bytecode offset of the instruction it
  /// was emitted for; \p Fallback when no line table was recorded.
  uint32_t ipForPc(uint32_t Pc, uint32_t Fallback) const {
    if (LineTable.empty())
      return Fallback;
    // Last entry with Entry.Pc <= Pc (the table is sorted by Pc).
    size_t Lo = 0, Hi = LineTable.size();
    while (Lo + 1 < Hi) {
      size_t Mid = (Lo + Hi) / 2;
      if (LineTable[Mid].Pc <= Pc)
        Lo = Mid;
      else
        Hi = Mid;
    }
    return LineTable[Lo].Pc <= Pc ? LineTable[Lo].Ip : Fallback;
  }

  /// Finds the stackmap covering \p Pc, or nullptr.
  const StackMapEntry *findStackMap(uint32_t Pc) const {
    for (const StackMapEntry &E : StackMaps)
      if (E.Pc == Pc)
        return &E;
    return nullptr;
  }

  size_t codeByteSize() const { return Insts.size() * sizeof(MInst); }

  /// Renders a human-readable listing (examples, debugging).
  std::string toString() const;
};

/// Printable mnemonic of a machine opcode.
const char *mopName(MOp Op);

} // namespace wisp

#endif // WISP_MACHINE_ISA_H
