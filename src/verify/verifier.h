//===- verify/verifier.h - static artifact verification ---------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static translation validation of compiled artifacts: without executing
/// anything, checks machine code (all four compiler pipelines) and
/// pre-decoded threaded IR against invariants derived from the validated
/// Wasm body. The checks are a structural mirror of the contracts the
/// executor, the tier dispatcher and the differential fuzzer rely on:
///
///   MCode (verifyMachineCode):
///    - every branch/jump target (including br_table entries) lands on an
///      instruction boundary inside the emitted code, and no reachable
///      straight-line path falls off the end,
///    - every slot the body touches is bounded by the prologue's frame
///      reservation (loads, stores, tag stores, zero-fills, Sp publishes),
///    - every function/type/global index embedded in the code resolves,
///    - the line table is strictly ascending and maps only to real opcode
///      boundaries of the source body,
///    - every potentially-trapping machine instruction is covered by a
///      line-table entry whose bytecode opcode can actually trap (the
///      trap-site-PC agreement the differ checks dynamically),
///    - call sites publish Sp and pass an argument base that matches the
///      wasm validator's operand-stack height at the call opcode,
///    - probe, deopt-checkpoint and OSR-entry metadata agree with the
///      validator's Ip/Stp coordinates (the join-point consistency the
///      tier-transfer machinery depends on).
///
///   ThreadedCode (verifyThreadedCode):
///    - units are strictly ascending and carry real opcode boundaries with
///      the validator's side-table position,
///    - every pre-resolved branch target is a unit boundary whose
///      destination slot base, merge arity, target ip and backward flag
///      match the recomputed side-table entry,
///    - superinstruction fusion never spans a probed PC or a branch-target
///      interior, and every probed offset keeps an exact unit,
///    - all embedded local/global/function/type/table indices resolve.
///
/// The pass takes the validator's per-opcode operand-stack heights and
/// side-table positions from the validator's own walk of the body
/// (wasm/walker.h), so it needs no cooperation from the compilers being
/// checked.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_VERIFY_VERIFIER_H
#define WISP_VERIFY_VERIFIER_H

#include "interp/predecode.h"
#include "machine/isa.h"
#include "wasm/module.h"

#include <functional>
#include <string>
#include <vector>

namespace wisp {

/// One verifier finding: an invariant violation in a compiled artifact.
struct VerifyFinding {
  std::string Check;  ///< Invariant identifier, e.g. "branch-target".
  uint32_t Pc = 0;    ///< Machine pc (MCode) or unit index (ThreadedCode).
  std::string Detail; ///< Human-readable description.

  std::string text() const;
};

/// Result of verifying one artifact.
struct VerifyReport {
  uint32_t FuncIndex = 0;
  std::vector<VerifyFinding> Findings;

  bool ok() const { return Findings.empty(); }
  /// All findings, one per line, prefixed with the function index.
  std::string text() const;
};

/// Which invariant families apply to an artifact. The single-pass-shaped
/// pipelines (SPC, two-pass, copy-and-patch) make the full contract; the
/// optimizing tier reorders and folds across opcodes, keeps no line table
/// and reserves staging slots beyond the validator's frame shape, so only
/// the structural checks apply there.
struct VerifyScope {
  /// The artifact promises trap-site bytecode attribution: every trapping
  /// instruction must be covered by the line table.
  bool TrapPcKnown = true;
  /// Calls/probes follow the baseline frame discipline: operands spilled
  /// to their canonical slots, arg base = locals + validator height - args.
  bool CheckCallShape = true;
  /// Static-analysis facts are present: OperandStackBound below is the
  /// analyzer's reachable-only operand-stack bound for this function, and
  /// the tightened checks apply on EVERY tier (the optimizing one
  /// included): the frame must reserve at least locals + bound slots, and
  /// every call's argument window must sit above the locals area and
  /// inside the frame reservation. Sound on the optimizing tier because
  /// its frame is locals + spills + max reachable height + scratch, and
  /// the reachable-only bound never counts dead-code pushes the optimizer
  /// may elide.
  bool HaveFacts = false;
  uint32_t OperandStackBound = 0;

  static VerifyScope baseline() { return VerifyScope{}; }
  static VerifyScope optimizing() { return VerifyScope{false, false}; }
  /// Attaches analyzer facts to either base scope.
  VerifyScope withFacts(uint32_t StackBound) const {
    VerifyScope S = *this;
    S.HaveFacts = true;
    S.OperandStackBound = StackBound;
    return S;
  }
};

/// Statically verifies one compiled function body against the validated
/// module. \p F must be the declaration \p Code was compiled from.
VerifyReport verifyMachineCode(const Module &M, const FuncDecl &F,
                               const MCode &Code, const VerifyScope &Scope);

/// Statically verifies one pre-decoded threaded-IR body. \p IsProbed
/// (optional) reports whether a bytecode offset has a probe attached, with
/// the same answers the pre-decoder saw; when supplied, fusion spans are
/// additionally checked against probe placement and every probed offset
/// must keep an exact unit.
VerifyReport
verifyThreadedCode(const Module &M, const FuncDecl &F, const ThreadedCode &TC,
                   const std::function<bool(uint32_t)> &IsProbed = {});

} // namespace wisp

#endif // WISP_VERIFY_VERIFIER_H
