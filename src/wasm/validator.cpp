//===- wasm/validator.cpp - WebAssembly validation -------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "wasm/validator.h"

#include "support/format.h"
#include "wasm/walker.h"

using namespace wisp;

namespace {

/// The validator's visitor of the body walk: it materializes the side
/// table the walker's cursor counts and reports diagnostics. A forward
/// branch's entry is threaded through the TargetIp fields of its label's
/// other unpatched entries, and the chain is patched when the label's
/// construct ends.
class SideTableBuilder : public BodyWalker<SideTableBuilder> {
public:
  SideTableBuilder(Module &M, FuncDecl &F, WasmError *Err)
      : BodyWalker(M, F), Fn(F), Err(Err) {
    Labels.emplace_back(); // The function label.
  }

  bool run() {
    if (!walk())
      return false;
    Fn.MaxStack = maxHeight();
    Fn.Table.Entries = std::move(ST);
    return true;
  }

  void onBlock(Opcode Op) {
    Label L;
    if (Op == Opcode::If)
      L.IfEntry = emit(frame(0).Params.size()); // The false edge.
    if (Op == Opcode::Loop) {
      L.HeaderIp = uint32_t(pc());
      L.HeaderStp = uint32_t(ST.size());
    }
    Labels.push_back(L);
  }

  void onElse() {
    Label &L = Labels.back();
    link(L, emit(frame(0).Results.size())); // The else-skip edge.
    // The false edge lands just after the else opcode.
    ST[L.IfEntry].TargetIp = uint32_t(pc());
    ST[L.IfEntry].TargetStp = uint32_t(ST.size());
    L.IfEntry = None;
  }

  void onEnd(uint32_t Pc) {
    Label L = Labels.back();
    Labels.pop_back();
    if (L.IfEntry != None)
      link(L, L.IfEntry);
    // Inner branches land just past their construct's `end`; branches to
    // the function label land ON the terminating `end` opcode, whose
    // handler is the return path (landing past it would walk the
    // interpreter off the body into adjacent module bytes).
    uint32_t Ip = depth() == 0 ? Pc : uint32_t(pc());
    for (uint32_t I = L.Head; I != None;) {
      uint32_t Next = ST[I].TargetIp;
      ST[I].TargetIp = Ip;
      ST[I].TargetStp = uint32_t(ST.size());
      I = Next;
    }
  }

  /// Loop targets resolve immediately; forward targets join the chain.
  void onBranch(uint32_t Depth) {
    const WalkFrame &C = frame(Depth);
    Label &L = Labels[Labels.size() - 1 - Depth];
    uint32_t Idx = emit(C.labelTypes().size(), Depth);
    if (C.Kind == Opcode::Loop) {
      ST[Idx].TargetIp = L.HeaderIp;
      ST[Idx].TargetStp = L.HeaderStp;
    } else {
      link(L, Idx);
    }
  }

  void onError(std::string Msg) {
    if (!Err)
      return;
    Err->Message = strFormat("func %u: ", F.Index) + Msg;
    Err->Offset = pc();
  }

private:
  static constexpr uint32_t None = ~0u;
  /// Per-frame patch state, parallel to the walker's frames.
  struct Label {
    uint32_t Head = None;    ///< Unpatched entries targeting the end.
    uint32_t IfEntry = None; ///< If only: the false edge, until else.
    uint32_t HeaderIp = 0;   ///< Loop only: first body instruction...
    uint32_t HeaderStp = 0;  ///< ...and the side-table position there.
  };

  /// Appends an entry for a transfer to frame(\p Depth) carrying
  /// \p ValCount values; returns its index.
  uint32_t emit(uint32_t ValCount, uint32_t Depth = 0) {
    SideTableEntry E;
    E.ValCount = ValCount;
    E.TargetHeight = frame(Depth).Height;
    ST.push_back(E);
    return uint32_t(ST.size() - 1);
  }
  void link(Label &L, uint32_t Idx) {
    ST[Idx].TargetIp = L.Head;
    L.Head = Idx;
  }

  FuncDecl &Fn;
  WasmError *Err;
  std::vector<SideTableEntry> ST;
  std::vector<Label> Labels;
};

} // namespace

bool wisp::validateFunction(Module &M, FuncDecl &F, WasmError *Err) {
  return SideTableBuilder(M, F, Err).run();
}

/// Checks one constant initializer at module level. The reader enforces
/// the same rules at decode time; this pass is defense-in-depth for
/// modules assembled programmatically (fuzzer mutations, future binary
/// paths) and is what instantiation's in-order global evaluation — and
/// the instance-image builder's pre-evaluation — rely on: a global.get
/// may only name an already-defined immutable global, so every read
/// observes an initialized value.
static bool validateInitExpr(const Module &M, const InitExpr &E,
                             uint32_t DefinedBoundary, ValType Expect,
                             const char *What, WasmError *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      Err->Message = Msg;
    return false;
  };
  if (E.K == InitExpr::GlobalGet) {
    if (E.Index >= DefinedBoundary)
      return Fail(strFormat("%s references undefined global %u", What,
                            E.Index));
    if (M.Globals[E.Index].Mutable)
      return Fail(strFormat("%s references mutable global %u", What, E.Index));
    if (M.Globals[E.Index].Type != Expect)
      return Fail(strFormat("%s type mismatch", What));
  } else if (E.K == InitExpr::RefFuncIdx) {
    if (E.Index >= M.Funcs.size())
      return Fail(strFormat("%s ref.func index out of range", What));
  } else if (E.K == InitExpr::Const && E.Type != Expect) {
    return Fail(strFormat("%s type mismatch", What));
  }
  return true;
}

bool wisp::validateModule(Module &M, WasmError *Err) {
  // Global initializers: each may only consult globals defined before it
  // (imports precede all definitions in index space).
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const GlobalDecl &G = M.Globals[I];
    if (G.Imported)
      continue;
    if (!validateInitExpr(M, G.Init, uint32_t(I), G.Type,
                          "global init expr", Err))
      return false;
  }

  // Segment offsets: all globals are in scope (segments follow the global
  // section), but memory/table existence and offset types must hold.
  for (const ElemSegment &E : M.Elems) {
    if (E.TableIdx >= M.Tables.size()) {
      if (Err)
        Err->Message = "element segment without table";
      return false;
    }
    if (!validateInitExpr(M, E.Offset, uint32_t(M.Globals.size()),
                          ValType::I32, "element segment offset", Err))
      return false;
  }
  for (const DataSegment &D : M.Datas) {
    if (M.Memories.empty()) {
      if (Err)
        Err->Message = "data segment without memory";
      return false;
    }
    if (!validateInitExpr(M, D.Offset, uint32_t(M.Globals.size()),
                          ValType::I32, "data segment offset", Err))
      return false;
  }

  // Start function must be [] -> [].
  if (M.Start) {
    const FuncType &FT = M.funcType(*M.Start);
    if (!FT.Params.empty() || !FT.Results.empty()) {
      if (Err)
        Err->Message = "start function must have empty signature";
      return false;
    }
  }
  for (FuncDecl &F : M.Funcs) {
    if (F.Imported)
      continue;
    if (!validateFunction(M, F, Err))
      return false;
  }
  M.Validated = true;
  return true;
}
