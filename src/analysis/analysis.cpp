//===- analysis/analysis.cpp - whole-module static analysis ----------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Two layers:
//
//   1. FactCollector: a visitor of the validator's own walk over one
//      validated body (wasm/walker.h), whose operand slots carry known
//      constants beside their types. One pass yields the
//      reachable operand-stack bound, loop/grow/call facts, the direct and
//      indirect call edges, the unconditional-prefix ("must") call set and
//      the site-level lints (guaranteed traps, dead br_table cases).
//
//   2. The interprocedural layer: a worklist reachability pass from the
//      module roots (exports, start, escaped function references), an
//      iterative Tarjan SCC pass for recursion detection, reverse
//      topological (Kahn) passes for the worst-case and guaranteed-minimum
//      call-depth bounds, and the module memory/table growth facts.
//
// Everything here is a *guarantee*: bounds are conservative upper bounds
// (fuzz-verified against observed execution on every differ seed), must-
// depths are conservative lower bounds, and lints only fire when the
// property holds on every possible execution.
//
//===----------------------------------------------------------------------===//

#include "analysis/analysis.h"

#include "support/format.h"
#include "support/json.h"
#include "wasm/walker.h"

#include <algorithm>
#include <deque>

using namespace wisp;

namespace {

/// Bytes per linear-memory page (kept local: the analysis library depends
/// only on the wasm layer, not the runtime).
constexpr uint64_t AnalysisPageSize = 65536;

bool isIntDivOrRem(Opcode Op) {
  switch (Op) {
  case Opcode::I32DivS:
  case Opcode::I32DivU:
  case Opcode::I32RemS:
  case Opcode::I32RemU:
  case Opcode::I64DivS:
  case Opcode::I64DivU:
  case Opcode::I64RemS:
  case Opcode::I64RemU:
    return true;
  default:
    return false;
  }
}

/// One abstract operand: either a known constant bit pattern or Top.
struct AbsVal {
  bool Known = false;
  uint64_t Bits = 0;
};

/// The analyzer's visitor of the body walk: each slot carries a known
/// constant or Top, and the walk's liveness (live()) gates every fact
/// that must hold on an execution. The walker's typed stack discipline
/// (local.tee and br_if keep their operand) is what carries constants
/// into the lint sites.
class FactCollector : public BodyWalker<FactCollector, AbsVal> {
public:
  FactCollector(const Module &M, const FuncDecl &F,
                std::vector<LintFinding> *Lints,
                std::vector<uint32_t> *IndirectTypes,
                std::vector<uint32_t> *RefFuncs,
                std::vector<uint32_t> *MustCallees)
      : BodyWalker(M, F), Lints(Lints), IndirectTypes(IndirectTypes),
        RefFuncs(RefFuncs), MustCallees(MustCallees) {
    if (!M.Memories.empty()) {
      const Limits &L = M.Memories[0].Lim;
      MaxMemBytes =
          uint64_t(L.HasMax ? L.Max : MaxMemoryPages) * AnalysisPageSize;
    }
  }

  /// Runs the pass; bodies are validated, so a walk failure is a bug
  /// elsewhere, and the facts gathered up to it stand.
  FuncFacts run() {
    Facts.FuncIndex = F.Index;
    Facts.Imported = F.Imported;
    if (F.Imported)
      return Facts;
    (void)walk();
    std::sort(Facts.Callees.begin(), Facts.Callees.end());
    Facts.Callees.erase(
        std::unique(Facts.Callees.begin(), Facts.Callees.end()),
        Facts.Callees.end());
    Facts.FrameSlotBound = F.numLocalSlots() + Facts.StackBound;
    return Facts;
  }

  AbsVal constant(uint64_t Bits) { return {true, Bits}; }

  void beforeOp(Opcode Op, uint32_t) {
    switch (Op) {
    case Opcode::Loop:
      // Entering a loop still falls through into the body exactly once,
      // so the unconditional prefix continues (backedges only repeat it).
      Facts.HasLoop = true;
      break;
    case Opcode::MemoryGrow:
      Facts.GrowsMemory = true;
      break;
    case Opcode::Unreachable:
    case Opcode::If:
    case Opcode::Br:
    case Opcode::BrIf:
    case Opcode::BrTable:
    case Opcode::Return:
      MustPrefix = false;
      break;
    default:
      break;
    }
  }

  /// Guaranteed-trap lints: a site that traps on every execution that
  /// reaches it. Constant divisor of zero, or a constant-address memory
  /// access that exceeds the largest memory this module can ever hold
  /// (declared max, or the architecture page limit).
  void onSimple(Opcode Op, const OpInfo &Info, uint32_t Offset, uint32_t Pc) {
    if (!live())
      return;
    if (isIntDivOrRem(Op)) {
      AbsVal Divisor = peek(0);
      uint64_t Mask = (Op >= Opcode::I64DivS) ? ~0ull : 0xffffffffull;
      if (Divisor.Known && (Divisor.Bits & Mask) == 0)
        lint(LintFinding::GuaranteedTrap, Pc,
             strFormat("%s: divisor is constant 0 (guaranteed divide "
                       "trap)",
                       Info.Name));
    } else if (uint32_t Size = memAccessSize(Op)) {
      AbsVal Addr = peek(Info.NPop - 1); // Deepest popped operand.
      if (Addr.Known) {
        uint64_t Effective =
            (Addr.Bits & 0xffffffffull) + uint64_t(Offset) + Size;
        if (Effective > MaxMemBytes)
          lint(LintFinding::GuaranteedTrap, Pc,
               strFormat("%s: constant address 0x%llx + offset %u + "
                         "%u bytes exceeds the maximum possible memory "
                         "of %llu bytes (guaranteed out-of-bounds trap)",
                         Info.Name,
                         (unsigned long long)(Addr.Bits & 0xffffffffull),
                         Offset, Size, (unsigned long long)MaxMemBytes));
      }
    }
  }

  void onBrTable(uint32_t N, uint32_t Pc) {
    AbsVal Sel = peek(0);
    if (live() && Sel.Known && N > 0) {
      uint32_t K = uint32_t(Sel.Bits);
      uint32_t DeadCases = K < N ? N - 1 : N;
      lint(LintFinding::DeadBrTableCase, Pc,
           strFormat("br_table: selector is constant %u, so %u of %u "
                     "case(s) can never be selected",
                     K, DeadCases, N));
    }
  }

  void onCall(uint32_t FuncIdx) {
    if (!live())
      return;
    Facts.Callees.push_back(FuncIdx);
    if (MustPrefix)
      MustCallees->push_back(FuncIdx);
  }
  void onCallIndirect(uint32_t TypeIdx) {
    if (!live())
      return;
    Facts.HasIndirectCall = true;
    IndirectTypes->push_back(TypeIdx);
  }
  void onRefFunc(uint32_t FuncIdx) {
    if (live())
      RefFuncs->push_back(FuncIdx);
  }

  /// The reachable operand-stack bound.
  void afterOp(Opcode) {
    if (live() && height() > Facts.StackBound)
      Facts.StackBound = height();
  }

private:
  void lint(LintFinding::Kind K, uint32_t Ip, std::string Detail) {
    LintFinding L;
    L.K = K;
    L.FuncIndex = F.Index;
    L.Ip = Ip;
    L.Detail = std::move(Detail);
    Lints->push_back(std::move(L));
  }

  uint64_t MaxMemBytes = 0;
  /// Still on the unconditional prefix: every opcode so far executes on
  /// every trap-free complete run of the function.
  bool MustPrefix = true;
  FuncFacts Facts;
  std::vector<LintFinding> *Lints;
  std::vector<uint32_t> *IndirectTypes;
  std::vector<uint32_t> *RefFuncs;
  std::vector<uint32_t> *MustCallees;
};

/// Per-function scratch the interprocedural layer needs beyond FuncFacts.
struct FuncExtra {
  std::vector<uint32_t> IndirectTypes; ///< call_indirect type indices.
  std::vector<uint32_t> RefFuncs;      ///< ref.func targets in the body.
  std::vector<uint32_t> MustCallees;   ///< Unconditional-prefix callees.
};

/// Reverse-topological (Kahn) bound propagation over \p Edges: depth(f) =
/// 1 + max over callees' depth, imported callees contributing 0. Returns
/// per-function depths; functions that are part of or can reach a cycle
/// keep \p Unbounded.
std::vector<uint32_t>
propagateDepths(const Module &M,
                const std::vector<std::vector<uint32_t>> &Edges,
                uint32_t Unbounded) {
  size_t N = M.Funcs.size();
  std::vector<uint32_t> Depth(N, Unbounded);
  std::vector<std::vector<uint32_t>> Callers(N);
  std::vector<uint32_t> OutDeg(N, 0);
  for (uint32_t F = 0; F < N; ++F) {
    if (M.Funcs[F].Imported) {
      Depth[F] = 0; // Host calls push no wasm frame and never re-enter.
      continue;
    }
    for (uint32_t G : Edges[F]) {
      if (M.Funcs[G].Imported)
        continue; // Contributes depth 0; not an ordering edge.
      ++OutDeg[F];
      Callers[G].push_back(F);
    }
  }
  std::deque<uint32_t> Ready;
  for (uint32_t F = 0; F < N; ++F)
    if (!M.Funcs[F].Imported && OutDeg[F] == 0)
      Ready.push_back(F);
  while (!Ready.empty()) {
    uint32_t F = Ready.front();
    Ready.pop_front();
    uint32_t D = 1;
    for (uint32_t G : Edges[F])
      if (!M.Funcs[G].Imported && Depth[G] != Unbounded && Depth[G] + 1 > D)
        D = Depth[G] + 1;
    Depth[F] = D;
    for (uint32_t C : Callers[F])
      if (--OutDeg[C] == 0)
        Ready.push_back(C);
  }
  return Depth;
}

/// Iterative Tarjan SCC over \p Edges (imported nodes excluded); marks
/// every function in a cycle (SCC size > 1, or a self-edge).
std::vector<bool>
recursiveSccMembers(const Module &M,
                    const std::vector<std::vector<uint32_t>> &Edges) {
  size_t N = M.Funcs.size();
  std::vector<bool> InCycle(N, false);
  std::vector<uint32_t> Index(N, 0), Low(N, 0);
  std::vector<bool> Visited(N, false), OnStack(N, false);
  std::vector<uint32_t> Stack;
  uint32_t Next = 1;

  struct WorkItem {
    uint32_t F;
    size_t EdgeIdx;
  };
  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Visited[Root] || M.Funcs[Root].Imported)
      continue;
    std::vector<WorkItem> Work{{Root, 0}};
    while (!Work.empty()) {
      WorkItem &W = Work.back();
      uint32_t F = W.F;
      if (W.EdgeIdx == 0) {
        Visited[F] = true;
        Index[F] = Low[F] = Next++;
        Stack.push_back(F);
        OnStack[F] = true;
      }
      bool Descended = false;
      while (W.EdgeIdx < Edges[F].size()) {
        uint32_t G = Edges[F][W.EdgeIdx++];
        if (M.Funcs[G].Imported)
          continue;
        if (!Visited[G]) {
          Work.push_back({G, 0});
          Descended = true;
          break;
        }
        if (OnStack[G])
          Low[F] = std::min(Low[F], Index[G]);
      }
      if (Descended)
        continue;
      if (Low[F] == Index[F]) {
        // Pop the SCC rooted at F.
        std::vector<uint32_t> Scc;
        for (;;) {
          uint32_t G = Stack.back();
          Stack.pop_back();
          OnStack[G] = false;
          Scc.push_back(G);
          if (G == F)
            break;
        }
        bool SelfEdge =
            Scc.size() == 1 &&
            std::find(Edges[F].begin(), Edges[F].end(), F) != Edges[F].end();
        if (Scc.size() > 1 || SelfEdge)
          for (uint32_t G : Scc)
            InCycle[G] = true;
      }
      Work.pop_back();
      if (!Work.empty()) {
        WorkItem &Parent = Work.back();
        Low[Parent.F] = std::min(Low[Parent.F], Low[F]);
      }
    }
  }
  return InCycle;
}

} // namespace

const char *wisp::lintKindName(LintFinding::Kind K) {
  switch (K) {
  case LintFinding::UnreachableFunc:
    return "unreachable-func";
  case LintFinding::GuaranteedTrap:
    return "guaranteed-trap";
  case LintFinding::DeadBrTableCase:
    return "dead-br-table-case";
  }
  return "unknown";
}

FuncFacts wisp::analyzeFunction(const Module &M, const FuncDecl &F) {
  std::vector<LintFinding> Lints;
  std::vector<uint32_t> IndirectTypes, RefFuncs, MustCallees;
  return FactCollector(M, F, &Lints, &IndirectTypes, &RefFuncs, &MustCallees)
      .run();
}

ModuleAnalysis wisp::analyzeModule(const Module &M) {
  ModuleAnalysis A;
  size_t N = M.Funcs.size();
  A.Funcs.reserve(N);
  std::vector<FuncExtra> Extra(N);
  std::vector<LintFinding> SiteLints;
  for (uint32_t I = 0; I < N; ++I) {
    A.Funcs.push_back(FactCollector(M, M.Funcs[I], &SiteLints,
                                    &Extra[I].IndirectTypes,
                                    &Extra[I].RefFuncs,
                                    &Extra[I].MustCallees)
                          .run());
  }

  // --- Static table contents: every function an indirect call could hit.
  std::vector<uint32_t> ElemFuncs;
  for (const ElemSegment &E : M.Elems)
    ElemFuncs.insert(ElemFuncs.end(), E.FuncIndices.begin(),
                     E.FuncIndices.end());
  std::sort(ElemFuncs.begin(), ElemFuncs.end());
  ElemFuncs.erase(std::unique(ElemFuncs.begin(), ElemFuncs.end()),
                  ElemFuncs.end());

  // --- Full conservative edge set: direct callees plus, for functions
  // with indirect calls, every type-compatible table-segment function
  // (call_indirect checks structural type equality at run time, so the
  // type filter is sound).
  std::vector<std::vector<uint32_t>> Edges(N);
  for (uint32_t I = 0; I < N; ++I) {
    Edges[I] = A.Funcs[I].Callees;
    for (uint32_t T : Extra[I].IndirectTypes)
      for (uint32_t E : ElemFuncs)
        if (M.Types[T] == M.funcType(E))
          Edges[I].push_back(E);
    std::sort(Edges[I].begin(), Edges[I].end());
    Edges[I].erase(std::unique(Edges[I].begin(), Edges[I].end()),
                   Edges[I].end());
  }

  // --- Reachability from the module roots.
  std::vector<bool> Reach(N, false);
  std::deque<uint32_t> Work;
  auto AddRoot = [&](uint32_t F) {
    if (F < N && !Reach[F]) {
      Reach[F] = true;
      Work.push_back(F);
    }
  };
  for (const Export &E : M.Exports)
    if (E.Kind == ExternKind::Func)
      AddRoot(E.Index);
  if (M.Start)
    AddRoot(*M.Start);
  for (const GlobalDecl &G : M.Globals)
    if (!G.Imported && G.Init.K == InitExpr::RefFuncIdx)
      AddRoot(G.Init.Index); // The reference escapes at instantiation.
  // Imported functions are host-provided; "unreachable" is not a
  // meaningful lint for them and execution never enters them as wasm.
  for (uint32_t I = 0; I < N; ++I)
    if (M.Funcs[I].Imported)
      Reach[I] = true;
  while (!Work.empty()) {
    uint32_t F = Work.front();
    Work.pop_front();
    for (uint32_t G : Edges[F])
      AddRoot(G);
    for (uint32_t G : Extra[F].RefFuncs)
      AddRoot(G); // Escaped references may be called from anywhere.
  }
  for (uint32_t I = 0; I < N; ++I)
    A.Funcs[I].Reachable = Reach[I];

  // --- Recursion detection and call-depth bounds.
  std::vector<bool> InCycle = recursiveSccMembers(M, Edges);
  A.RecursionFree = true;
  for (uint32_t I = 0; I < N; ++I) {
    A.Funcs[I].InRecursiveScc = InCycle[I];
    if (InCycle[I])
      A.RecursionFree = false;
  }
  std::vector<uint32_t> Depth =
      propagateDepths(M, Edges, AnalysisDepthInfinite);
  std::vector<std::vector<uint32_t>> MustEdges(N);
  for (uint32_t I = 0; I < N; ++I)
    MustEdges[I] = Extra[I].MustCallees;
  std::vector<uint32_t> MustDepth =
      propagateDepths(M, MustEdges, AnalysisDepthInfinite);
  A.DepthBounded = true;
  for (uint32_t I = 0; I < N; ++I) {
    FuncFacts &FF = A.Funcs[I];
    FF.DepthBounded = Depth[I] != AnalysisDepthInfinite;
    FF.DepthBound = FF.DepthBounded ? Depth[I] : 0;
    FF.MustDepth = M.Funcs[I].Imported ? 0 : MustDepth[I];
    if (!M.Funcs[I].Imported && Reach[I]) {
      if (!FF.DepthBounded)
        A.DepthBounded = false;
      else if (FF.DepthBound > A.DepthBound)
        A.DepthBound = FF.DepthBound;
    }
  }
  if (!A.DepthBounded)
    A.DepthBound = 0;

  // --- Loop freedom and memory-page bounds (reachable code only: dead
  // functions never execute, and the reachability set is conservative).
  A.LoopFree = true;
  for (uint32_t I = 0; I < N; ++I)
    if (Reach[I] && !M.Funcs[I].Imported) {
      if (A.Funcs[I].HasLoop)
        A.LoopFree = false;
      if (A.Funcs[I].GrowsMemory)
        A.GrowsMemory = true;
    }
  A.HasMemory = !M.Memories.empty();
  if (A.HasMemory) {
    const Limits &L = M.Memories[0].Lim;
    A.MinPages = L.Min;
    if (!A.GrowsMemory) {
      // Host functions never grow wasm linear memory, and the feature set
      // has no other growth channel: the declared min is the bound.
      A.PagesBounded = true;
      A.PageBound = L.Min;
    } else if (L.HasMax) {
      A.PagesBounded = true;
      A.PageBound = L.Max;
    }
  } else {
    A.PagesBounded = true;
    A.PageBound = 0;
  }
  for (const TableDecl &T : M.Tables)
    A.TableElems = std::max(A.TableElems, T.Lim.Min);

  // --- Lints: function-level first (stable order), then site lints in
  // (function, pc) order.
  for (uint32_t I = 0; I < N; ++I)
    if (!M.Funcs[I].Imported && !Reach[I]) {
      LintFinding L;
      L.K = LintFinding::UnreachableFunc;
      L.FuncIndex = I;
      L.Ip = M.Funcs[I].BodyStart;
      L.Detail = strFormat("func %u is statically unreachable (no call "
                           "path from any export, start function or "
                           "escaped reference)",
                           I);
      A.Lints.push_back(std::move(L));
    }
  std::stable_sort(SiteLints.begin(), SiteLints.end(),
                   [](const LintFinding &X, const LintFinding &Y) {
                     return X.FuncIndex != Y.FuncIndex
                                ? X.FuncIndex < Y.FuncIndex
                                : X.Ip < Y.Ip;
                   });
  for (LintFinding &L : SiteLints)
    A.Lints.push_back(std::move(L));
  return A;
}

// --- Admission precheck ----------------------------------------------------

bool wisp::staticBoundsReject(const Module &M, const ModuleAnalysis &A,
                              const std::string &Invoke, uint32_t MaxCallDepth,
                              uint32_t MaxMemoryPages, uint32_t MaxTableElems,
                              std::string *Reason) {
  // Load-time certainties first: these mirror Engine::load's governance
  // rejects exactly (a reject here must be a reject there, or the escape
  // hatch would change observable behavior).
  if (MaxMemoryPages && A.HasMemory && A.MinPages > MaxMemoryPages) {
    *Reason = strFormat("declared memory min %u pages exceeds the %u-page "
                        "cap",
                        A.MinPages, MaxMemoryPages);
    return true;
  }
  if (MaxTableElems)
    for (const TableDecl &T : M.Tables)
      if (T.Lim.Min > MaxTableElems) {
        *Reason = strFormat("declared table min %u elems exceeds the "
                            "%u-elem cap",
                            T.Lim.Min, MaxTableElems);
        return true;
      }

  // Guaranteed call-depth blowouts: every trap-free complete execution of
  // the entry reaches at least MustDepth frames, so MustDepth > cap means
  // the job cannot finish without trapping. The start function runs at
  // instantiation and is checked the same way.
  uint32_t DepthCap = MaxCallDepth ? MaxCallDepth : 4096;
  auto MustBlow = [&](uint32_t FuncIdx, const char *What) {
    if (FuncIdx >= A.Funcs.size())
      return false;
    uint32_t D = A.Funcs[FuncIdx].MustDepth;
    if (D == AnalysisDepthInfinite) {
      *Reason = strFormat("%s func %u recurses unconditionally: guaranteed "
                          "to exhaust any call-depth cap (cap %u)",
                          What, FuncIdx, DepthCap);
      return true;
    }
    if (D > DepthCap) {
      *Reason = strFormat("%s func %u must reach call depth %u, exceeding "
                          "the %u-frame cap",
                          What, FuncIdx, D, DepthCap);
      return true;
    }
    return false;
  };
  if (M.Start && MustBlow(*M.Start, "start"))
    return true;
  if (!Invoke.empty())
    if (const Export *E = M.findExport(Invoke, ExternKind::Func))
      if (MustBlow(E->Index, "invoked"))
        return true;
  return false;
}

// --- Report surfaces -------------------------------------------------------

std::string wisp::analysisReportText(const Module &M, const ModuleAnalysis &A,
                                     const std::string &ModuleName) {
  std::string Out;
  Out += strFormat("static analysis: %s\n", ModuleName.c_str());
  uint32_t Defined = 0;
  for (const FuncDecl &F : M.Funcs)
    if (!F.Imported)
      ++Defined;
  Out += strFormat("  funcs: %zu (%u defined, %u imported)\n", M.Funcs.size(),
                   Defined, M.NumImportedFuncs);
  Out += strFormat("  call graph: %s", A.RecursionFree
                                           ? "recursion-free"
                                           : "recursive (cycle detected)");
  if (A.DepthBounded)
    Out += strFormat(", worst-case call depth %u\n", A.DepthBound);
  else
    Out += ", call depth unbounded\n";
  Out += strFormat("  loops: %s\n",
                   A.LoopFree ? "none reachable (loop-free)" : "present");
  if (!A.HasMemory)
    Out += "  memory: none\n";
  else if (A.PagesBounded)
    Out += strFormat("  memory: min %u pages, %s, bound %u pages\n",
                     A.MinPages,
                     A.GrowsMemory ? "grows (declared max)" : "never grows",
                     A.PageBound);
  else
    Out += strFormat("  memory: min %u pages, grows, no declared max "
                     "(unbounded)\n",
                     A.MinPages);
  Out += strFormat("  tables: %zu, %u elems max, growth-free by "
                   "construction\n",
                   M.Tables.size(), A.TableElems);
  Out += "  per-function bounds (stack slots / frame slots / depth):\n";
  for (const FuncFacts &F : A.Funcs) {
    if (F.Imported)
      continue;
    Out += strFormat("    func %u: stack<=%u frame<=%u", F.FuncIndex,
                     F.StackBound, F.FrameSlotBound);
    if (F.DepthBounded)
      Out += strFormat(" depth<=%u", F.DepthBound);
    else
      Out += " depth=unbounded";
    if (F.MustDepth == AnalysisDepthInfinite)
      Out += " must-depth=inf";
    else if (F.MustDepth > 1)
      Out += strFormat(" must-depth>=%u", F.MustDepth);
    if (F.HasLoop)
      Out += " loops";
    if (F.GrowsMemory)
      Out += " grows-memory";
    if (F.InRecursiveScc)
      Out += " recursive";
    if (!F.Reachable)
      Out += " UNREACHABLE";
    Out += "\n";
  }
  if (A.Lints.empty()) {
    Out += "  lints: none\n";
  } else {
    Out += strFormat("  lints: %zu finding(s)\n", A.Lints.size());
    for (const LintFinding &L : A.Lints)
      Out += strFormat("    [%s] func %u +0x%x: %s\n", lintKindName(L.K),
                       L.FuncIndex, L.Ip, L.Detail.c_str());
  }
  return Out;
}

std::string wisp::analysisReportJson(const Module &M, const ModuleAnalysis &A,
                                     const std::string &ModuleName) {
  JsonWriter W;
  W.obj();
  W.str("module", ModuleName);
  W.num("funcs", uint64_t(M.Funcs.size()));
  W.boolean("recursion_free", A.RecursionFree);
  W.boolean("loop_free", A.LoopFree);
  W.boolean("depth_bounded", A.DepthBounded);
  W.num("depth_bound", A.DepthBound);
  W.boolean("has_memory", A.HasMemory);
  W.num("min_pages", A.MinPages);
  W.boolean("grows_memory", A.GrowsMemory);
  W.boolean("pages_bounded", A.PagesBounded);
  W.num("page_bound", A.PageBound);
  W.num("table_elems", A.TableElems);
  W.keyArr("functions");
  for (const FuncFacts &F : A.Funcs) {
    if (F.Imported)
      continue;
    W.obj();
    W.num("index", F.FuncIndex);
    W.num("stack_bound", F.StackBound);
    W.num("frame_slot_bound", F.FrameSlotBound);
    W.boolean("depth_bounded", F.DepthBounded);
    W.num("depth_bound", F.DepthBound);
    if (F.MustDepth == AnalysisDepthInfinite)
      W.str("must_depth", "inf");
    else
      W.num("must_depth", F.MustDepth);
    W.boolean("has_loop", F.HasLoop);
    W.boolean("grows_memory", F.GrowsMemory);
    W.boolean("recursive", F.InRecursiveScc);
    W.boolean("reachable", F.Reachable);
    W.closeObj();
  }
  W.closeArr();
  W.keyArr("lints");
  for (const LintFinding &L : A.Lints) {
    W.obj();
    W.str("kind", lintKindName(L.K));
    W.num("func", L.FuncIndex);
    W.num("pc", L.Ip);
    W.str("detail", L.Detail);
    W.closeObj();
  }
  W.closeArr();
  W.closeObj();
  std::string Out = W.take();
  Out += "\n";
  return Out;
}
