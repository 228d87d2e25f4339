//===- runtime/instance.cpp - module instantiation -------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "runtime/instance.h"

#include "runtime/pages.h"
#include "support/format.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

using namespace wisp;

//===----------------------------------------------------------------------===//
// Linear-memory backing store
//===----------------------------------------------------------------------===//
//
// Lazily zeroed page mappings (runtime/pages.h): a fresh memory costs no
// memset and faults in only the pages the module actually touches.

namespace {

/// Fault-injection countdown: negative = disarmed; otherwise the request
/// after this many successes fails with ENOMEM. Atomic because the serve
/// fault injector arms it from the control thread while workers allocate.
std::atomic<int64_t> MemFaultCountdown{-1};

bool injectMapFault() {
  int64_t C = MemFaultCountdown.load(std::memory_order_relaxed);
  if (C < 0)
    return false;
  if (MemFaultCountdown.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    errno = ENOMEM;
    return true;
  }
  return false;
}

} // namespace

void wisp::setMemoryFaultCountdown(int64_t N) {
  MemFaultCountdown.store(N, std::memory_order_relaxed);
}

void LinearMemory::release() {
  if (!Buf)
    return;
  unmapZeroPages(Buf, Cap);
  Buf = nullptr;
  Cap = 0;
}

bool LinearMemory::init(const Limits &L) {
  Lim = L;
  size_t N = size_t(L.Min) * WasmPageSize;
  release(); // Re-init of a used memory (rare): start from fresh zeros.
  if (N) {
    Buf = injectMapFault() ? nullptr : mapZeroPages(N);
    Cap = Buf ? N : 0;
  }
  Size = Cap;
  DirtyHi = 0;
  // A failed mapping leaves a valid empty memory (Buf null, Size 0); the
  // caller must turn this into a link error, not proceed — a module that
  // declared a non-empty minimum would otherwise see every access trap.
  return N == 0 || Buf != nullptr;
}

bool LinearMemory::extendZeroed(size_t NewBytes) {
  if (NewBytes <= Cap) {
    if (NewBytes > Size) // Guard: Buf may be null when everything is 0.
      memset(Buf + Size, 0, NewBytes - Size);
  } else {
    if (injectMapFault())
      return false;
    uint8_t *NB = Buf ? growZeroPages(Buf, Cap, Size, NewBytes)
                      : mapZeroPages(NewBytes);
    if (!NB)
      return false;
    Buf = NB;
    Cap = NewBytes;
  }
  Size = NewBytes;
  return true;
}

/// Evaluates a (validated) constant initializer against the globals
/// initialized so far. Validation guarantees GlobalGet only names an
/// earlier-index immutable global, so \p Globals[E.Index] is initialized
/// by the time it is read.
static uint64_t evalInit(const std::vector<Global> &Globals,
                         const InitExpr &E) {
  switch (E.K) {
  case InitExpr::Const:
    return E.Bits;
  case InitExpr::GlobalGet:
    assert(E.Index < Globals.size() && "init expr global index out of range");
    return Globals[E.Index].Bits;
  case InitExpr::RefNull:
    return 0;
  case InitExpr::RefFuncIdx:
    return uint64_t(E.Index) + 1;
  }
  return 0;
}

/// Binds every imported global of \p M from \p Hosts into \p Globals and
/// evaluates the defined globals' initializers in index order. Returns
/// false (with \p Err filled) on an unresolved or mismatched import —
/// imported globals are NOT silently zero; a data/element offset reading
/// one must either link for real or fail loudly.
static bool initGlobals(const Module &M, const HostRegistry &Hosts,
                        std::vector<Global> &Globals, WasmError *Err) {
  Globals.resize(M.Globals.size());
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const GlobalDecl &G = M.Globals[I];
    Global &RG = Globals[I];
    RG.Type = G.Type;
    RG.Mutable = G.Mutable;
    if (!G.Imported) {
      RG.Bits = evalInit(Globals, G.Init);
      continue;
    }
    const HostGlobal *H = Hosts.findGlobal(G.ImportModule, G.ImportName);
    if (!H) {
      if (Err)
        Err->Message = strFormat("unresolved global import %s.%s",
                                 G.ImportModule.c_str(), G.ImportName.c_str());
      return false;
    }
    if (H->Type != G.Type || H->Mutable != G.Mutable) {
      if (Err)
        Err->Message = strFormat("global import %s.%s type mismatch",
                                 G.ImportModule.c_str(), G.ImportName.c_str());
      return false;
    }
    RG.Bits = H->Bits;
  }
  return true;
}

/// (Re-)binds the per-function state of \p Inst against \p M and \p Hosts.
/// Used by all instantiation paths; reimageInstance reuses it to re-bind
/// host pointers (the retiring engine's registry is gone) and to reset
/// tier state without reallocating when the Funcs vector already exists.
static bool bindFunctions(Instance &Inst, const Module &M,
                          const HostRegistry &Hosts, WasmError *Err) {
  Inst.Funcs.resize(M.Funcs.size());
  for (size_t I = 0; I < M.Funcs.size(); ++I) {
    FuncInstance &F = Inst.Funcs[I];
    F.Decl = &M.Funcs[I];
    F.Type = &M.Types[F.Decl->TypeIdx];
    F.Inst = &Inst;
    F.Host = nullptr;
    F.Code = nullptr;
    F.TCode = nullptr;
    F.UseJit = false;
    F.DeoptRequested = false;
    F.HotCount = 0;
    F.ProbeBits.clear();
    if (!F.Decl->Imported)
      continue;
    const HostFunc *H = Hosts.find(F.Decl->ImportModule, F.Decl->ImportName);
    if (!H) {
      if (Err)
        Err->Message = strFormat("unresolved import %s.%s",
                                 F.Decl->ImportModule.c_str(),
                                 F.Decl->ImportName.c_str());
      return false;
    }
    if (!(H->Type == *F.Type)) {
      if (Err)
        Err->Message = strFormat("import %s.%s signature mismatch",
                                 F.Decl->ImportModule.c_str(),
                                 F.Decl->ImportName.c_str());
      return false;
    }
    F.Host = H;
  }
  return true;
}

std::unique_ptr<Instance> wisp::instantiate(const Module &M,
                                            const HostRegistry &Hosts,
                                            GcHeap *Heap, WasmError *Err) {
  assert(M.Validated && "instantiating unvalidated module");
  auto Inst = std::make_unique<Instance>();
  Inst->M = &M;
  Inst->Heap = Heap;

  if (!bindFunctions(*Inst, M, Hosts, Err))
    return nullptr;
  if (!initGlobals(M, Hosts, Inst->Globals, Err))
    return nullptr;

  // Memory.
  if (!M.Memories.empty()) {
    if (!Inst->Memory.init(M.Memories[0].Lim)) {
      if (Err)
        Err->Message = strFormat(
            "linear memory allocation of %u pages failed: %s",
            M.Memories[0].Lim.Min, strerror(errno));
      return nullptr;
    }
    Inst->HasMemory = true;
  }

  // Tables.
  for (const TableDecl &T : M.Tables) {
    Table RT;
    RT.Lim = T.Lim;
    RT.Elems.assign(T.Lim.Min, 0);
    Inst->Tables.push_back(std::move(RT));
  }

  // Element segments.
  for (const ElemSegment &E : M.Elems) {
    Table &T = Inst->Tables[E.TableIdx];
    uint64_t Off = evalInit(Inst->Globals, E.Offset) & 0xffffffff;
    if (Off + E.FuncIndices.size() > T.Elems.size()) {
      if (Err)
        Err->Message = "element segment out of bounds";
      return nullptr;
    }
    for (size_t I = 0; I < E.FuncIndices.size(); ++I)
      T.Elems[Off + I] = uint64_t(E.FuncIndices[I]) + 1;
  }

  // Data segments.
  for (const DataSegment &D : M.Datas) {
    uint64_t Off = evalInit(Inst->Globals, D.Offset) & 0xffffffff;
    if (Off + D.Bytes.size() > Inst->Memory.byteSize()) {
      if (Err)
        Err->Message = "data segment out of bounds";
      return nullptr;
    }
    if (D.Bytes.empty())
      continue; // Bounds-checked above; nothing to copy (and an empty
                // vector's data() may be null, which memcpy must not see).
    memcpy(Inst->Memory.data() + Off, D.Bytes.data(), D.Bytes.size());
    Inst->Memory.noteWrite(Off + D.Bytes.size());
  }

  return Inst;
}

//===----------------------------------------------------------------------===//
// Instance images
//===----------------------------------------------------------------------===//

std::unique_ptr<InstanceImage> wisp::buildInstanceImage(const Module &M,
                                                        WasmError *Err) {
  assert(M.Validated && "imaging unvalidated module");
  // Imported globals resolve at link time against a specific registry, so
  // their values (and anything an offset expression could read through
  // them) are not a property of the module alone. Such modules take the
  // legacy path; pooling keys off the image, so they are also not pooled.
  for (const GlobalDecl &G : M.Globals)
    if (G.Imported) {
      if (Err)
        Err->Message = "module imports globals; not imageable";
      return nullptr;
    }

  auto Img = std::make_unique<InstanceImage>();

  // Globals: evaluate initializers in index order (validation guarantees
  // global.get only references earlier immutable globals).
  Img->GlobalImage.resize(M.Globals.size());
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const GlobalDecl &G = M.Globals[I];
    Global &RG = Img->GlobalImage[I];
    RG.Type = G.Type;
    RG.Mutable = G.Mutable;
    RG.Bits = evalInit(Img->GlobalImage, G.Init);
  }

  // Tables with element segments pre-resolved.
  for (const TableDecl &T : M.Tables) {
    Img->TableLimits.push_back(T.Lim);
    Img->TableImages.emplace_back(T.Lim.Min, 0);
  }
  for (const ElemSegment &E : M.Elems) {
    std::vector<uint64_t> &T = Img->TableImages[E.TableIdx];
    uint64_t Off = evalInit(Img->GlobalImage, E.Offset) & 0xffffffff;
    if (Off + E.FuncIndices.size() > T.size()) {
      if (Err)
        Err->Message = "element segment out of bounds";
      return nullptr;
    }
    for (size_t I = 0; I < E.FuncIndices.size(); ++I)
      T[Off + I] = uint64_t(E.FuncIndices[I]) + 1;
  }

  // Memory: keep the data segments as sparse, pre-evaluated runs in
  // application order (later segments overwrite earlier ones byte-for-
  // byte, exactly like segment replay). A dense prefix sized to the
  // highest segment end would cost megabytes of cached zeros for modules
  // that place small segments at high offsets, plus a full-prefix memcpy
  // on every image instantiation.
  if (!M.Memories.empty()) {
    Img->HasMemory = true;
    Img->MemLimits = M.Memories[0].Lim;
  }
  uint64_t MemBytes = uint64_t(Img->HasMemory ? Img->MemLimits.Min : 0) *
                      WasmPageSize;
  for (const DataSegment &D : M.Datas) {
    uint64_t Off = evalInit(Img->GlobalImage, D.Offset) & 0xffffffff;
    if (Off + D.Bytes.size() > MemBytes) {
      if (Err)
        Err->Message = "data segment out of bounds";
      return nullptr;
    }
    if (!D.Bytes.empty())
      Img->MemRuns.push_back({Off, D.Bytes});
  }

  return Img;
}

std::unique_ptr<Instance> wisp::instantiateFromImage(const Module &M,
                                                     const InstanceImage &Img,
                                                     const HostRegistry &Hosts,
                                                     GcHeap *Heap,
                                                     WasmError *Err) {
  assert(M.Validated && "instantiating unvalidated module");
  auto Inst = std::make_unique<Instance>();
  Inst->M = &M;
  Inst->Heap = Heap;

  if (!bindFunctions(*Inst, M, Hosts, Err))
    return nullptr;

  Inst->Globals = Img.GlobalImage;

  if (Img.HasMemory) {
    if (!Inst->Memory.initFromImage(Img.MemLimits, Img.MemRuns)) {
      if (Err)
        Err->Message = strFormat(
            "linear memory allocation of %u pages failed: %s",
            Img.MemLimits.Min, strerror(errno));
      return nullptr;
    }
    Inst->HasMemory = true;
  }

  Inst->Tables.resize(Img.TableImages.size());
  for (size_t I = 0; I < Img.TableImages.size(); ++I) {
    Inst->Tables[I].Lim = Img.TableLimits[I];
    Inst->Tables[I].Elems = Img.TableImages[I];
  }

  return Inst;
}

bool LinearMemory::reimage(const Limits &L, const std::vector<MemRun> &Runs) {
  Lim = L;
  size_t Want = size_t(L.Min) * WasmPageSize;
  if (Size > Want) {
    // Grown memory shrinks back in place; capacity is retained (no
    // allocation on the grow-then-recycle path) and the stale bytes
    // beyond the new extent are scrubbed by the next re-extension.
    Size = Want;
  } else if (Size < Want) {
    DirtyHi = Size; // Conservative: whole old extent may be dirty.
    // Re-extension can genuinely fail (a pooled memory only retains the
    // capacity it last had; the image minimum may be larger after a
    // shrink, and the OS may refuse the growth). Report it — the pooled
    // instance is unusable and must be destroyed, not handed out.
    if (!extendZeroed(Want))
      return false;
  }
  uint64_t Dirty = std::min<uint64_t>(DirtyHi, Want);
  // Repair page by page within the dirty prefix: compare against the
  // expected initial content and rewrite only pages that changed —
  // memcmp of a clean page is ~4x cheaper than unconditionally storing
  // it. Pages no run touches are expected all-zero; pages under a run
  // are checked against a scratch page assembled from the intersecting
  // run slices (allocated once, only if such a page is dirty).
  std::vector<uint8_t> Scratch;
  for (uint64_t P = 0; P < Dirty; P += WasmPageSize) {
    uint64_t N = std::min<uint64_t>(WasmPageSize, Want - P);
    uint8_t *Dst = Buf + P;
    bool Touched = false;
    for (const MemRun &R : Runs)
      if (R.Off < P + N && R.Off + R.Bytes.size() > P) {
        Touched = true;
        break;
      }
    if (!Touched) {
      bool Clean = Dst[0] == 0 && memcmp(Dst, Dst + 1, N - 1) == 0;
      if (!Clean)
        memset(Dst, 0, N);
      continue;
    }
    Scratch.assign(WasmPageSize, 0);
    for (const MemRun &R : Runs) {
      uint64_t REnd = R.Off + R.Bytes.size();
      if (R.Off >= P + N || REnd <= P)
        continue;
      uint64_t From = std::max<uint64_t>(R.Off, P);
      uint64_t To = std::min<uint64_t>(REnd, P + N);
      memcpy(Scratch.data() + (From - P), R.Bytes.data() + (From - R.Off),
             To - From);
    }
    if (memcmp(Dst, Scratch.data(), N) != 0)
      memcpy(Dst, Scratch.data(), N);
  }
  DirtyHi = 0;
  return true;
}

std::unique_ptr<Instance> wisp::reimageInstance(std::unique_ptr<Instance> Inst,
                                                const Module &M,
                                                const InstanceImage &Img,
                                                const HostRegistry &Hosts,
                                                GcHeap *Heap, WasmError *Err) {
  assert(Inst && Inst->M == &M && "re-imaging an instance of another module");
  Inst->Heap = Heap;

  // Re-bind imports against the new engine's registry: the retiring
  // engine's HostFunc storage is gone, so stale Host pointers must never
  // survive a recycle. On failure the instance is destroyed with us —
  // a partially re-imaged instance never escapes.
  if (!bindFunctions(*Inst, M, Hosts, Err))
    return nullptr;

  // Globals/tables: assign from the image, reusing existing capacity.
  Inst->Globals = Img.GlobalImage;
  Inst->Tables.resize(Img.TableImages.size());
  for (size_t I = 0; I < Img.TableImages.size(); ++I) {
    Inst->Tables[I].Lim = Img.TableLimits[I];
    Inst->Tables[I].Elems = Img.TableImages[I];
  }

  if (Img.HasMemory) {
    if (!Inst->Memory.reimage(Img.MemLimits, Img.MemRuns)) {
      if (Err)
        Err->Message = strFormat(
            "re-extending pooled memory to %u pages failed: %s",
            Img.MemLimits.Min, strerror(errno));
      return nullptr; // Consumes (destroys) the half-repaired instance.
    }
    Inst->HasMemory = true;
  } else {
    Inst->HasMemory = false;
  }

  return Inst;
}
