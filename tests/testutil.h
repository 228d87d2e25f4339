//===- tests/testutil.h - shared test helpers -------------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#ifndef WISP_TESTS_TESTUTIL_H
#define WISP_TESTS_TESTUTIL_H

#include "engine/run.h"
#include "interp/interpreter.h"
#include "runtime/instance.h"
#include "spc/compiler.h"
#include "wasm/builder.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

#include <gtest/gtest.h>

namespace wisp {

/// Decodes and validates module bytes; fails the test on any error.
inline std::unique_ptr<Module> buildAndValidate(std::vector<uint8_t> Bytes) {
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(std::move(Bytes), &Err);
  EXPECT_TRUE(M != nullptr) << "decode: " << Err.Message;
  if (!M)
    return nullptr;
  bool Ok = validateModule(*M, &Err);
  EXPECT_TRUE(Ok) << "validate: " << Err.Message << " @" << Err.Offset;
  if (!Ok)
    return nullptr;
  return M;
}

/// Builds, decodes and validates a module; fails the test on any error.
inline std::unique_ptr<Module> buildAndValidate(const ModuleBuilder &MB) {
  return buildAndValidate(MB.build());
}

/// Decodes and expects a decode failure.
inline void expectDecodeError(std::vector<uint8_t> Bytes) {
  WasmError Err;
  EXPECT_EQ(decodeModule(std::move(Bytes), &Err), nullptr);
}

/// Decodes module bytes, then expects validation to fail with a diagnostic
/// containing \p Msg, so a test names the check that must fire.
inline void expectInvalid(std::vector<uint8_t> Bytes, const std::string &Msg) {
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(std::move(Bytes), &Err);
  ASSERT_TRUE(M != nullptr) << "decode: " << Err.Message;
  EXPECT_FALSE(validateModule(*M, &Err));
  EXPECT_NE(Err.Message.find(Msg), std::string::npos)
      << "diagnostic \"" << Err.Message << "\" lacks \"" << Msg << "\"";
}

/// Builds and decodes, then expects validation to fail with \p Msg.
inline void expectInvalid(const ModuleBuilder &MB, const std::string &Msg) {
  expectInvalid(MB.build(), Msg);
}

/// Result of a direct interpreter invocation.
struct InvokeResult {
  TrapReason Trap = TrapReason::None;
  std::vector<Value> Results;
  bool trapped() const { return Trap != TrapReason::None; }
  Value one() const {
    EXPECT_EQ(Results.size(), 1u);
    return Results.empty() ? Value{} : Results[0];
  }
};

/// Invokes \p Func on the pure interpreter (no JIT dispatch).
inline InvokeResult interpInvoke(Thread &T, FuncInstance *Func,
                                 const std::vector<Value> &Args) {
  InvokeResult R;
  T.clearTrap();
  T.Frames.clear();
  uint64_t *S = T.VS.slots();
  uint8_t *Tg = T.VS.tags();
  for (size_t I = 0; I < Args.size(); ++I) {
    S[I] = Args[I].Bits;
    if (Tg)
      Tg[I] = uint8_t(Args[I].Type);
  }
  if (!pushWasmFrame(T, Func, 0)) {
    R.Trap = T.Trap;
    return R;
  }
  RunSignal Sig = runInterpreter(T, T.Frames.size());
  if (Sig == RunSignal::Trapped) {
    R.Trap = T.Trap;
    T.Frames.clear();
    return R;
  }
  EXPECT_EQ(Sig, RunSignal::Done);
  for (size_t I = 0; I < Func->Type->Results.size(); ++I)
    R.Results.push_back(Value{T.VS.slot(uint32_t(I)),
                              Func->Type->Results[I]});
  return R;
}

/// One-stop helper: build, decode, validate, instantiate and invoke an
/// export on the interpreter.
class InterpFixture {
public:
  explicit InterpFixture(const ModuleBuilder &MB,
                         const HostRegistry *Hosts = nullptr)
      : InterpFixture(MB.build(), Hosts) {}

  explicit InterpFixture(std::vector<uint8_t> Bytes,
                         const HostRegistry *Hosts = nullptr) {
    M = buildAndValidate(std::move(Bytes));
    if (!M)
      return;
    WasmError Err;
    static const HostRegistry Empty;
    Inst = instantiate(*M, Hosts ? *Hosts : Empty, &Heap, &Err);
    EXPECT_NE(Inst, nullptr) << Err.Message;
    if (!Inst)
      return;
    T.Inst = Inst.get();
  }

  bool ok() const { return Inst != nullptr; }

  InvokeResult call(const std::string &Name, const std::vector<Value> &Args) {
    FuncInstance *F = Inst->findExportedFunc(Name);
    EXPECT_NE(F, nullptr) << "no export " << Name;
    if (!F)
      return InvokeResult{TrapReason::HostError, {}};
    return interpInvoke(T, F, Args);
  }

  /// Compiles every function with the given options and flips the module
  /// to the JIT tier. Keeps the code alive in this fixture.
  void jitAll(const CompilerOptions &Opts,
              const ProbeSiteOracle *Probes = nullptr) {
    for (FuncInstance &FI : Inst->Funcs) {
      if (FI.Decl->Imported)
        continue;
      Codes.push_back(compileFunction(*M, *FI.Decl, Opts, Probes));
      FI.Code = Codes.back().get();
      FI.UseJit = true;
    }
  }

  /// Invokes through the tier dispatcher (JIT frames included).
  InvokeResult callJit(const std::string &Name,
                       const std::vector<Value> &Args) {
    FuncInstance *F = Inst->findExportedFunc(Name);
    EXPECT_NE(F, nullptr) << "no export " << Name;
    if (!F)
      return InvokeResult{TrapReason::HostError, {}};
    InvokeResult R;
    std::vector<Value> Out;
    R.Trap = invoke(T, F, Args, &Out);
    R.Results = std::move(Out);
    return R;
  }

  std::unique_ptr<Module> M;
  std::unique_ptr<Instance> Inst;
  std::vector<std::unique_ptr<MCode>> Codes;
  GcHeap Heap;
  Thread T;
};

} // namespace wisp

#endif // WISP_TESTS_TESTUTIL_H
