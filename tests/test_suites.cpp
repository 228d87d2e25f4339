//===- tests/test_suites.cpp - benchmark suite integration tests -----------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Every generated line item must decode, validate, instantiate and run on
// every tier, and all tiers must agree on the checksum the kernel returns.
// This is the integration test backing the benchmark harness.
//
//===----------------------------------------------------------------------===//

#include "testutil.h"

#include "engine/engine.h"
#include "engine/registry.h"
#include "suites/suites.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace wisp;

namespace {

Value runItem(const EngineConfig &Cfg, const std::vector<uint8_t> &Bytes) {
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(Bytes, &Err);
  EXPECT_NE(LM, nullptr) << Cfg.Name << ": " << Err.Message;
  if (!LM)
    return Value{};
  std::vector<Value> Out;
  TrapReason Trap = E.invoke(*LM, "run", {}, &Out);
  EXPECT_EQ(Trap, TrapReason::None)
      << Cfg.Name << ": " << trapReasonName(Trap);
  if (Trap != TrapReason::None || Out.empty())
    return Value{};
  return Out[0];
}

class SuiteItems : public ::testing::TestWithParam<size_t> {
public:
  static const std::vector<LineItem> &items() {
    static const std::vector<LineItem> Items = allSuites(1);
    return Items;
  }
};

TEST_P(SuiteItems, AllTiersAgree) {
  const LineItem &Item = items()[GetParam()];
  SCOPED_TRACE(Item.Suite + "/" + Item.Name);

  Value Ref = runItem(configByName("wizard-int"), Item.Bytes);
  EXPECT_EQ(Ref.Type, Item.ResultType);
  // The checksum must be a real value (kernels are designed to produce
  // finite nonzero results).
  if (Item.ResultType == ValType::F64) {
    EXPECT_TRUE(std::isfinite(Ref.asF64()));
  }

  for (const char *Tier : {"wizard-spc", "wazero", "wasm-now", "v8-liftoff",
                           "wasmtime", "wizard-tiered"}) {
    Value Got = runItem(configByName(Tier), Item.Bytes);
    EXPECT_EQ(Ref, Got) << Tier << " expected " << Ref.toString() << " got "
                        << Got.toString();
  }

  // The m0 (early-return) variant must be near-free to execute and return
  // the zero of the result type.
  Value M0 = runItem(configByName("wizard-int"), Item.M0Bytes);
  EXPECT_EQ(M0.Bits, 0u);
  // And be the same module size class (within the two extra instructions).
  EXPECT_NEAR(double(Item.M0Bytes.size()), double(Item.Bytes.size()), 16.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, SuiteItems, ::testing::Range(size_t(0), SuiteItems::items().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const LineItem &Item = SuiteItems::items()[Info.param];
      std::string Name = Item.Suite + "_" + Item.Name;
      for (char &C : Name)
        if (!isalnum(uint8_t(C)))
          C = '_';
      return Name;
    });

TEST(Suites, CountsMatchPaper) {
  EXPECT_EQ(polybenchSuite(1).size(), 28u);
  EXPECT_EQ(libsodiumSuite(1).size(), 39u);
  EXPECT_EQ(ostrichSuite(1).size(), 11u);
  EXPECT_EQ(allSuites(1).size(), 78u);
}

TEST(Suites, NopModuleIsTiny) {
  // The paper's Mnop is 104 bytes; ours is the same order of magnitude.
  std::vector<uint8_t> Nop = nopModule();
  EXPECT_LT(Nop.size(), 104u);
  Value V = runItem(configByName("wizard-int"), Nop);
  (void)V; // Just must not trap.
}

/// Modeled cycles of one invoke("run") of \p Bytes on a fresh engine.
uint64_t runCycles(const EngineConfig &Cfg, const std::vector<uint8_t> &Bytes) {
  Engine E(Cfg);
  WasmError Err;
  auto LM = E.load(Bytes, &Err);
  EXPECT_NE(LM, nullptr) << Cfg.Name << ": " << Err.Message;
  if (!LM)
    return 0;
  std::vector<Value> Out;
  EXPECT_EQ(E.invoke(*LM, "run", {}, &Out), TrapReason::None) << Cfg.Name;
  return E.thread().modeledCycles();
}

TEST(Suites, ScaleGrowsWork) {
  // Scale must increase modeled work, not module size class.
  EngineConfig Cfg = configByName("wizard-spc");
  LineItem S1, S3;
  for (LineItem &I : polybenchSuite(1))
    if (I.Name == "atax")
      S1 = std::move(I);
  for (LineItem &I : polybenchSuite(3))
    if (I.Name == "atax")
      S3 = std::move(I);
  EXPECT_GT(runCycles(Cfg, S3.Bytes), 2 * runCycles(Cfg, S1.Bytes));
}

TEST(Suites, OptimizingBeatsBaselineOnEverySuite) {
  // The paper's SQ-space places optimizing tiers at 2-3x the execution
  // speed of baseline compilers. Modeled cycles are deterministic, so the
  // per-suite geomean ordering is gated exactly.
  EngineConfig Opt = configByName("wasmtime");
  EngineConfig Spc = configByName("wizard-spc");
  for (const auto &[Suite, Items] :
       {std::pair{"polybench", polybenchSuite(1)},
        std::pair{"libsodium", libsodiumSuite(1)},
        std::pair{"ostrich", ostrichSuite(1)}}) {
    double LogOpt = 0, LogSpc = 0;
    for (const LineItem &Item : Items) {
      LogOpt += std::log(double(runCycles(Opt, Item.Bytes)));
      LogSpc += std::log(double(runCycles(Spc, Item.Bytes)));
    }
    double N = double(Items.size());
    EXPECT_LT(std::exp(LogOpt / N), std::exp(LogSpc / N))
        << Suite << ": wasmtime geomean " << std::exp(LogOpt / N) / 1e6
        << " Mcycles vs wizard-spc " << std::exp(LogSpc / N) / 1e6;
  }
}

} // namespace
