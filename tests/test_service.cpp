//===- tests/test_service.cpp - batch runner tests --------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The parallel batch runner: manifest parsing (including every malformed
// shape the CLI must diagnose), module resolution, deterministic execution
// across worker counts, and the engine thread-safety contract (concurrent
// private engines agree with a sequential run; meaningful under TSan).
//
//===----------------------------------------------------------------------===//

#include "service/batch.h"
#include "service/serve.h"

#include "engine/registry.h"
#include "suites/suites.h"
#include "support/file.h"
#include "testutil.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <thread>
#include <unistd.h>

using namespace wisp;

namespace {

// --- Manifest parsing ----------------------------------------------------

TEST(Manifest, ParsesJobsKeysAndComments) {
  std::vector<BatchJob> Jobs;
  std::string Err;
  ASSERT_TRUE(parseBatchManifest("# a comment\n"
                                 "\n"
                                 "polybench/2mm tier=threaded scale=2\n"
                                 "nop config=wizard-tiered invoke=run\n"
                                 "ostrich/crc m0 # trailing comment\n"
                                 "file.wasm invoke=gcd args=3528,3780\n",
                                 &Jobs, &Err))
      << Err;
  ASSERT_EQ(Jobs.size(), 4u);
  EXPECT_EQ(Jobs[0].Module, "polybench/2mm");
  EXPECT_EQ(Jobs[0].Config, "interp-threaded"); // tier= resolves.
  EXPECT_EQ(Jobs[0].Scale, 2);
  EXPECT_EQ(Jobs[1].Config, "wizard-tiered");
  EXPECT_TRUE(Jobs[2].UseM0);
  EXPECT_EQ(Jobs[2].Config, "wizard-spc"); // Default.
  EXPECT_EQ(Jobs[3].Invoke, "gcd");
  ASSERT_EQ(Jobs[3].RawArgs.size(), 2u);
  EXPECT_EQ(Jobs[3].RawArgs[0], "3528");
  EXPECT_EQ(Jobs[3].RawArgs[1], "3780");
  EXPECT_EQ(Jobs[3].Line, 6u);
}

TEST(Manifest, RejectsMalformedLines) {
  std::vector<BatchJob> Jobs;
  std::string Err;
  EXPECT_FALSE(parseBatchManifest("nop frobnicate=1\n", &Jobs, &Err));
  EXPECT_NE(Err.find("unknown key"), std::string::npos) << Err;
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;

  EXPECT_FALSE(
      parseBatchManifest("nop\nnop tier=int config=wizard-spc\n", &Jobs, &Err));
  EXPECT_NE(Err.find("mutually exclusive"), std::string::npos) << Err;
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;

  EXPECT_FALSE(parseBatchManifest("nop scale=0\n", &Jobs, &Err));
  EXPECT_NE(Err.find("bad scale"), std::string::npos) << Err;
  EXPECT_FALSE(parseBatchManifest("nop scale=abc\n", &Jobs, &Err));
  EXPECT_NE(Err.find("bad scale"), std::string::npos) << Err;
  // Numeric keys take the CLI flags' strict parser and bounds: no sign,
  // and no scale an int would wrap into a different workload.
  for (const char *Line :
       {"nop scale=2147483648\n", "nop scale=4294967296\n",
        "nop scale=1048577\n", "nop scale=+5\n"}) {
    EXPECT_FALSE(parseBatchManifest(Line, &Jobs, &Err)) << Line;
    EXPECT_NE(Err.find("bad scale"), std::string::npos) << Err;
  }
  EXPECT_FALSE(parseBatchManifest("nop deadline-ms=+5\n", &Jobs, &Err));
  EXPECT_NE(Err.find("bad deadline-ms"), std::string::npos) << Err;
  EXPECT_FALSE(parseBatchManifest("nop fuel=+5\n", &Jobs, &Err));
  EXPECT_NE(Err.find("bad fuel"), std::string::npos) << Err;
  EXPECT_TRUE(parseBatchManifest("nop scale=1048576\n", &Jobs, &Err)) << Err;

  EXPECT_FALSE(parseBatchManifest("nop tier=warp\n", &Jobs, &Err));
  EXPECT_NE(Err.find("unknown tier"), std::string::npos) << Err;
  EXPECT_FALSE(parseBatchManifest("nop config=nonesuch\n", &Jobs, &Err));
  EXPECT_NE(Err.find("unknown config"), std::string::npos) << Err;

  EXPECT_FALSE(parseBatchManifest("m.wasm args=3,,7\n", &Jobs, &Err));
  EXPECT_NE(Err.find("empty args= segment"), std::string::npos) << Err;
  EXPECT_FALSE(parseBatchManifest("m.wasm args=3,\n", &Jobs, &Err));
  EXPECT_NE(Err.find("empty args= segment"), std::string::npos) << Err;
  // "args=" alone is zero arguments, not an error.
  EXPECT_TRUE(parseBatchManifest("nop args=\n", &Jobs, &Err)) << Err;
  EXPECT_TRUE(Jobs[0].RawArgs.empty());

  EXPECT_FALSE(parseBatchManifest("# only comments\n\n", &Jobs, &Err));
  EXPECT_NE(Err.find("no jobs"), std::string::npos) << Err;
}

TEST(Manifest, ResolvesSuiteItemsAndRejectsUnknownModules) {
  std::vector<BatchJob> Jobs;
  std::string Err;
  ASSERT_TRUE(parseBatchManifest("nop\npolybench/2mm\n", &Jobs, &Err));
  ASSERT_TRUE(resolveBatchModules(&Jobs, &Err)) << Err;
  EXPECT_EQ(Jobs[0].Bytes, nopModule());
  EXPECT_FALSE(Jobs[1].Bytes.empty());

  ASSERT_TRUE(parseBatchManifest("no/such-item\n", &Jobs, &Err));
  EXPECT_FALSE(resolveBatchModules(&Jobs, &Err));
  EXPECT_NE(Err.find("cannot resolve module"), std::string::npos) << Err;
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
}

TEST(Manifest, RefusesModuleFilesAboveTheSizeCap) {
  // Sparse files: ftruncate sets the size without allocating blocks, so
  // neither the test nor a correct reader needs disk or memory for them.
  char Dir[] = "/tmp/wisp-test-bigfile-XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  std::string Path = std::string(Dir) + "/huge.wasm";
  for (uint64_t Size : {MaxReadFileBytes + 1, uint64_t(100) << 30}) {
    int Fd = open(Path.c_str(), O_CREAT | O_WRONLY | O_CLOEXEC, 0600);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(ftruncate(Fd, off_t(Size)), 0);
    close(Fd);

    std::vector<uint8_t> Bytes;
    std::string Err;
    EXPECT_FALSE(readFile(Path, &Bytes, &Err));
    EXPECT_NE(Err.find("file size cap"), std::string::npos) << Err;
    EXPECT_NE(Err.find(std::to_string(Size) + " bytes"), std::string::npos)
        << Err;

    std::vector<BatchJob> Jobs;
    ASSERT_TRUE(parseBatchManifest(Path + " tier=spc\n", &Jobs, &Err));
    EXPECT_FALSE(resolveBatchModules(&Jobs, &Err));
    EXPECT_NE(Err.find("manifest line 1: '" + Path + "'"), std::string::npos)
        << Err;
    EXPECT_NE(Err.find("file size cap"), std::string::npos) << Err;
  }
  unlink(Path.c_str());
  rmdir(Dir);
}

TEST(Manifest, NonFileSpecsStillFallBackToSuiteItems) {
  // readFile leaves the error empty for names that are not regular
  // files, so the resolver goes on to the suite names.
  std::vector<uint8_t> Bytes;
  std::string Err;
  EXPECT_FALSE(readFile("polybench/2mm", &Bytes, &Err));
  EXPECT_TRUE(Err.empty()) << Err;
  EXPECT_FALSE(readFile("/tmp", &Bytes, &Err));
  EXPECT_TRUE(Err.empty()) << Err;
}

// --- Value parsing (shared with the CLI) ---------------------------------

TEST(ValueText, FullRangeAndRejection) {
  Value V;
  EXPECT_TRUE(parseValueText("4294967295", ValType::I32, &V));
  EXPECT_EQ(V.asI32(), -1);
  EXPECT_FALSE(parseValueText("4294967296", ValType::I32, &V));
  EXPECT_FALSE(parseValueText("-2147483649", ValType::I32, &V));
  EXPECT_TRUE(parseValueText("-2147483648", ValType::I32, &V));
  EXPECT_FALSE(parseValueText("12x", ValType::I32, &V));
  EXPECT_FALSE(parseValueText("", ValType::I64, &V));
  EXPECT_TRUE(parseValueText("0x10", ValType::I64, &V));
  EXPECT_EQ(V.asI64(), 16);
  EXPECT_TRUE(parseValueText("-1.5", ValType::F64, &V));
  EXPECT_EQ(V.asF64(), -1.5);
  EXPECT_EQ(valueText(Value::makeI32(252)), "252:i32");
}

// --- Batch execution -----------------------------------------------------

/// (i32, i32) -> i32 adder, for args= jobs.
std::vector<uint8_t> addModule() {
  ModuleBuilder MB;
  uint32_t TI = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(TI);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  MB.exportFunc("add", 0);
  return MB.build();
}

/// () -> i32 that divides by zero.
std::vector<uint8_t> trapModule() {
  ModuleBuilder MB;
  uint32_t TI = MB.addType({}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(TI);
  F.i32Const(1);
  F.i32Const(0);
  F.op(Opcode::I32DivU);
  MB.exportFunc("run", 0);
  return MB.build();
}

std::vector<BatchJob> mixedJobs() {
  std::vector<BatchJob> Jobs;
  std::string Err;
  EXPECT_TRUE(parseBatchManifest("nop\n"
                                 "ostrich/crc tier=spc\n"
                                 "ostrich/crc tier=threaded\n"
                                 "libsodium/stream_chacha20 config=wizard-tiered\n"
                                 "polybench/2mm tier=int\n",
                                 &Jobs, &Err))
      << Err;
  EXPECT_TRUE(resolveBatchModules(&Jobs, &Err)) << Err;
  // Two in-memory jobs the manifest cannot spell: args + a trap.
  BatchJob Add;
  Add.Index = uint32_t(Jobs.size());
  Add.Module = "<add>";
  Add.Config = "wizard-spc";
  Add.Invoke = "add";
  Add.RawArgs = {"7", "35"};
  Add.Bytes = addModule();
  Jobs.push_back(std::move(Add));
  BatchJob Trap;
  Trap.Index = uint32_t(Jobs.size());
  Trap.Module = "<trap>";
  Trap.Config = "wasm-now";
  Trap.Bytes = trapModule();
  Jobs.push_back(std::move(Trap));
  return Jobs;
}

void expectSameResults(const BatchReport &A, const BatchReport &B) {
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (size_t I = 0; I < A.Results.size(); ++I) {
    const BatchJobResult &X = A.Results[I];
    const BatchJobResult &Y = B.Results[I];
    EXPECT_EQ(X.Index, Y.Index);
    EXPECT_EQ(X.Ok, Y.Ok);
    EXPECT_EQ(X.Error, Y.Error);
    EXPECT_EQ(X.Trap, Y.Trap) << "job " << I;
    ASSERT_EQ(X.Results.size(), Y.Results.size()) << "job " << I;
    for (size_t V = 0; V < X.Results.size(); ++V)
      EXPECT_EQ(X.Results[V].Bits, Y.Results[V].Bits) << "job " << I;
    EXPECT_EQ(X.ModeledCycles, Y.ModeledCycles) << "job " << I;
    EXPECT_EQ(X.Stats.CodeBytes, Y.Stats.CodeBytes);
    EXPECT_EQ(X.Stats.CodeInsts, Y.Stats.CodeInsts);
    EXPECT_EQ(X.Stats.IrBytes, Y.Stats.IrBytes);
  }
}

TEST(Batch, RunsJobsAndCollectsPerJobState) {
  std::vector<BatchJob> Jobs = mixedJobs();
  BatchReport R = runBatch(Jobs, 2);
  ASSERT_EQ(R.Results.size(), Jobs.size());
  EXPECT_EQ(R.Workers, 2u);
  // nop returns void.
  EXPECT_TRUE(R.Results[0].Ok);
  EXPECT_EQ(R.Results[0].Trap, TrapReason::None);
  EXPECT_TRUE(R.Results[0].Results.empty());
  // The same item on two tiers computes the same value.
  ASSERT_EQ(R.Results[1].Results.size(), 1u);
  ASSERT_EQ(R.Results[2].Results.size(), 1u);
  EXPECT_EQ(R.Results[1].Results[0].Bits, R.Results[2].Results[0].Bits);
  // ...but different modeled cost (JIT vs. threaded interpreter).
  EXPECT_NE(R.Results[1].ModeledCycles, R.Results[2].ModeledCycles);
  // args= job.
  ASSERT_EQ(R.Results[5].Results.size(), 1u);
  EXPECT_EQ(R.Results[5].Results[0].asI32(), 42);
  // The trap job fails without affecting its neighbors.
  EXPECT_TRUE(R.Results[6].Ok);
  EXPECT_EQ(R.Results[6].Trap, TrapReason::DivByZero);
  EXPECT_TRUE(R.Results[6].Results.empty());
  // JIT jobs report compiled-code statistics.
  EXPECT_GT(R.Results[1].Stats.CodeInsts, 0u);
  EXPECT_GT(R.Results[2].Stats.IrBytes, 0u);
}

TEST(Batch, DeterministicAcrossWorkerCounts) {
  std::vector<BatchJob> Jobs = mixedJobs();
  BatchReport Seq = runBatch(Jobs, 1);
  expectSameResults(Seq, runBatch(Jobs, 4));
  expectSameResults(Seq, runBatch(Jobs, 8));
  // More workers than jobs is fine too.
  expectSameResults(Seq, runBatch(Jobs, 16));
}

TEST(Batch, ReportJobLinesAreDeterministic) {
  std::vector<BatchJob> Jobs = mixedJobs();
  auto Render = [&](unsigned Workers) {
    BatchReport R = runBatch(Jobs, Workers);
    char *Buf = nullptr;
    size_t Len = 0;
    FILE *Mem = open_memstream(&Buf, &Len);
    printBatchReport(Mem, Jobs, R, /*Stats=*/true);
    fclose(Mem);
    // Strip the '#'-prefixed summary (wall time, throughput).
    std::string Out;
    std::string All(Buf, Len);
    free(Buf);
    size_t Pos = 0;
    while (Pos < All.size()) {
      size_t Nl = All.find('\n', Pos);
      if (Nl == std::string::npos)
        Nl = All.size();
      if (All[Pos] != '#')
        Out += All.substr(Pos, Nl - Pos) + "\n";
      Pos = Nl + 1;
    }
    return Out;
  };
  std::string One = Render(1);
  EXPECT_FALSE(One.empty());
  EXPECT_EQ(One, Render(8));
}

// --- Engine thread-safety contract ---------------------------------------

// Concurrent private engines (one per thread, the contract documented in
// engine/engine.h) must agree with a sequential reference run. Exercises
// the copy-and-patch template cache build race under TSan: every thread
// warms it through its engine constructor simultaneously.
TEST(Batch, ConcurrentPrivateEnginesAgree) {
  std::vector<LineItem> Items = ostrichSuite(1);
  ASSERT_GE(Items.size(), 4u);
  static const char *Configs[] = {"wizard-spc", "wasm-now", "interp-threaded",
                                  "wizard-tiered"};

  auto RunOne = [&](size_t I) {
    Engine E(configByName(Configs[I % 4]));
    WasmError Err;
    std::unique_ptr<LoadedModule> LM = E.load(Items[I % 4].Bytes, &Err);
    EXPECT_NE(LM, nullptr) << Err.Message;
    if (!LM)
      return uint64_t(0);
    std::vector<Value> Out;
    EXPECT_EQ(E.invoke(*LM, "run", {}, &Out), TrapReason::None);
    return Out.empty() ? uint64_t(0) : Out[0].Bits;
  };

  std::vector<uint64_t> Expected;
  for (size_t I = 0; I < 8; ++I)
    Expected.push_back(RunOne(I));

  std::vector<uint64_t> Got(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < 8; ++I)
    Threads.emplace_back([&, I] { Got[I] = RunOne(I); });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Got, Expected);
}

// --- Serve mode ----------------------------------------------------------

/// One in-process serve session over in-memory streams.
struct ServeRun {
  ServeStats Stats;
  std::string Out;

  /// Lines starting with \p Prefix.
  std::vector<std::string> lines(const std::string &Prefix) const {
    std::vector<std::string> Found;
    size_t Pos = 0;
    while (Pos < Out.size()) {
      size_t Nl = Out.find('\n', Pos);
      if (Nl == std::string::npos)
        Nl = Out.size();
      std::string Line = Out.substr(Pos, Nl - Pos);
      if (Line.compare(0, Prefix.size(), Prefix) == 0)
        Found.push_back(Line);
      Pos = Nl + 1;
    }
    return Found;
  }
};

ServeRun serveOn(const std::string &Input, const ServeOptions &Opts) {
  FILE *In = fmemopen(const_cast<char *>(Input.data()), Input.size(), "r");
  EXPECT_NE(In, nullptr);
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *Out = open_memstream(&Buf, &Len);
  ServeRun R;
  R.Stats = runServe(In, Out, Opts);
  fclose(In);
  fclose(Out);
  R.Out.assign(Buf, Len);
  free(Buf);
  return R;
}

TEST(Serve, AnswersEveryAcceptedJobExactlyOnce) {
  ServeOptions Opts;
  Opts.Workers = 2;
  Opts.QueueCap = 64; // Roomy: nothing sheds, so done lines == job lines.
  ServeRun R = serveOn("nop tier=spc\n"
                       "ostrich/crc tier=int id=crc-int\n"
                       "ostrich/crc tier=spc id=crc-spc\n"
                       "# a comment line\n"
                       "\n"
                       "nop tier=threaded\n"
                       "shutdown\n",
                       Opts);
  EXPECT_EQ(R.Stats.Accepted, 4u);
  EXPECT_EQ(R.Stats.Rejected, 0u);
  EXPECT_EQ(R.Stats.Done, 4u);
  EXPECT_EQ(R.lines("done ").size(), 4u);
  EXPECT_EQ(R.lines("done crc-int ").size(), 1u);
  EXPECT_EQ(R.lines("done crc-spc ").size(), 1u);
  // Latencies recorded per accepted job, in acceptance order.
  ASSERT_EQ(R.Stats.LatenciesMs.size(), 4u);
  for (double L : R.Stats.LatenciesMs)
    EXPECT_GT(L, 0.0);
  // Both tiers computed the same crc: the value part of the two lines
  // (after the id, before ms=) must match.
  std::string A = R.lines("done crc-int ")[0];
  std::string B = R.lines("done crc-spc ")[0];
  A = A.substr(strlen("done crc-int "), A.rfind(" ms=") - strlen("done crc-int "));
  B = B.substr(strlen("done crc-spc "), B.rfind(" ms=") - strlen("done crc-spc "));
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.empty());
}

TEST(Serve, RejectsMalformedLinesAndStopsAtShutdown) {
  ServeOptions Opts;
  ServeRun R = serveOn("nop tier=spc frobnicate=1\n" // Unknown key.
                       "nop fuel=0\n"                // Bad governance value.
                       "nop tier=spc\n"
                       "shutdown\n"
                       "nop tier=spc\n", // Never admitted: after shutdown.
                       Opts);
  EXPECT_EQ(R.Stats.Accepted, 1u);
  EXPECT_EQ(R.Stats.Rejected, 2u);
  ASSERT_EQ(R.lines("reject - parse: ").size(), 2u);
  EXPECT_EQ(R.lines("reject - parse: ")[0].find("serve line 1: unknown key"),
            strlen("reject - parse: "));
  EXPECT_EQ(R.lines("reject - parse: ")[1].find("serve line 2: bad fuel"),
            strlen("reject - parse: "));
  EXPECT_EQ(R.lines("done ").size(), 1u);
}

TEST(Serve, LastLineWithoutNewlineIsAJob) {
  ServeOptions Opts;
  ServeRun R = serveOn("nop tier=spc id=first\nnop tier=spc id=last", Opts);
  EXPECT_EQ(R.Stats.Accepted, 2u);
  EXPECT_EQ(R.lines("done last ").size(), 1u);
}

TEST(Serve, StopDuringALongLineDropsTheFragment) {
  // A stop signal that interrupts the read of a line longer than one
  // fgets chunk leaves the first chunks read; they are not a job (here the
  // rest of the line would have carried its fuel= key).
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  std::string Head = "nop tier=spc id=frag" + std::string(5000, ' ');
  ASSERT_EQ(write(Fds[1], Head.data(), Head.size()), ssize_t(Head.size()));
  FILE *In = fdopen(Fds[0], "r");
  ASSERT_NE(In, nullptr);
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *Out = open_memstream(&Buf, &Len);

  // runServe restores this handler on return, so a signal still in flight
  // then is harmless.
  struct sigaction Quiet, Old;
  memset(&Quiet, 0, sizeof(Quiet));
  Quiet.sa_handler = [](int) {};
  sigaction(SIGTERM, &Quiet, &Old);

  // Signal only once the reader has taken every byte, so it holds the
  // fragment; repeat until runServe returns, since a signal that lands
  // just before the blocking read does not interrupt it.
  std::atomic<bool> Done{false};
  pthread_t Reader = pthread_self();
  std::thread Stopper([&, R = Fds[0]] {
    int Pending = 1;
    while (!Done && ioctl(R, FIONREAD, &Pending) == 0 && Pending > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    while (!Done) {
      pthread_kill(Reader, SIGTERM);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ServeOptions Opts;
  Opts.InstallSignalHandlers = true;
  ServeStats Stats = runServe(In, Out, Opts);
  Done = true;
  Stopper.join();
  sigaction(SIGTERM, &Old, nullptr);
  close(Fds[1]);
  fclose(In);
  fclose(Out);
  std::string Text(Buf, Len);
  free(Buf);

  EXPECT_EQ(Stats.Accepted, 0u) << Text;
  EXPECT_EQ(Text.find("done frag"), std::string::npos) << Text;
}

TEST(Serve, DefaultIdsComeFromTheParsedKeys) {
  // A line without an id= key is named by its acceptance sequence number;
  // "id=" inside a comment or as the module token is not an id= key.
  ServeOptions Opts;
  ServeRun R = serveOn("nop\n"
                       "nop # id=x\n"
                       "id=y\n"
                       "nop id=z\n",
                       Opts);
  EXPECT_EQ(R.lines("done 0 ").size(), 1u) << R.Out;
  EXPECT_EQ(R.lines("done 1 ").size(), 1u) << R.Out;
  ASSERT_EQ(R.lines("done 2 ").size(), 1u) << R.Out;
  EXPECT_NE(R.lines("done 2 ")[0].find("cannot resolve module 'id=y'"),
            std::string::npos);
  EXPECT_EQ(R.lines("done z ").size(), 1u) << R.Out;
}

TEST(Serve, HonorsPerJobFuelAndSessionDefaults) {
  // Per-line fuel= key: a tiny budget traps, a big one completes.
  ServeOptions Opts;
  ServeRun R = serveOn("ostrich/crc tier=spc fuel=5 id=tiny\n"
                       "ostrich/crc tier=spc fuel=100000000 id=big\n",
                       Opts);
  ASSERT_EQ(R.lines("done tiny ").size(), 1u);
  EXPECT_NE(R.lines("done tiny ")[0].find("trap: fuel exhausted"),
            std::string::npos);
  ASSERT_EQ(R.lines("done big ").size(), 1u);
  EXPECT_NE(R.lines("done big ")[0].find("= "), std::string::npos);

  // Session default applies when the line has no fuel= key; a line key
  // overrides it.
  Opts.DefaultFuel = 5;
  ServeRun R2 = serveOn("ostrich/crc tier=int id=defaulted\n"
                       "ostrich/crc tier=int fuel=100000000 id=override\n",
                       Opts);
  EXPECT_NE(R2.lines("done defaulted ")[0].find("trap: fuel exhausted"),
            std::string::npos);
  EXPECT_NE(R2.lines("done override ")[0].find("= "), std::string::npos);
}

TEST(Serve, DeadlineStopsAnInfiniteLoopJob) {
  // The spin module only exists in memory; serve jobs arrive as module
  // specs, so park it in a file the manifest line can name.
  std::string Path = testing::TempDir() + "/wisp_serve_spin.wasm";
  std::vector<uint8_t> Bytes = [] {
    ModuleBuilder MB;
    uint32_t T = MB.addType({}, {});
    FuncBuilder &F = MB.addFunc(T);
    F.loop();
    F.br(0);
    F.end();
    MB.exportFunc("run", MB.funcIndex(F));
    return MB.build();
  }();
  FILE *F = fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  fwrite(Bytes.data(), 1, Bytes.size(), F);
  fclose(F);

  ServeOptions Opts;
  ServeRun R = serveOn(Path + " tier=spc deadline-ms=30 id=spin\n"
                       "nop tier=spc id=after\n",
                       Opts);
  remove(Path.c_str());
  ASSERT_EQ(R.lines("done spin ").size(), 1u);
  EXPECT_NE(R.lines("done spin ")[0].find("trap: deadline exceeded"),
            std::string::npos)
      << R.Out;
  // The worker (and its warm engine) survives to serve the next job.
  ASSERT_EQ(R.lines("done after ").size(), 1u);
  EXPECT_NE(R.lines("done after ")[0].find("= "), std::string::npos);
  EXPECT_EQ(R.Stats.Trapped, 1u);
}

TEST(Serve, BoundedAdmissionShedsInsteadOfBlocking) {
  // One slow worker, capacity 1: the burst must produce rejects, and
  // accepted + rejected must account for every job line. Every accepted
  // job still gets exactly one done line.
  ServeOptions Opts;
  Opts.Workers = 1;
  Opts.QueueCap = 1;
  std::string Input;
  for (int I = 0; I < 32; ++I)
    Input += "ostrich/crc tier=int id=j" + std::to_string(I) + "\n";
  ServeRun R = serveOn(Input, Opts);
  EXPECT_EQ(R.Stats.Accepted + R.Stats.Rejected, 32u);
  EXPECT_GT(R.Stats.Rejected, 0u);
  EXPECT_EQ(R.lines("done ").size(), R.Stats.Accepted);
  for (const std::string &L : R.lines("reject "))
    EXPECT_NE(L.find("queue-full"), std::string::npos);
}

TEST(Serve, FaultInjectionKeepsReportingExactlyOnce) {
  // Deterministic chaos: tiny fuel budgets, allocation failures and
  // concurrent cancels land on ~3/8 of jobs; whatever happens, every
  // accepted job reports exactly once and the session drains cleanly.
  ServeOptions Opts;
  Opts.Workers = 4;
  Opts.QueueCap = 64;
  Opts.FaultSeed = 0xfeedface;
  std::string Input;
  for (int I = 0; I < 48; ++I)
    Input += "ostrich/crc tier=spc id=f" + std::to_string(I) + "\n";
  ServeRun R = serveOn(Input, Opts);
  EXPECT_EQ(R.Stats.Accepted, 48u);
  EXPECT_EQ(R.lines("done ").size(), 48u);
  for (int I = 0; I < 48; ++I)
    EXPECT_EQ(R.lines("done f" + std::to_string(I) + " ").size(), 1u);
  EXPECT_GT(R.Stats.Faults, 0u);
  // With 48 jobs and ~1/8 tiny-fuel faults the odds that none trapped
  // are negligible — and a trap must never be double-reported.
  EXPECT_EQ(R.Stats.Done + R.Stats.Trapped + R.Stats.Errors, 48u);
}

TEST(Serve, DrainsInFlightJobsOnEofUnderLoad) {
  // Drain-under-load: a writer feeds jobs through a real pipe and closes
  // it mid-stream (the in-process analogue of SIGTERM); every job that
  // was accepted before EOF must still be reported exactly once.
  int Fds[2];
  ASSERT_EQ(pipe(Fds), 0);
  FILE *In = fdopen(Fds[0], "r");
  ASSERT_NE(In, nullptr);
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *Out = open_memstream(&Buf, &Len);

  std::thread Writer([W = Fds[1]] {
    for (int I = 0; I < 24; ++I) {
      std::string Line = "ostrich/crc tier=int id=d" + std::to_string(I) + "\n";
      ssize_t N = write(W, Line.data(), Line.size());
      (void)N;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    close(W); // EOF with jobs still queued and running.
  });

  ServeOptions Opts;
  Opts.Workers = 2;
  Opts.QueueCap = 64;
  ServeStats Stats = runServe(In, Out, Opts);
  Writer.join();
  fclose(In);
  fclose(Out);
  ServeRun R;
  R.Stats = Stats;
  R.Out.assign(Buf, Len);
  free(Buf);

  EXPECT_EQ(R.Stats.Accepted, 24u);
  EXPECT_EQ(R.lines("done ").size(), 24u);
  for (int I = 0; I < 24; ++I)
    EXPECT_EQ(R.lines("done d" + std::to_string(I) + " ").size(), 1u);
}

} // namespace
