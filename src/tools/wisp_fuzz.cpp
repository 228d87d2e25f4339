//===- tools/wisp_fuzz.cpp - differential fuzzing driver -------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Standalone differential fuzzer: generates random modules, runs every
// export through all six execution tiers, and reports any divergence in
// results, traps, linear memory or global state. Divergent modules are
// minimized with the greedy shrinker and dumped as both .wasm bytes and a
// readable listing.
//
//   wisp-fuzz --seed-start=0 --seed-count=1000
//   wisp-fuzz --profile=memory --max-seconds=300 --out-dir=divergences
//   wisp-fuzz --replay=tests/corpus
//
//===----------------------------------------------------------------------===//

#include "fuzz/differ.h"
#include "fuzz/randwasm.h"
#include "fuzz/shrink.h"
#include "support/file.h"
#include "wasm/reader.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace wisp;

namespace {

const char *UsageText =
    "usage: wisp-fuzz [options]\n"
    "\n"
    "Differential fuzzing: every generated module runs on all eight\n"
    "execution tiers (int, threaded, spc, copypatch, twopass, opt, plus\n"
    "the tiered/OSR configs tiered and tiered-threaded) and two\n"
    "instrumented interpreter configurations (int+mon, threaded+mon:\n"
    "branch/coverage monitors attached, state compared across dispatch\n"
    "strategies); any mismatch in results, traps, trap sites (the faulting\n"
    "bytecode offset), memory, globals or monitor state is a divergence.\n"
    "Static artifact verification runs on every tier, so a compiled body\n"
    "that fails translation validation is itself a first-class finding\n"
    "(signature \"verifier rejection (<tier>): ...\") even when execution\n"
    "would have agreed. Divergent modules are minimized and dumped as\n"
    ".wasm plus a readable listing.\n"
    "\n"
    "options:\n"
    "  --seed-start=N    first seed (default 0)\n"
    "  --seed-count=N    number of seeds to run (default 100)\n"
    "  --profile=NAME    generation profile:\n"
    "                    default|control|memory|exits|mixed\n"
    "                    (mixed rotates per seed; default \"mixed\")\n"
    "  --max-seconds=N   stop the campaign after N seconds (0 = no limit)\n"
    "  --out-dir=DIR     where minimized reproducers are written (default .)\n"
    "  --no-shrink       report divergences without minimizing\n"
    "  --shrink-budget=N max oracle runs per shrink (default 20000)\n"
    "  --replay=PATH     replay mode: run every .wasm under PATH (or PATH\n"
    "                    itself) through all six tiers with fixed argument\n"
    "                    tuples and assert agreement\n"
    "  --help            show this help\n"
    "\n"
    "exit status: 0 = no divergence, 1 = divergence found, 2 = usage error\n";

int usageError(const char *Fmt, const char *Arg) {
  fprintf(stderr, Fmt, Arg);
  fprintf(stderr, "\n%s", UsageText);
  return 2;
}

double nowSeconds() {
  return double(std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) /
         1e3;
}

bool parseU64(const char *Text, uint64_t *Out) {
  if (!*Text)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = strtoull(Text, &End, 0);
  if (*End || errno == ERANGE)
    return false;
  *Out = V;
  return true;
}


bool writeFile(const std::string &Path, const void *Data, size_t Size) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out.write(reinterpret_cast<const char *>(Data), std::streamsize(Size));
  return bool(Out);
}

struct FuzzOptions {
  uint64_t SeedStart = 0;
  uint64_t SeedCount = 100;
  std::string Profile = "mixed";
  uint64_t MaxSeconds = 0;
  std::string OutDir = ".";
  bool Shrink = true;
  uint64_t ShrinkBudget = 20000;
  std::string Replay;
};

FuzzProfile profileForSeed(const FuzzOptions &Opt, uint64_t Seed) {
  FuzzProfile P;
  if (Opt.Profile == "mixed") {
    static const char *Rotation[] = {"default", "control", "memory", "exits"};
    fuzzProfileByName(Rotation[Seed % 4], &P);
    return P;
  }
  fuzzProfileByName(Opt.Profile, &P);
  return P;
}

/// Writes the minimized reproducer pair and returns the .wasm path.
std::string dumpReproducer(const FuzzOptions &Opt, const std::string &Stem,
                           const FuzzModule &M, const DiffReport &Report,
                           const std::vector<Value> &Args) {
  std::error_code Ec;
  std::filesystem::create_directories(Opt.OutDir, Ec);
  std::string WasmPath = Opt.OutDir + "/" + Stem + ".wasm";
  // Bake the campaign arguments in as a zero-arg "repro" export so the
  // reproducer keeps diverging when replayed with generic argument tuples.
  std::vector<uint8_t> Bytes = M.toBytes(&Args);
  if (!writeFile(WasmPath, Bytes.data(), Bytes.size()))
    fprintf(stderr, "wisp-fuzz: cannot write %s\n", WasmPath.c_str());

  std::string Text = "divergence: " + Report.Detail + "\nargs:";
  for (const Value &V : Args)
    Text += " " + V.toString();
  Text += "\n\n" + M.listing();
  std::string TxtPath = Opt.OutDir + "/" + Stem + ".txt";
  if (!writeFile(TxtPath, Text.data(), Text.size()))
    fprintf(stderr, "wisp-fuzz: cannot write %s\n", TxtPath.c_str());
  return WasmPath;
}

int runCampaign(const FuzzOptions &Opt) {
  double T0 = nowSeconds();
  uint64_t Ran = 0;
  unsigned Divergences = 0;
  for (uint64_t I = 0; I < Opt.SeedCount; ++I) {
    if (Opt.MaxSeconds && nowSeconds() - T0 > double(Opt.MaxSeconds)) {
      printf("wisp-fuzz: time budget (%llu s) reached after %llu seeds\n",
             (unsigned long long)Opt.MaxSeconds, (unsigned long long)Ran);
      break;
    }
    uint64_t Seed = Opt.SeedStart + I;
    FuzzProfile P = profileForSeed(Opt, Seed);
    RandWasm Gen(Seed, P);
    FuzzModule M = Gen.build();
    std::vector<Value> Args = argsForSeed(Seed, M.main().Params);
    DiffReport Report = runAllTiers(M.toBytes(), "f", Args);
    ++Ran;
    if (!Report.Diverged)
      continue;

    ++Divergences;
    printf("wisp-fuzz: DIVERGENCE seed=%llu profile=%s\n  %s\n",
           (unsigned long long)Seed, P.Name, Report.Detail.c_str());
    FuzzModule Min = M;
    if (Opt.Shrink) {
      FuzzOracle Oracle = [&Args](const FuzzModule &Cand) {
        return runAllTiers(Cand.toBytes(), "f", Args).Diverged;
      };
      ShrinkStats Stats;
      Min = shrinkModule(M, Oracle, &Stats, Opt.ShrinkBudget);
      printf("  shrink: %zu -> %zu bytes (%zu -> %zu nodes, %zu/%zu edits "
             "kept)\n",
             Stats.BytesBefore, Stats.BytesAfter, Stats.NodesBefore,
             Stats.NodesAfter, Stats.Accepted, Stats.Attempts);
    }
    DiffReport MinReport = runAllTiers(Min.toBytes(), "f", Args);
    std::string Stem = "div-" + std::string(P.Name) + "-seed" +
                       std::to_string(Seed);
    std::string Path = dumpReproducer(
        Opt, Stem, Min, MinReport.Diverged ? MinReport : Report, Args);
    printf("  reproducer: %s (+ listing .txt)\n", Path.c_str());
  }
  double Elapsed = nowSeconds() - T0;
  printf("wisp-fuzz: %llu seeds, %u divergence(s), %.1f s (%.1f seeds/s)\n",
         (unsigned long long)Ran, Divergences, Elapsed,
         Elapsed > 0 ? double(Ran) / Elapsed : 0.0);
  return Divergences ? 1 : 0;
}

int replayOne(const std::string &Path, unsigned *Divergences) {
  std::vector<uint8_t> Bytes;
  if (!readFile(Path, &Bytes)) {
    fprintf(stderr, "wisp-fuzz: cannot read %s\n", Path.c_str());
    return 2;
  }
  WasmError Err;
  std::unique_ptr<Module> M = decodeModule(Bytes, &Err);
  if (!M) {
    fprintf(stderr, "wisp-fuzz: %s: decode failed: %s\n", Path.c_str(),
            Err.Message.c_str());
    ++*Divergences;
    return 0;
  }
  unsigned Exports = 0;
  for (const Export &E : M->Exports) {
    if (E.Kind != ExternKind::Func)
      continue;
    ++Exports;
    const FuncType &Type = M->funcType(E.Index);
    for (const std::vector<Value> &Args : replayArgTuples(Type.Params)) {
      DiffReport Report = runAllTiers(Bytes, E.Name, Args);
      if (!Report.Diverged)
        continue;
      ++*Divergences;
      std::string ArgText;
      for (const Value &V : Args)
        ArgText += " " + V.toString();
      printf("wisp-fuzz: DIVERGENCE %s export=%s args=%s\n  %s\n",
             Path.c_str(), E.Name.c_str(), ArgText.c_str(),
             Report.Detail.c_str());
    }
  }
  if (!Exports)
    fprintf(stderr, "wisp-fuzz: warning: %s exports no functions\n",
            Path.c_str());
  return 0;
}

int runReplay(const FuzzOptions &Opt) {
  std::vector<std::string> Files;
  std::error_code Ec;
  if (std::filesystem::is_directory(Opt.Replay, Ec)) {
    for (const auto &Entry :
         std::filesystem::directory_iterator(Opt.Replay, Ec))
      if (Entry.path().extension() == ".wasm")
        Files.push_back(Entry.path().string());
    std::sort(Files.begin(), Files.end());
  } else {
    Files.push_back(Opt.Replay);
  }
  if (Files.empty()) {
    fprintf(stderr, "wisp-fuzz: no .wasm files under %s\n",
            Opt.Replay.c_str());
    return 2;
  }
  unsigned Divergences = 0;
  for (const std::string &Path : Files) {
    int Rc = replayOne(Path, &Divergences);
    if (Rc)
      return Rc;
  }
  printf("wisp-fuzz: replayed %zu module(s), %u divergence(s)\n",
         Files.size(), Divergences);
  return Divergences ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  FuzzOptions Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = strlen(Prefix);
      return A.compare(0, N, Prefix) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = Val("--seed-start=")) {
      if (!parseU64(V, &Opt.SeedStart))
        return usageError("bad --seed-start value: %s\n", V);
    } else if (const char *V = Val("--seed-count=")) {
      if (!parseU64(V, &Opt.SeedCount))
        return usageError("bad --seed-count value: %s\n", V);
    } else if (const char *V = Val("--profile=")) {
      FuzzProfile P;
      if (std::string(V) != "mixed" && !fuzzProfileByName(V, &P))
        return usageError("unknown profile: %s (want default|control|memory|"
                          "exits|mixed)\n",
                          V);
      Opt.Profile = V;
    } else if (const char *V = Val("--max-seconds=")) {
      if (!parseU64(V, &Opt.MaxSeconds))
        return usageError("bad --max-seconds value: %s\n", V);
    } else if (const char *V = Val("--out-dir=")) {
      Opt.OutDir = V;
    } else if (A == "--no-shrink") {
      Opt.Shrink = false;
    } else if (const char *V = Val("--shrink-budget=")) {
      if (!parseU64(V, &Opt.ShrinkBudget) || !Opt.ShrinkBudget)
        return usageError("bad --shrink-budget value: %s\n", V);
    } else if (const char *V = Val("--replay=")) {
      Opt.Replay = V;
    } else if (A == "--help" || A == "-h") {
      printf("%s", UsageText);
      return 0;
    } else {
      return usageError("unknown option: %s\n", A.c_str());
    }
  }
  if (!Opt.Replay.empty())
    return runReplay(Opt);
  return runCampaign(Opt);
}
