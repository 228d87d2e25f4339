//===- tests/test_diskcache.cpp - on-disk artifact cache battery ------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The persistent artifact cache (src/cache/diskcache.*) and its engine
// wiring: serialization round-trips, the cross-process warm start (two
// engines, two private in-process caches, one directory — only the disk
// level can serve the second load), and the damage battery: truncation,
// bit-flipped payloads, stale format digests, wrong-key echoes,
// checksum-valid-but-semantically-wrong artifacts (caught by the
// mandatory re-verify at admission), concurrent writer races, and
// unopenable directories. Every damaged file must be rejected, deleted
// and rebuilt — never crash the engine, never serve a bad artifact.
// Also hosts the parseU64 unit tests (support/parse.h): the checked
// numeric-input helper behind --scale/--fuel/WISP_CACHE_BYTES.
//
//===----------------------------------------------------------------------===//

#include "cache/diskcache.h"

#include "cache/compilecache.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "interp/predecode.h"
#include "spc/compiler.h"
#include "support/parse.h"
#include "testutil.h"

#include <cstdio>
#include <dirent.h>
#include <functional>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace wisp;

namespace {

/// Creates a fresh private directory for one test.
std::string makeTempDir() {
  char Tmpl[] = "/tmp/wisp-test-disk-XXXXXX";
  char *D = mkdtemp(Tmpl);
  EXPECT_NE(D, nullptr);
  return D ? std::string(D) : std::string();
}

/// Removes every regular file in \p Dir, then the directory itself (the
/// store writes a flat namespace, nothing recursive to handle).
void removeTempDir(const std::string &Dir) {
  if (Dir.empty())
    return;
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::remove((Dir + "/" + Name).c_str());
    }
    closedir(D);
  }
  rmdir(Dir.c_str());
}

/// RAII wrapper so failures still clean /tmp.
struct TempDir {
  std::string Path = makeTempDir();
  ~TempDir() { removeTempDir(Path); }
};

/// Artifact files of \p Kind currently published in \p Dir.
std::vector<std::string> artifactFiles(const std::string &Dir,
                                       DiskArtifactKind Kind) {
  std::vector<std::string> Out;
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (!Name.empty() && Name[0] == char(Kind) && Name.size() > 4 &&
          Name.substr(Name.size() - 4) == ".wac")
        Out.push_back(Dir + "/" + Name);
    }
    closedir(D);
  }
  return Out;
}

/// add(a, b) — one body, one memory page, exported as "add".
std::vector<uint8_t> addModule() {
  ModuleBuilder MB;
  uint32_t Ty = MB.addType({ValType::I32, ValType::I32}, {ValType::I32});
  FuncBuilder &F = MB.addFunc(Ty);
  F.localGet(0);
  F.localGet(1);
  F.op(Opcode::I32Add);
  MB.addMemory(1);
  MB.exportFunc("add", 0);
  return MB.build();
}

std::unique_ptr<LoadedModule> loadOn(Engine &E,
                                     const std::vector<uint8_t> &Bytes) {
  WasmError Err;
  std::unique_ptr<LoadedModule> LM = E.load(Bytes, &Err);
  EXPECT_NE(LM, nullptr) << Err.Message;
  return LM;
}

Value invokeOne(Engine &E, LoadedModule &LM, const std::string &Name,
                const std::vector<Value> &Args) {
  std::vector<Value> Out;
  EXPECT_EQ(E.invoke(LM, Name, Args, &Out), TrapReason::None);
  EXPECT_EQ(Out.size(), 1u);
  return Out.empty() ? Value{} : Out[0];
}

/// A caching + disk-backed configuration rooted at \p Dir. VerifyArtifacts
/// is pinned on so the codeCacheKey the test recomputes matches the
/// engine's regardless of build flavor.
EngineConfig diskConfig(const char *Name, const std::string &Dir) {
  EngineConfig Cfg = configByName(Name);
  Cfg.UseCompileCache = true;
  Cfg.VerifyArtifacts = true;
  Cfg.DiskCacheDir = Dir;
  return Cfg;
}

/// Loads + invokes add(19, 23) on a fresh engine with a fresh in-process
/// cache over \p Dir; returns the LoadStats. Only the disk level persists
/// across calls, so every call is a cross-process warm start in miniature.
LoadStats runOnce(const char *Config, const std::string &Dir,
                  uint64_t *DiskRejected = nullptr,
                  std::string *DiskNote = nullptr) {
  CompileCache Cache;
  Engine E(diskConfig(Config, Dir), &Cache);
  auto LM = loadOn(E, addModule());
  EXPECT_NE(LM, nullptr);
  if (!LM)
    return LoadStats();
  EXPECT_EQ(
      invokeOne(E, *LM, "add", {Value::makeI32(19), Value::makeI32(23)})
          .asI32(),
      42);
  if (DiskRejected)
    *DiskRejected = E.disk() ? E.disk()->totals().Rejected : 0;
  if (DiskNote)
    *DiskNote = E.diskNote();
  return LM->Stats;
}

// --- Serialization round-trips --------------------------------------------

TEST(DiskSerialize, MCodeRoundTripsByteIdentical) {
  std::unique_ptr<Module> M = buildAndValidate(addModule());
  ASSERT_TRUE(M);
  EngineConfig Cfg = configByName("wizard-spc");
  std::unique_ptr<MCode> Code =
      compileFunction(*M, M->Funcs[0], Cfg.Opts, nullptr);
  ASSERT_TRUE(Code);
  ASSERT_FALSE(Code->Insts.empty());
  ASSERT_FALSE(Code->LineTable.empty());

  std::vector<uint8_t> Bytes = serializeMCode(*Code);
  std::shared_ptr<MCode> Back = deserializeMCode(Bytes);
  ASSERT_TRUE(Back);

  EXPECT_EQ(Back->FuncIndex, Code->FuncIndex);
  EXPECT_EQ(Back->FrameSlots, Code->FrameSlots);
  ASSERT_EQ(Back->Insts.size(), Code->Insts.size());
  for (size_t I = 0; I < Code->Insts.size(); ++I) {
    EXPECT_EQ(Back->Insts[I].Op, Code->Insts[I].Op) << "inst " << I;
    EXPECT_EQ(Back->Insts[I].Imm, Code->Insts[I].Imm) << "inst " << I;
    EXPECT_EQ(Back->Insts[I].Imm2, Code->Insts[I].Imm2) << "inst " << I;
  }
  ASSERT_EQ(Back->LineTable.size(), Code->LineTable.size());
  for (size_t I = 0; I < Code->LineTable.size(); ++I) {
    EXPECT_EQ(Back->LineTable[I].Pc, Code->LineTable[I].Pc);
    EXPECT_EQ(Back->LineTable[I].Ip, Code->LineTable[I].Ip);
  }
  EXPECT_EQ(Back->BrTables, Code->BrTables);
  EXPECT_EQ(Back->Patches.size(), Code->Patches.size());
  // The reserialized form is bit-identical: the format is canonical.
  EXPECT_EQ(serializeMCode(*Back), Bytes);
}

TEST(DiskSerialize, ThreadedCodeRoundTripsByteIdentical) {
  std::unique_ptr<Module> M = buildAndValidate(addModule());
  ASSERT_TRUE(M);
  std::unique_ptr<ThreadedCode> TC =
      predecodeFunction(*M, M->Funcs[0], nullptr, /*EnableFusion=*/true);
  ASSERT_TRUE(TC);
  ASSERT_FALSE(TC->Units.empty());

  std::vector<uint8_t> Bytes = serializeThreadedCode(*TC);
  std::shared_ptr<ThreadedCode> Back = deserializeThreadedCode(Bytes);
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->Units.size(), TC->Units.size());
  EXPECT_EQ(Back->NumFused, TC->NumFused);
  EXPECT_EQ(serializeThreadedCode(*Back), Bytes);
}

TEST(DiskSerialize, DeserializeRejectsDamage) {
  std::unique_ptr<Module> M = buildAndValidate(addModule());
  ASSERT_TRUE(M);
  EngineConfig Cfg = configByName("wizard-spc");
  std::unique_ptr<MCode> Code =
      compileFunction(*M, M->Funcs[0], Cfg.Opts, nullptr);
  ASSERT_TRUE(Code);
  std::vector<uint8_t> Bytes = serializeMCode(*Code);

  // Truncation at every sampled prefix must fail cleanly, never crash.
  for (size_t Len = 0; Len < Bytes.size(); Len += 7) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    EXPECT_EQ(deserializeMCode(Cut), nullptr) << "prefix " << Len;
  }
  // Trailing garbage is rejected too (no silent over-read).
  std::vector<uint8_t> Long = Bytes;
  Long.push_back(0);
  EXPECT_EQ(deserializeMCode(Long), nullptr);
}

// --- Cross-process warm start ---------------------------------------------

TEST(DiskCacheTest, CrossProcessWarmStartServesFromDisk) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());

  // Process 1: everything misses, the artifact is published.
  LoadStats Cold = runOnce("wizard-spc", Tmp.Path);
  EXPECT_EQ(Cold.DiskHits, 0u);
  EXPECT_GE(Cold.DiskMisses, 1u);
  EXPECT_GE(Cold.CacheMisses, 1u);
  ASSERT_EQ(artifactFiles(Tmp.Path, DiskArtifactKind::Code).size(), 1u);

  // Process 2 (fresh in-process cache): the body comes from disk — it is
  // neither an in-process hit nor a rebuild, and the recorded build time
  // is credited as saved work.
  LoadStats Warm = runOnce("wizard-spc", Tmp.Path);
  EXPECT_GE(Warm.DiskHits, 1u);
  EXPECT_EQ(Warm.DiskMisses, 0u);
  EXPECT_GT(Warm.CacheSavedNs, 0u);
}

TEST(DiskCacheTest, ThreadedIrWarmStartServesFromDisk) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());

  LoadStats Cold = runOnce("interp-threaded", Tmp.Path);
  EXPECT_EQ(Cold.DiskHits, 0u);
  EXPECT_GE(Cold.DiskMisses, 1u);
  ASSERT_EQ(artifactFiles(Tmp.Path, DiskArtifactKind::Ir).size(), 1u);

  LoadStats Warm = runOnce("interp-threaded", Tmp.Path);
  EXPECT_GE(Warm.DiskHits, 1u);
  EXPECT_EQ(Warm.DiskMisses, 0u);
}

TEST(DiskCacheTest, CodeAndIrArtifactsNeverAlias) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  runOnce("wizard-spc", Tmp.Path);
  runOnce("interp-threaded", Tmp.Path);
  // Same body, two artifact families, two files.
  EXPECT_EQ(artifactFiles(Tmp.Path, DiskArtifactKind::Code).size(), 1u);
  EXPECT_EQ(artifactFiles(Tmp.Path, DiskArtifactKind::Ir).size(), 1u);
}

// --- Damage battery: every corruption rebuilds cleanly --------------------

/// Publishes a warm artifact, damages it with \p Damage, then asserts the
/// next load rejects the file, rebuilds, still computes 42, and
/// re-publishes a good artifact that a third load can hit.
void corruptionRoundTrip(
    const std::function<void(const std::string &)> &Damage) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  runOnce("wizard-spc", Tmp.Path);
  std::vector<std::string> Files =
      artifactFiles(Tmp.Path, DiskArtifactKind::Code);
  ASSERT_EQ(Files.size(), 1u);
  Damage(Files[0]);

  uint64_t Rejected = 0;
  LoadStats Hurt = runOnce("wizard-spc", Tmp.Path, &Rejected);
  EXPECT_EQ(Hurt.DiskHits, 0u) << "damaged artifact must not be served";
  EXPECT_GE(Hurt.DiskMisses, 1u);
  EXPECT_GE(Rejected, 1u) << "damage must be detected and the file deleted";

  // The rebuild re-published a good artifact: the third load hits disk.
  ASSERT_EQ(artifactFiles(Tmp.Path, DiskArtifactKind::Code).size(), 1u);
  LoadStats Healed = runOnce("wizard-spc", Tmp.Path);
  EXPECT_GE(Healed.DiskHits, 1u);
}

TEST(DiskCorruption, TruncatedFileRebuildsCleanly) {
  corruptionRoundTrip([](const std::string &Path) {
    EXPECT_EQ(truncate(Path.c_str(), 40), 0);
  });
}

TEST(DiskCorruption, TruncatedToZeroRebuildsCleanly) {
  corruptionRoundTrip([](const std::string &Path) {
    EXPECT_EQ(truncate(Path.c_str(), 0), 0);
  });
}

TEST(DiskCorruption, BitFlippedPayloadRebuildsCleanly) {
  corruptionRoundTrip([](const std::string &Path) {
    // Flip one bit past the 72-byte header: the checksum must catch it.
    FILE *F = fopen(Path.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(fseek(F, 80, SEEK_SET), 0);
    int C = fgetc(F);
    ASSERT_NE(C, EOF);
    ASSERT_EQ(fseek(F, 80, SEEK_SET), 0);
    fputc(C ^ 0x40, F);
    fclose(F);
  });
}

TEST(DiskCorruption, StaleFormatDigestRebuildsCleanly) {
  corruptionRoundTrip([](const std::string &Path) {
    // Overwrite the u64 build/version digest at header offset 8: a file
    // written by an incompatible wisp build must never be trusted.
    FILE *F = fopen(Path.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(fseek(F, 8, SEEK_SET), 0);
    for (int I = 0; I < 8; ++I)
      fputc(0x5A, F);
    fclose(F);
  });
}

TEST(DiskCorruption, OtherCodegenRevisionRebuildsCleanly) {
  corruptionRoundTrip([](const std::string &Path) {
    // Forge the digest of a build whose compilers emitted different code
    // (same format, previous codegen revision): its artifacts are stale.
    uint64_t Old = diskFormatDigest(CodegenRevision - 1);
    ASSERT_NE(Old, diskFormatDigest());
    FILE *F = fopen(Path.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(fseek(F, 8, SEEK_SET), 0);
    for (int I = 0; I < 8; ++I)
      fputc(int((Old >> (8 * I)) & 0xff), F);
    fclose(F);
  });
}

TEST(DiskCorruption, PreviousFormatVersionRejectedAsStale) {
  // A well-formed file from the build before DiskFormatVersion 2: its
  // MCode payload still carries the two u64 stats (compile time, input
  // bytes) after FuncIndex/FrameSlots, the checksum is valid and the
  // digest is that build's. It must be rejected by the digest, before
  // the payload is ever parsed with the new layout.
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  runOnce("wizard-spc", Tmp.Path);
  std::unique_ptr<Module> M = buildAndValidate(addModule());
  ASSERT_TRUE(M);
  EngineConfig Cfg = diskConfig("wizard-spc", Tmp.Path);
  CacheKey K = codeCacheKey(moduleContextDigest(*M), *M, M->Funcs[0],
                            Cfg.Compiler, Cfg.Opts, Cfg.VerifyArtifacts);
  std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
  ASSERT_TRUE(DC);
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(DC->load(K, DiskArtifactKind::Code, &Payload));
  Payload.insert(Payload.begin() + 8, 16, uint8_t(0x11));
  ASSERT_TRUE(DC->store(K, DiskArtifactKind::Code, Payload,
                        /*BuildNs=*/1000));
  std::vector<std::string> Files =
      artifactFiles(Tmp.Path, DiskArtifactKind::Code);
  ASSERT_EQ(Files.size(), 1u);
  uint64_t Old = diskFormatDigest(CodegenRevision, DiskFormatVersion - 1);
  ASSERT_NE(Old, diskFormatDigest());
  FILE *F = fopen(Files[0].c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(fseek(F, 8, SEEK_SET), 0);
  for (int I = 0; I < 8; ++I)
    fputc(int((Old >> (8 * I)) & 0xff), F);
  fclose(F);

  uint64_t Rejected = 0;
  std::string Note;
  LoadStats Hurt = runOnce("wizard-spc", Tmp.Path, &Rejected, &Note);
  EXPECT_EQ(Hurt.DiskHits, 0u);
  EXPECT_GE(Rejected, 1u);
  EXPECT_NE(Note.find("stale build/version digest"), std::string::npos)
      << Note;
  LoadStats Healed = runOnce("wizard-spc", Tmp.Path);
  EXPECT_GE(Healed.DiskHits, 1u);
}

TEST(DiskCorruption, WrongKeyEchoRebuildsCleanly) {
  corruptionRoundTrip([](const std::string &Path) {
    // Corrupt the key echo at offset 16: a renamed/collided file must not
    // be served under a key it was not written for.
    FILE *F = fopen(Path.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(fseek(F, 16, SEEK_SET), 0);
    for (int I = 0; I < 16; ++I)
      fputc(0xA5, F);
    fclose(F);
  });
}

TEST(DiskCorruption, SemanticDamageCaughtByReVerify) {
  // The hard case: a file whose header chain and checksum are VALID but
  // whose payload decodes to a semantically wrong artifact. Integrity
  // checks cannot catch this — only the mandatory re-verification at
  // admission can.
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  runOnce("wizard-spc", Tmp.Path);

  // Recompute the engine's key with the public schema and rewrite the
  // artifact under it: deserialize, plant a patch point that targets a
  // non-CntInc instruction, reserialize, store (store writes a correct
  // header and checksum over the poisoned payload).
  std::unique_ptr<Module> M = buildAndValidate(addModule());
  ASSERT_TRUE(M);
  EngineConfig Cfg = diskConfig("wizard-spc", Tmp.Path);
  CacheKey K = codeCacheKey(moduleContextDigest(*M), *M, M->Funcs[0],
                            Cfg.Compiler, Cfg.Opts, Cfg.VerifyArtifacts);
  std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
  ASSERT_TRUE(DC);
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(DC->load(K, DiskArtifactKind::Code, &Payload))
      << "test must recompute the exact key the engine stored under";
  std::shared_ptr<MCode> Art = deserializeMCode(Payload);
  ASSERT_TRUE(Art);
  MCode Poisoned = *Art;
  Poisoned.Patches.push_back({PatchKind::CounterCell, 0, 0});
  ASSERT_TRUE(DC->store(K, DiskArtifactKind::Code, serializeMCode(Poisoned),
                        /*BuildNs=*/1000));

  uint64_t Rejected = 0;
  std::string Note;
  LoadStats Hurt = runOnce("wizard-spc", Tmp.Path, &Rejected, &Note);
  EXPECT_EQ(Hurt.DiskHits, 0u) << "unverifiable artifact must not be served";
  EXPECT_GE(Rejected, 1u);
  EXPECT_NE(Note.find("verifier"), std::string::npos) << Note;

  // Rebuilt and re-published: the next load hits a good artifact again.
  LoadStats Healed = runOnce("wizard-spc", Tmp.Path);
  EXPECT_GE(Healed.DiskHits, 1u);
}

TEST(DiskCorruption, ConcurrentWritersRaceHarmlessly) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  std::unique_ptr<Module> M = buildAndValidate(addModule());
  ASSERT_TRUE(M);
  EngineConfig Cfg = configByName("wizard-spc");
  std::unique_ptr<MCode> Code =
      compileFunction(*M, M->Funcs[0], Cfg.Opts, nullptr);
  ASSERT_TRUE(Code);
  std::vector<uint8_t> Payload = serializeMCode(*Code);
  CacheKey K{0x1122334455667788ull, 0x99AABBCCDDEEFF00ull};

  // Eight writers hammer one key (same content by construction, as in the
  // real store). Publication is temp-file + rename, so a concurrent
  // reader sees either no file or a complete one — never a torn write.
  std::vector<std::thread> Ts;
  for (int W = 0; W < 8; ++W)
    Ts.emplace_back([&, W] {
      std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
      ASSERT_TRUE(DC);
      for (int I = 0; I < 25; ++I) {
        EXPECT_TRUE(DC->store(K, DiskArtifactKind::Code, Payload, 1000));
        std::vector<uint8_t> Got;
        if (DC->load(K, DiskArtifactKind::Code, &Got)) {
          EXPECT_EQ(Got, Payload) << "writer " << W << " iter " << I;
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  // After the dust settles the file is complete and valid.
  std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
  ASSERT_TRUE(DC);
  std::vector<uint8_t> Got;
  uint64_t BuildNs = 0;
  ASSERT_TRUE(DC->load(K, DiskArtifactKind::Code, &Got, &BuildNs));
  EXPECT_EQ(Got, Payload);
  EXPECT_EQ(BuildNs, 1000u);
  // No temp-file litter survived.
  EXPECT_EQ(artifactFiles(Tmp.Path, DiskArtifactKind::Code).size(), 1u);
}

TEST(DiskCorruption, ConcurrentEnginesOneDirectory) {
  // Eight engines (each its own in-process cache — the shape of separate
  // wisp processes) race cold against one directory, then one more
  // engine must warm-start from whatever they published.
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  std::vector<std::thread> Ts;
  for (int W = 0; W < 8; ++W)
    Ts.emplace_back([&] {
      LoadStats S = runOnce("wizard-spc", Tmp.Path);
      // Every racer either hit disk or built fresh; both are fine.
      EXPECT_EQ(S.DiskHits + S.DiskMisses, 1u);
    });
  for (std::thread &T : Ts)
    T.join();
  LoadStats Warm = runOnce("wizard-spc", Tmp.Path);
  EXPECT_GE(Warm.DiskHits, 1u);
}

// --- Degradation and gating -----------------------------------------------

TEST(DiskCacheTest, UnopenableDirectoryDegradesGracefully) {
  // A path that cannot be a directory (parent is a regular file): the
  // engine runs without a disk level, the load and invoke still succeed.
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  std::string Blocker = Tmp.Path + "/blocker";
  FILE *F = fopen(Blocker.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  fclose(F);

  CompileCache Cache;
  Engine E(diskConfig("wizard-spc", Blocker + "/sub"), &Cache);
  EXPECT_EQ(E.disk(), nullptr);
  auto LM = loadOn(E, addModule());
  ASSERT_TRUE(LM);
  EXPECT_EQ(LM->Stats.DiskHits, 0u);
  EXPECT_EQ(LM->Stats.DiskMisses, 0u);
  EXPECT_EQ(
      invokeOne(E, *LM, "add", {Value::makeI32(19), Value::makeI32(23)})
          .asI32(),
      42);
}

TEST(DiskCacheOpen, MissingNestedDirectoryIsCreated) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  std::string Nested = Tmp.Path + "/a/b/c";
  std::unique_ptr<DiskCache> DC = DiskCache::open(Nested);
  ASSERT_TRUE(DC);
  struct stat St;
  ASSERT_EQ(stat(Nested.c_str(), &St), 0);
  EXPECT_TRUE(S_ISDIR(St.st_mode));
  CacheKey K{3, 4};
  ASSERT_TRUE(DC->store(K, DiskArtifactKind::Code, {9, 8, 7}, 1));
  std::vector<uint8_t> Payload;
  EXPECT_TRUE(DC->load(K, DiskArtifactKind::Code, &Payload));
  EXPECT_EQ(Payload, (std::vector<uint8_t>{9, 8, 7}));
  removeTempDir(Nested);
  rmdir((Tmp.Path + "/a/b").c_str());
  rmdir((Tmp.Path + "/a").c_str());
}

TEST(DiskCacheOpen, ExistingDirectoryIsOpened) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  CacheKey K{5, 6};
  {
    std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
    ASSERT_TRUE(DC);
    ASSERT_TRUE(DC->store(K, DiskArtifactKind::Ir, {1, 2}, 3));
  }
  // A second open of the now-existing directory serves what the first
  // published.
  std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
  ASSERT_TRUE(DC);
  std::vector<uint8_t> Payload;
  uint64_t BuildNs = 0;
  EXPECT_TRUE(DC->load(K, DiskArtifactKind::Ir, &Payload, &BuildNs));
  EXPECT_EQ(Payload, (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(BuildNs, 3u);
}

TEST(DiskCacheOpen, RegularFilePathDegradesToUncached) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  std::string File = Tmp.Path + "/not-a-dir";
  FILE *F = fopen(File.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  fclose(F);
  EXPECT_EQ(DiskCache::open(File), nullptr);

  CompileCache Cache;
  Engine E(diskConfig("wizard-spc", File), &Cache);
  EXPECT_EQ(E.disk(), nullptr);
  auto LM = loadOn(E, addModule());
  ASSERT_TRUE(LM);
  EXPECT_EQ(LM->Stats.DiskHits, 0u);
  EXPECT_EQ(LM->Stats.DiskMisses, 0u);
  EXPECT_EQ(
      invokeOne(E, *LM, "add", {Value::makeI32(19), Value::makeI32(23)})
          .asI32(),
      42);
}

TEST(DiskCacheOpen, LargePayloadRoundTripsAndAppendedBytesAreRejected) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
  ASSERT_TRUE(DC);
  // Larger than any single read buffer, to cover the multi-read path.
  std::vector<uint8_t> Big(200000);
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = uint8_t(I * 31 + 7);
  CacheKey K{7, 8};
  ASSERT_TRUE(DC->store(K, DiskArtifactKind::Code, Big, 0));
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(DC->load(K, DiskArtifactKind::Code, &Payload));
  EXPECT_EQ(Payload, Big);

  // One byte appended after the payload: the length echo catches it.
  FILE *F = fopen(DC->path(K, DiskArtifactKind::Code).c_str(), "ab");
  ASSERT_NE(F, nullptr);
  fputc(0, F);
  fclose(F);
  std::string Why;
  Payload = {42};
  EXPECT_FALSE(DC->load(K, DiskArtifactKind::Code, &Payload, nullptr, &Why));
  EXPECT_NE(Why.find("payload length 200000, file has 200001"),
            std::string::npos)
      << Why;
  // A rejected load leaves the caller's buffer alone.
  EXPECT_EQ(Payload, (std::vector<uint8_t>{42}));
}

TEST(DiskCacheTest, DisabledFlagWritesNothing) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  CompileCache Cache;
  EngineConfig Cfg = diskConfig("wizard-spc", Tmp.Path);
  Cfg.UseDiskCache = false; // --no-disk-cache
  Engine E(Cfg, &Cache);
  EXPECT_EQ(E.disk(), nullptr);
  auto LM = loadOn(E, addModule());
  ASSERT_TRUE(LM);
  EXPECT_TRUE(artifactFiles(Tmp.Path, DiskArtifactKind::Code).empty());
}

TEST(DiskCacheTest, MissLeavesWhyEmptyDamageFillsIt) {
  TempDir Tmp;
  ASSERT_FALSE(Tmp.Path.empty());
  std::unique_ptr<DiskCache> DC = DiskCache::open(Tmp.Path);
  ASSERT_TRUE(DC);
  CacheKey K{1, 2};
  std::vector<uint8_t> Payload;
  std::string Why = "sentinel";
  EXPECT_FALSE(DC->load(K, DiskArtifactKind::Code, &Payload, nullptr, &Why));
  EXPECT_TRUE(Why.empty()) << "plain miss must not report damage";
  EXPECT_EQ(DC->totals().Misses, 1u);

  ASSERT_TRUE(DC->store(K, DiskArtifactKind::Code, {1, 2, 3}, 5));
  EXPECT_EQ(truncate(DC->path(K, DiskArtifactKind::Code).c_str(), 10), 0);
  EXPECT_FALSE(DC->load(K, DiskArtifactKind::Code, &Payload, nullptr, &Why));
  EXPECT_FALSE(Why.empty());
  EXPECT_EQ(DC->totals().Rejected, 1u);
  // The damaged file was deleted: the next lookup is a plain miss.
  Why = "sentinel";
  EXPECT_FALSE(DC->load(K, DiskArtifactKind::Code, &Payload, nullptr, &Why));
  EXPECT_TRUE(Why.empty());
}

// --- parseU64 (support/parse.h) -------------------------------------------

TEST(ParseU64, AcceptsCanonicalForms) {
  uint64_t V = 0;
  EXPECT_TRUE(parseU64("0", &V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64("42", &V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseU64("18446744073709551615", &V));
  EXPECT_EQ(V, UINT64_MAX);
  // Base 0 honors 0x prefixes (WISP_FAULT_SEED-style inputs).
  EXPECT_TRUE(parseU64("0x10", &V, 0));
  EXPECT_EQ(V, 16u);
}

TEST(ParseU64, RejectsEveryMalformedEdge) {
  uint64_t V = 99;
  EXPECT_FALSE(parseU64(nullptr, &V));
  EXPECT_FALSE(parseU64("", &V));
  EXPECT_FALSE(parseU64(" 5", &V));   // Leading whitespace.
  EXPECT_FALSE(parseU64("5 ", &V));   // Trailing junk.
  EXPECT_FALSE(parseU64("5x", &V));   // Trailing junk.
  EXPECT_FALSE(parseU64("-1", &V));   // strtoull would silently wrap this.
  EXPECT_FALSE(parseU64("+5", &V));   // Signs are not accepted.
  EXPECT_FALSE(parseU64("18446744073709551616", &V)); // UINT64_MAX + 1.
  EXPECT_FALSE(parseU64("99999999999999999999", &V)); // Overflow.
  EXPECT_FALSE(parseU64("abc", &V));
  EXPECT_EQ(V, 99u) << "failed parse must not clobber the output";
}

TEST(ParseU64, InRangeEnforcesBounds) {
  uint64_t V = 0;
  EXPECT_TRUE(parseU64InRange("1", 1, 1u << 20, &V));
  EXPECT_EQ(V, 1u);
  EXPECT_TRUE(parseU64InRange("1048576", 1, 1u << 20, &V));
  EXPECT_FALSE(parseU64InRange("0", 1, 1u << 20, &V));
  EXPECT_FALSE(parseU64InRange("1048577", 1, 1u << 20, &V));
  EXPECT_FALSE(parseU64InRange("-1", 1, 1u << 20, &V));
}

} // namespace
