//===- cache/diskcache.cpp - persistent on-disk artifact cache -------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "cache/diskcache.h"

#include "support/format.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <sys/types.h>
#include <unistd.h>

using namespace wisp;

// --- Little-endian byte stream --------------------------------------------

namespace {

class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(V); }
  void u16(uint16_t V) { word(V, 2); }
  void u32(uint32_t V) { word(V, 4); }
  void u64(uint64_t V) { word(V, 8); }
  void i64(int64_t V) { word(uint64_t(V), 8); }

private:
  void word(uint64_t V, int N) {
    for (int I = 0; I < N; ++I)
      Out.push_back(uint8_t(V >> (8 * I)));
  }

  std::vector<uint8_t> &Out;
};

/// Bounds-checked reader: every accessor returns false past the end and
/// poisons the stream, so a truncated buffer can never yield data and a
/// malicious length can never index out of bounds.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : P(Data), N(Len) {}

  bool u8(uint8_t *V) {
    uint64_t W;
    if (!word(&W, 1))
      return false;
    *V = uint8_t(W);
    return true;
  }
  bool u16(uint16_t *V) {
    uint64_t W;
    if (!word(&W, 2))
      return false;
    *V = uint16_t(W);
    return true;
  }
  bool u32(uint32_t *V) {
    uint64_t W;
    if (!word(&W, 4))
      return false;
    *V = uint32_t(W);
    return true;
  }
  bool u64(uint64_t *V) { return word(V, 8); }
  bool i64(int64_t *V) {
    uint64_t W;
    if (!word(&W, 8))
      return false;
    *V = int64_t(W);
    return true;
  }
  /// A count of variable-size records to follow. Rejects counts that
  /// cannot possibly fit in the remaining bytes (\p MinEntryBytes each),
  /// so damaged counts fail here instead of in a giant resize().
  bool count(uint64_t *V, size_t MinEntryBytes) {
    if (!u64(V))
      return false;
    if (*V > (N - Off) / (MinEntryBytes ? MinEntryBytes : 1)) {
      Fail = true;
      return false;
    }
    return true;
  }

  bool ok() const { return !Fail; }
  bool atEnd() const { return !Fail && Off == N; }

private:
  bool word(uint64_t *V, int Len) {
    if (Fail || N - Off < size_t(Len)) {
      Fail = true;
      return false;
    }
    uint64_t W = 0;
    for (int I = 0; I < Len; ++I)
      W |= uint64_t(P[Off + I]) << (8 * I);
    Off += size_t(Len);
    *V = W;
    return true;
  }

  const uint8_t *P;
  size_t N;
  size_t Off = 0;
  bool Fail = false;
};

} // namespace

// --- Format digest --------------------------------------------------------

uint64_t wisp::diskFormatDigest(uint32_t Revision) {
  // Everything that, if it changed between the writing and the reading
  // build, would make a byte-identical artifact mean something different
  // or an artifact stale: the serialization layout version, the codegen
  // revision, the opcode-table cardinalities (an inserted opcode
  // renumbers every successor) and the record shapes.
  KeyHasher H;
  H.u32(1); // Serialization format version.
  H.u32(Revision);
  H.u32(uint32_t(MOp::NumOps));
  H.u32(uint32_t(TOp::Count));
  H.u32(uint32_t(sizeof(MInst)));
  H.u32(uint32_t(sizeof(IrUnit)));
  H.u32(uint32_t(sizeof(BrCase)));
  H.u32(uint32_t(sizeof(PatchPoint)));
  return H.key().Lo;
}

// --- MCode serialization --------------------------------------------------

std::vector<uint8_t> wisp::serializeMCode(const MCode &Code) {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.u32(Code.FuncIndex);
  W.u32(Code.FrameSlots);
  W.u64(Code.Stats.TimeNs);
  W.u64(Code.Stats.InputBytes);
  W.u64(Code.Stats.CodeInsts);
  W.u64(Code.Stats.TagStores);
  W.u64(Code.Stats.StackMapBytes);
  W.u64(Code.Stats.SnapshotBytes);
  W.u64(Code.Insts.size());
  for (const MInst &I : Code.Insts) {
    // Field by field: MInst has interior padding that must never reach
    // (or be trusted from) the disk.
    W.u16(uint16_t(I.Op));
    W.u8(I.A);
    W.u8(I.B);
    W.u8(I.C);
    W.u8(I.D);
    W.i64(I.Imm);
    W.i64(I.Imm2);
  }
  W.u64(Code.BrTables.size());
  for (const std::vector<uint32_t> &BT : Code.BrTables) {
    W.u64(BT.size());
    for (uint32_t E : BT)
      W.u32(E);
  }
  W.u64(Code.StackMaps.size());
  for (const StackMapEntry &E : Code.StackMaps) {
    W.u32(E.Pc);
    W.u32(E.Height);
    W.u64(E.RefSlots.size());
    for (uint32_t S : E.RefSlots)
      W.u32(S);
  }
  W.u64(Code.LineTable.size());
  for (const LineEntry &E : Code.LineTable) {
    W.u32(E.Pc);
    W.u32(E.Ip);
  }
  W.u64(Code.OsrEntries.size());
  for (const MCode::OsrEntry &E : Code.OsrEntries) {
    W.u32(E.Ip);
    W.u32(E.Stp);
    W.u32(E.Pc);
  }
  W.u64(Code.Patches.size());
  for (const PatchPoint &P : Code.Patches) {
    W.u8(uint8_t(P.Kind));
    W.u32(P.Pc);
    W.u64(P.Operand);
  }
  return Out;
}

std::shared_ptr<MCode> wisp::deserializeMCode(
    const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes.data(), Bytes.size());
  auto Code = std::make_shared<MCode>();
  if (!R.u32(&Code->FuncIndex) || !R.u32(&Code->FrameSlots) ||
      !R.u64(&Code->Stats.TimeNs) || !R.u64(&Code->Stats.InputBytes) ||
      !R.u64(&Code->Stats.CodeInsts) || !R.u64(&Code->Stats.TagStores) ||
      !R.u64(&Code->Stats.StackMapBytes) ||
      !R.u64(&Code->Stats.SnapshotBytes))
    return nullptr;
  uint64_t N = 0;
  if (!R.count(&N, 22))
    return nullptr;
  Code->Insts.resize(size_t(N));
  for (MInst &I : Code->Insts) {
    uint16_t Op = 0;
    if (!R.u16(&Op) || !R.u8(&I.A) || !R.u8(&I.B) || !R.u8(&I.C) ||
        !R.u8(&I.D) || !R.i64(&I.Imm) || !R.i64(&I.Imm2))
      return nullptr;
    if (Op >= uint16_t(MOp::NumOps))
      return nullptr; // Executor dispatch must never see a wild opcode.
    I.Op = MOp(Op);
  }
  if (!R.count(&N, 8))
    return nullptr;
  Code->BrTables.resize(size_t(N));
  for (std::vector<uint32_t> &BT : Code->BrTables) {
    uint64_t Len = 0;
    if (!R.count(&Len, 4))
      return nullptr;
    BT.resize(size_t(Len));
    for (uint32_t &E : BT)
      if (!R.u32(&E))
        return nullptr;
  }
  if (!R.count(&N, 16))
    return nullptr;
  Code->StackMaps.resize(size_t(N));
  for (StackMapEntry &E : Code->StackMaps) {
    uint64_t Len = 0;
    if (!R.u32(&E.Pc) || !R.u32(&E.Height) || !R.count(&Len, 4))
      return nullptr;
    E.RefSlots.resize(size_t(Len));
    for (uint32_t &S : E.RefSlots)
      if (!R.u32(&S))
        return nullptr;
  }
  if (!R.count(&N, 8))
    return nullptr;
  Code->LineTable.resize(size_t(N));
  for (LineEntry &E : Code->LineTable)
    if (!R.u32(&E.Pc) || !R.u32(&E.Ip))
      return nullptr;
  if (!R.count(&N, 12))
    return nullptr;
  Code->OsrEntries.resize(size_t(N));
  for (MCode::OsrEntry &E : Code->OsrEntries)
    if (!R.u32(&E.Ip) || !R.u32(&E.Stp) || !R.u32(&E.Pc))
      return nullptr;
  if (!R.count(&N, 13))
    return nullptr;
  Code->Patches.resize(size_t(N));
  for (PatchPoint &P : Code->Patches) {
    uint8_t Kind = 0;
    if (!R.u8(&Kind) || !R.u32(&P.Pc) || !R.u64(&P.Operand))
      return nullptr;
    if (Kind != uint8_t(PatchKind::CounterCell))
      return nullptr;
    P.Kind = PatchKind(Kind);
  }
  if (!R.atEnd())
    return nullptr; // Trailing bytes are damage, not slack.
  return Code;
}

// --- ThreadedCode serialization -------------------------------------------

std::vector<uint8_t> wisp::serializeThreadedCode(const ThreadedCode &TC) {
  std::vector<uint8_t> Out;
  ByteWriter W(Out);
  W.u64(TC.Units.size());
  for (const IrUnit &U : TC.Units) {
    W.u16(U.Op);
    W.u16(U.ValCount);
    W.u32(U.A);
    W.u32(U.Aux);
    W.u32(U.BcIp);
    W.u32(U.Stp);
    W.u32(U.X);
    W.u64(U.B);
  }
  W.u64(TC.Cases.size());
  for (const BrCase &C : TC.Cases) {
    W.u32(C.TargetUnit);
    W.u32(C.DstBase);
    W.u32(C.ValCount);
    W.u64(C.IpFlag);
  }
  W.u64(TC.FusedSpans.size());
  for (const std::pair<uint32_t, uint32_t> &S : TC.FusedSpans) {
    W.u32(S.first);
    W.u32(S.second);
  }
  W.u32(TC.NumFused);
  W.u32(TC.NumSources);
  return Out;
}

std::shared_ptr<ThreadedCode> wisp::deserializeThreadedCode(
    const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes.data(), Bytes.size());
  auto TC = std::make_shared<ThreadedCode>();
  uint64_t N = 0;
  if (!R.count(&N, 32))
    return nullptr;
  TC->Units.resize(size_t(N));
  for (IrUnit &U : TC->Units) {
    if (!R.u16(&U.Op) || !R.u16(&U.ValCount) || !R.u32(&U.A) ||
        !R.u32(&U.Aux) || !R.u32(&U.BcIp) || !R.u32(&U.Stp) ||
        !R.u32(&U.X) || !R.u64(&U.B))
      return nullptr;
    if (U.Op >= uint16_t(TOp::Count))
      return nullptr; // Computed-goto table must never see a wild token.
  }
  if (!R.count(&N, 20))
    return nullptr;
  TC->Cases.resize(size_t(N));
  for (BrCase &C : TC->Cases)
    if (!R.u32(&C.TargetUnit) || !R.u32(&C.DstBase) || !R.u32(&C.ValCount) ||
        !R.u64(&C.IpFlag))
      return nullptr;
  if (!R.count(&N, 8))
    return nullptr;
  TC->FusedSpans.resize(size_t(N));
  for (std::pair<uint32_t, uint32_t> &S : TC->FusedSpans)
    if (!R.u32(&S.first) || !R.u32(&S.second))
      return nullptr;
  if (!R.u32(&TC->NumFused) || !R.u32(&TC->NumSources))
    return nullptr;
  if (!R.atEnd())
    return nullptr;
  return TC;
}

// --- The store ------------------------------------------------------------

namespace {

constexpr uint32_t FileMagic = 0x43505357; // "WSPC" little-endian.
constexpr uint32_t FileVersion = 1;
constexpr size_t HeaderSize = 72;

/// mkdir -p: creates every missing component. Races with other processes
/// creating the same tree are benign (EEXIST). An existing directory, the
/// common case on every engine start, costs one stat.
bool makeDirs(const std::string &Dir) {
  if (Dir.empty())
    return false;
  struct stat St;
  if (stat(Dir.c_str(), &St) == 0)
    return S_ISDIR(St.st_mode);
  std::string Partial;
  size_t I = 0;
  while (I < Dir.size()) {
    size_t Next = Dir.find('/', I + 1);
    Partial = Dir.substr(0, Next == std::string::npos ? Dir.size() : Next);
    if (!Partial.empty() && Partial != "/")
      if (mkdir(Partial.c_str(), 0777) != 0 && errno != EEXIST)
        return false;
    if (Next == std::string::npos)
      break;
    I = Next;
  }
  return stat(Dir.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

/// 128-bit payload checksum, independent of the content key (which hashes
/// the *inputs*; this hashes the serialized artifact so torn or bit-
/// flipped payloads are caught before deserialization).
CacheKey payloadChecksum(const uint8_t *Data, size_t Len) {
  KeyHasher H;
  H.u64(Len);
  H.bytes(Data, Len);
  return H.key();
}

/// Reads the artifact file at \p Path with one readv in the common case:
/// the header (short when the file is) into \p Header, the rest straight
/// into \p Body, sized from fstat. Artifacts are published by rename and
/// never rewritten in place, so a short count means end of file.
bool readArtifactFile(const std::string &Path, uint8_t (&Header)[HeaderSize],
                      size_t *HeaderGot, std::vector<uint8_t> *Body) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = fstat(Fd, &St) == 0;
  size_t Size = Ok ? size_t(St.st_size) : 0;
  Body->resize(Size > HeaderSize ? Size - HeaderSize : 0);
  const size_t Want = HeaderSize + Body->size();
  size_t Got = 0;
  while (Ok && Got < Want) {
    iovec Iov[2];
    int N = 0;
    if (Got < HeaderSize)
      Iov[N++] = {Header + Got, HeaderSize - Got};
    size_t BodyGot = Got > HeaderSize ? Got - HeaderSize : 0;
    if (BodyGot < Body->size())
      Iov[N++] = {Body->data() + BodyGot, Body->size() - BodyGot};
    ssize_t R = ::readv(Fd, Iov, N);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0) {
      Ok = R == 0;
      break;
    }
    Got += size_t(R);
  }
  ::close(Fd);
  *HeaderGot = std::min(Got, HeaderSize);
  Body->resize(Got > HeaderSize ? Got - HeaderSize : 0);
  return Ok;
}

} // namespace

std::unique_ptr<DiskCache> DiskCache::open(const std::string &Dir) {
  if (!makeDirs(Dir))
    return nullptr;
  // Probe writability up front so a read-only directory degrades to
  // uncached operation at open() rather than as a StoreFail per body.
  if (access(Dir.c_str(), W_OK | X_OK) != 0)
    return nullptr;
  return std::unique_ptr<DiskCache>(new DiskCache(Dir));
}

std::string DiskCache::path(const CacheKey &K, DiskArtifactKind Kind) const {
  return strFormat("%s/%c%016llx%016llx.wac", Dir.c_str(), char(Kind),
                   (unsigned long long)K.Hi, (unsigned long long)K.Lo);
}

bool DiskCache::load(const CacheKey &K, DiskArtifactKind Kind,
                     std::vector<uint8_t> *Payload, uint64_t *BuildNs,
                     std::string *Why) {
  if (Why)
    Why->clear();
  std::string P = path(K, Kind);
  // The header is checked in place; the payload is read once, straight
  // into the buffer handed back.
  uint8_t Header[HeaderSize];
  size_t HeaderGot = 0;
  std::vector<uint8_t> Body;
  if (!readArtifactFile(P, Header, &HeaderGot, &Body)) {
    std::lock_guard<std::mutex> L(Mu);
    ++T.Misses;
    return false;
  }
  // Validate the header chain; any failure deletes the file (it will be
  // rebuilt and re-published; a torn or damaged artifact is never served
  // and never consulted again).
  std::string Reason;
  ByteReader R(Header, HeaderGot);
  uint32_t Magic = 0, Version = 0;
  uint64_t Digest = 0, Hi = 0, Lo = 0, Build = 0, Len = 0;
  uint64_t CheckHi = 0, CheckLo = 0;
  uint8_t KindByte = 0, Pad = 0;
  bool HeaderOk = R.u32(&Magic) && R.u32(&Version) && R.u64(&Digest) &&
                  R.u64(&Hi) && R.u64(&Lo) && R.u8(&KindByte);
  for (int I = 0; HeaderOk && I < 7; ++I)
    HeaderOk = R.u8(&Pad);
  HeaderOk = HeaderOk && R.u64(&Build) && R.u64(&Len) && R.u64(&CheckHi) &&
             R.u64(&CheckLo);
  if (!HeaderOk)
    Reason = "truncated header";
  else if (Magic != FileMagic || Version != FileVersion)
    Reason = "bad magic/version";
  else if (Digest != diskFormatDigest())
    Reason = "stale build/version digest";
  else if (Hi != K.Hi || Lo != K.Lo || KindByte != uint8_t(Kind))
    Reason = "key echo mismatch";
  else if (Len != Body.size())
    Reason = strFormat("payload length %llu, file has %zu",
                       (unsigned long long)Len, Body.size());
  else {
    CacheKey Check = payloadChecksum(Body.data(), Body.size());
    if (Check.Hi != CheckHi || Check.Lo != CheckLo)
      Reason = "payload checksum mismatch";
  }
  if (!Reason.empty()) {
    ::remove(P.c_str());
    if (Why)
      *Why = "disk artifact rejected (" + Reason + "): " + P;
    std::lock_guard<std::mutex> L(Mu);
    ++T.Rejected;
    return false;
  }
  Payload->swap(Body);
  if (BuildNs)
    *BuildNs = Build;
  std::lock_guard<std::mutex> L(Mu);
  ++T.Hits;
  return true;
}

bool DiskCache::store(const CacheKey &K, DiskArtifactKind Kind,
                      const std::vector<uint8_t> &Payload, uint64_t BuildNs) {
  std::vector<uint8_t> File;
  File.reserve(HeaderSize + Payload.size());
  ByteWriter W(File);
  W.u32(FileMagic);
  W.u32(FileVersion);
  W.u64(diskFormatDigest());
  W.u64(K.Hi);
  W.u64(K.Lo);
  W.u8(uint8_t(Kind));
  for (int I = 0; I < 7; ++I)
    W.u8(0);
  W.u64(BuildNs);
  W.u64(Payload.size());
  CacheKey Check = payloadChecksum(Payload.data(), Payload.size());
  W.u64(Check.Hi);
  W.u64(Check.Lo);
  File.insert(File.end(), Payload.begin(), Payload.end());

  // Unique temp name in the same directory (rename must not cross a
  // filesystem); pid + counter keeps concurrent writers apart, and the
  // atomic rename publishes complete files only.
  static std::atomic<uint64_t> Seq{0};
  std::string Final = path(K, Kind);
  std::string Tmp =
      strFormat("%s.tmp%d.%llu", Final.c_str(), int(getpid()),
                (unsigned long long)Seq.fetch_add(1, std::memory_order_relaxed));
  bool Ok = false;
  if (FILE *F = fopen(Tmp.c_str(), "wb")) {
    Ok = fwrite(File.data(), 1, File.size(), F) == File.size();
    Ok = (fclose(F) == 0) && Ok;
  }
  if (Ok)
    Ok = ::rename(Tmp.c_str(), Final.c_str()) == 0;
  if (!Ok)
    ::remove(Tmp.c_str());
  std::lock_guard<std::mutex> L(Mu);
  if (Ok)
    ++T.Stores;
  else
    ++T.StoreFails;
  return Ok;
}

void DiskCache::removeRejected(const CacheKey &K, DiskArtifactKind Kind) {
  ::remove(path(K, Kind).c_str());
  std::lock_guard<std::mutex> L(Mu);
  ++T.Rejected;
}

DiskCache::Totals DiskCache::totals() const {
  std::lock_guard<std::mutex> L(Mu);
  return T;
}
