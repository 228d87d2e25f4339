//===- cache/diskcache.h - persistent on-disk artifact cache ----*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second level below the in-process compile cache: compiled MCode and
/// pre-decoded threaded IR serialized to a directory (`--cache-dir` /
/// `WISP_CACHE_DIR`), so a repeat workload in a *new* wisp process skips
/// the compile pipeline — the cross-process version of PR 5's warm start.
/// Only relocatable artifacts exist on this path: every engine-absolute
/// operand lives in the MCode patch-point table (machine/isa.h), bound by
/// the engine after admission, never in the serialized instruction stream.
///
/// Key schema. A file is addressed by the *same* 128-bit content key the
/// in-process cache uses (codeCacheKey / irCacheKey: body bytes, module
/// context digest, full compiler configuration, verify provenance), so
/// process and disk levels can never disagree about identity. The file
/// header additionally carries a build/version digest — format version,
/// opcode-table sizes, record layouts — so any rebuild of wisp that could
/// change artifact semantics invalidates every stale file by construction:
/// the digest comparison fails and the artifact is rebuilt, not trusted.
///
/// Atomicity. Writes go to a unique temp file in the same directory and
/// are published with rename(2), so readers only ever see absent files or
/// complete files, and concurrent writers of one key (same content by
/// construction) race harmlessly — last rename wins. A short read, a
/// failed checksum, a stale digest or a wrong key echo all classify the
/// file as damaged: it is deleted and the caller rebuilds.
///
/// Trust. Admission is the caller's job and is deliberately *not* part of
/// this class: the engine re-runs verifyMachineCode / verifyThreadedCode
/// on every deserialized artifact — unconditionally, even when
/// VerifyArtifacts is off — because these bytes crossed a process
/// boundary and checksums only prove integrity, not provenance. See
/// DESIGN.md "Persistent artifact cache".
///
//===----------------------------------------------------------------------===//

#ifndef WISP_CACHE_DISKCACHE_H
#define WISP_CACHE_DISKCACHE_H

#include "cache/compilecache.h"
#include "interp/predecode.h"
#include "machine/isa.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wisp {

/// Which artifact family a disk entry holds; part of the file name, so
/// code and IR artifacts of one body can never alias.
enum class DiskArtifactKind : uint8_t {
  Code = 'F', ///< Serialized MCode.
  Ir = 'T',   ///< Serialized ThreadedCode.
};

/// Revision of what the compilers and the pre-decoder emit. Artifacts are
/// keyed by their inputs, not by the code that built them, so without it
/// a rebuilt wisp would keep serving artifacts an older compiler wrote:
/// they still verify and run correctly, just not as this build compiles.
/// Rule: any change to compiler output bumps this constant.
inline constexpr uint32_t CodegenRevision = 2;

/// Version of the serialized payload layout. Rule: any change to the
/// fields serializeMCode/serializeThreadedCode write bumps this constant.
inline constexpr uint32_t DiskFormatVersion = 2;

/// Digest of everything that must match between the wisp build that wrote
/// an artifact and the one reading it: serialization format version,
/// codegen revision, opcode-table cardinalities and record layouts. Baked
/// into every file header; a mismatch rejects the file (invalidation by
/// construction). \p Revision and \p Format exist so tests can forge
/// another build's digest.
uint64_t diskFormatDigest(uint32_t Revision = CodegenRevision,
                          uint32_t Format = DiskFormatVersion);

/// Serializes \p Code (instructions, branch tables, stackmaps, line
/// table, OSR entries, patch-point table, stats) into a self-contained
/// byte buffer. Field-by-field and little-endian: record padding and host
/// endianness never leak into the format.
std::vector<uint8_t> serializeMCode(const MCode &Code);

/// Reconstructs an MCode from serializeMCode bytes. Returns null on any
/// structural damage (truncation, trailing bytes, out-of-range opcode or
/// patch kind, implausible counts) — the caller treats that exactly like
/// a checksum failure. A non-null result is structurally well-formed but
/// NOT semantically trusted until it passes verifyMachineCode.
std::shared_ptr<MCode> deserializeMCode(const std::vector<uint8_t> &Bytes);

/// ThreadedCode counterparts of serializeMCode/deserializeMCode.
std::vector<uint8_t> serializeThreadedCode(const ThreadedCode &TC);
std::shared_ptr<ThreadedCode>
deserializeThreadedCode(const std::vector<uint8_t> &Bytes);

/// One on-disk artifact store rooted at a directory. Engines each open
/// their own instance (there is no shared in-memory state to coordinate —
/// atomicity lives in the filesystem), so totals are per-opener.
/// Thread-safe; file operations run lock-free and the counters are
/// internally synchronized.
class DiskCache {
public:
  struct Totals {
    uint64_t Hits = 0;       ///< Complete, digest-valid files served.
    uint64_t Misses = 0;     ///< Keys with no file present.
    uint64_t Rejected = 0;   ///< Damaged/stale/unverifiable files deleted.
    uint64_t Stores = 0;     ///< Artifacts published.
    uint64_t StoreFails = 0; ///< Publish attempts that failed (I/O).
  };

  /// Opens (creating, parents included) the store at \p Dir. Returns null
  /// when the directory cannot be created or is not writable — the caller
  /// degrades to uncached operation, it never fails the load.
  static std::unique_ptr<DiskCache> open(const std::string &Dir);

  /// Loads the raw payload for \p K, verifying the header chain (magic,
  /// format digest, key echo, kind, length, payload checksum). On damage
  /// of any kind the file is deleted and false is returned with \p Why
  /// (optional) describing the rejection; a plain miss leaves \p Why
  /// empty. \p BuildNs (optional) receives the original build time
  /// recorded by the writer, so warm loads can account saved work.
  bool load(const CacheKey &K, DiskArtifactKind Kind,
            std::vector<uint8_t> *Payload, uint64_t *BuildNs = nullptr,
            std::string *Why = nullptr);

  /// Atomically publishes \p Payload under \p K (temp file + rename).
  /// Returns false on I/O failure; the store stays consistent either way.
  bool store(const CacheKey &K, DiskArtifactKind Kind,
             const std::vector<uint8_t> &Payload, uint64_t BuildNs);

  /// Deletes \p K's file after post-admission rejection (deserializer or
  /// verifier said no to a checksum-clean file): the artifact must be
  /// rebuilt, never re-served. Counted under Totals::Rejected.
  void removeRejected(const CacheKey &K, DiskArtifactKind Kind);

  /// The store path of a key (testing and diagnostics).
  std::string path(const CacheKey &K, DiskArtifactKind Kind) const;

  const std::string &dir() const { return Dir; }
  Totals totals() const;

private:
  explicit DiskCache(std::string DirIn) : Dir(std::move(DirIn)) {}

  std::string Dir;
  mutable std::mutex Mu;
  Totals T;
};

} // namespace wisp

#endif // WISP_CACHE_DISKCACHE_H
