//===- runtime/pages.cpp - lazily zeroed page mappings ----------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "runtime/pages.h"

#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define WISP_MEM_MMAP 1
#include <sys/mman.h>
#if defined(__linux__)
#define WISP_MEM_MREMAP 1
#endif
#else
#define WISP_MEM_MMAP 0
#endif

using namespace wisp;

uint8_t *wisp::mapZeroPages(size_t N) {
#if WISP_MEM_MMAP
  void *P = mmap(nullptr, N, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return P == MAP_FAILED ? nullptr : static_cast<uint8_t *>(P);
#else
  return static_cast<uint8_t *>(calloc(N, 1));
#endif
}

void wisp::unmapZeroPages(uint8_t *P, size_t N) {
#if WISP_MEM_MMAP
  munmap(P, N);
#else
  (void)N;
  free(P);
#endif
}

uint8_t *wisp::growZeroPages(uint8_t *P, size_t Old, size_t Keep,
                             size_t New) {
#if defined(WISP_MEM_MREMAP)
  // Remapped in place where possible: no copy, no faults. The bytes in
  // [Keep, Old) survive the remap and are scrubbed explicitly.
  void *NP = mremap(P, Old, New, MREMAP_MAYMOVE);
  if (NP == MAP_FAILED)
    return nullptr;
  memset(static_cast<uint8_t *>(NP) + Keep, 0, Old - Keep);
  return static_cast<uint8_t *>(NP);
#else
  uint8_t *NP = mapZeroPages(New);
  if (!NP)
    return nullptr;
  memcpy(NP, P, Keep);
  unmapZeroPages(P, Old);
  return NP;
#endif
}
