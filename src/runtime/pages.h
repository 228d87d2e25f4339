//===- runtime/pages.h - lazily zeroed page mappings ------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one page-mapping primitive of the runtime, backing linear memories
/// and value stacks. Anonymous mappings give zero pages lazily: a fresh
/// region costs no memset and faults in only the pages actually touched.
/// Going through malloc instead would defeat this — glibc's dynamic mmap
/// threshold migrates repeated large allocations into the arena, where
/// calloc (or a value-initialized std::vector) must memset recycled, cold
/// pages. Platforms without mmap fall back to calloc/free.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_RUNTIME_PAGES_H
#define WISP_RUNTIME_PAGES_H

#include <cstddef>
#include <cstdint>

namespace wisp {

/// Maps \p N (> 0) bytes that read as zero. Returns nullptr on failure,
/// with errno set.
uint8_t *mapZeroPages(size_t N);

/// Releases a region returned by mapZeroPages (or grown by
/// growZeroPages); \p N is its current size.
void unmapZeroPages(uint8_t *P, size_t N);

/// Grows the region \p P from \p Old to \p New (> Old) bytes, possibly
/// moving it: the first \p Keep bytes are preserved and everything from
/// Old on reads as zero. Returns nullptr on failure, leaving \p P mapped
/// and unchanged.
uint8_t *growZeroPages(uint8_t *P, size_t Old, size_t Keep, size_t New);

} // namespace wisp

#endif // WISP_RUNTIME_PAGES_H
