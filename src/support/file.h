//===- support/file.h - whole-file reads ------------------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One reader for every file named by outside input: module specs, batch
/// manifests and fuzz reproducers. Only regular files are read, so a
/// directory, a device such as /dev/zero or a FIFO is refused up front
/// instead of throwing from a stream or reading without bound.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_SUPPORT_FILE_H
#define WISP_SUPPORT_FILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace wisp {

/// The largest file readFile accepts: 1 GiB, V8's cap on a module's size.
/// A larger regular file is refused from its fstat size, before any buffer
/// is allocated, so a huge sparse file cannot exhaust memory.
constexpr uint64_t MaxReadFileBytes = uint64_t(1) << 30;

/// Reads all of the regular file at \p Path into \p Out. Returns false —
/// leaving \p Out unspecified — when the path cannot be opened, is not a
/// regular file, is larger than MaxReadFileBytes, or a read fails. In the
/// last two cases the path does name a regular file, and \p Err says why
/// it was refused; otherwise \p Err is left unchanged, so a caller that
/// passes an empty string can tell a refused file from a name that is not
/// a file at all.
bool readFile(const std::string &Path, std::vector<uint8_t> *Out,
              std::string *Err);

} // namespace wisp

#endif // WISP_SUPPORT_FILE_H
