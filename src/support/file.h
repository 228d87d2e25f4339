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

/// Reads all of the regular file at \p Path into \p Out. Returns false —
/// leaving \p Out unspecified — when the path cannot be opened, is not a
/// regular file, or a read fails.
bool readFile(const std::string &Path, std::vector<uint8_t> *Out);

} // namespace wisp

#endif // WISP_SUPPORT_FILE_H
