//===- support/file.cpp - whole-file reads ----------------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/file.h"

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace wisp {

bool readFile(const std::string &Path, std::vector<uint8_t> *Out) {
  // O_NONBLOCK so that opening a FIFO cannot wait for a writer; it has no
  // effect on reads from a regular file.
  int Fd = open(Path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  // Read the size fstat reported: a file that grows meanwhile is cut
  // there, one that shrinks ends early.
  Out->resize(Ok ? size_t(St.st_size) : 0);
  size_t Got = 0;
  while (Ok && Got < Out->size()) {
    ssize_t N = read(Fd, Out->data() + Got, Out->size() - Got);
    if (N > 0)
      Got += size_t(N);
    else if (N == 0)
      break;
    else if (errno != EINTR)
      Ok = false;
  }
  Out->resize(Got);
  close(Fd);
  return Ok;
}

} // namespace wisp
