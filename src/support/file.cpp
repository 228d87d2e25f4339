//===- support/file.cpp - whole-file reads ----------------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/file.h"

#include "support/format.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace wisp {

bool readFile(const std::string &Path, std::vector<uint8_t> *Out,
              std::string *Err) {
  // O_NONBLOCK so that opening a FIFO cannot wait for a writer; it has no
  // effect on reads from a regular file.
  int Fd = open(Path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (Fd < 0)
    return false;
  struct stat St;
  bool IsFile = fstat(Fd, &St) == 0 && S_ISREG(St.st_mode);
  if (IsFile && uint64_t(St.st_size) > MaxReadFileBytes) {
    *Err = strFormat("'%s' is %llu bytes, above the %llu-byte file size cap",
                     Path.c_str(), (unsigned long long)St.st_size,
                     (unsigned long long)MaxReadFileBytes);
    close(Fd);
    return false;
  }
  // Read the size fstat reported: a file that grows meanwhile is cut
  // there, one that shrinks ends early.
  bool Ok = IsFile;
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
  if (IsFile && !Ok)
    *Err = strFormat("cannot read '%s': %s", Path.c_str(), strerror(errno));
  Out->resize(Got);
  close(Fd);
  return Ok;
}

} // namespace wisp
