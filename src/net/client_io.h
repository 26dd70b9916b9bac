#ifndef PKGM_NET_CLIENT_IO_H_
#define PKGM_NET_CLIENT_IO_H_

#include <sys/types.h>
#include <sys/uio.h>

#include <memory>
#include <string>

#include "util/status.h"

namespace pkgm::net {

/// Blocking socket I/O for one pooled NetClient connection: a writer path
/// (serialized under the connection mutex) and a reader path (the
/// dedicated reader thread). The two paths may run concurrently on the
/// same instance, but each path is single-threaded.
class ClientConnIo {
 public:
  /// Names the I/O path in reports: "plain" (one sendmsg per gather, one
  /// read per chunk).
  const char* name() const { return "plain"; }

  /// Blocking gather-write of every iovec, retrying partial writes and
  /// EINTR until all bytes are on the socket. MSG_NOSIGNAL semantics: a
  /// peer that closed mid-write surfaces as an error, never SIGPIPE.
  Status SendAll(int fd, const iovec* iov, int iovcnt);

  /// Blocking receive of up to `len` bytes into `dst`. Returns the byte
  /// count (> 0), 0 on EOF, or a negative errno on a fatal error. EINTR is
  /// retried internally.
  ssize_t Recv(int fd, char* dst, size_t len);
};

/// Heap-allocated ClientConnIo. There is one client I/O path, so the
/// argument is unused.
std::unique_ptr<ClientConnIo> CreateClientIo(const std::string& unused = "");

}  // namespace pkgm::net

#endif  // PKGM_NET_CLIENT_IO_H_
