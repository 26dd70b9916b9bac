#include "net/client_io.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "util/string_util.h"

namespace pkgm::net {

Status ClientConnIo::SendAll(int fd, const iovec* iov, int iovcnt) {
  std::vector<iovec> vec(iov, iov + iovcnt);
  size_t idx = 0;
  while (idx < vec.size()) {
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = vec.data() + idx;
    msg.msg_iovlen = vec.size() - idx;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("sendmsg: %s", std::strerror(errno)));
    }
    // Retire fully-written iovecs; a partial tail advances in place.
    size_t sent = static_cast<size_t>(n);
    while (sent > 0 && idx < vec.size()) {
      if (sent >= vec[idx].iov_len) {
        sent -= vec[idx].iov_len;
        ++idx;
      } else {
        vec[idx].iov_base = static_cast<char*>(vec[idx].iov_base) + sent;
        vec[idx].iov_len -= sent;
        sent = 0;
      }
    }
  }
  return Status::Ok();
}

ssize_t ClientConnIo::Recv(int fd, char* dst, size_t len) {
  while (true) {
    const ssize_t n = ::read(fd, dst, len);
    if (n < 0 && errno == EINTR) continue;
    return n < 0 ? -errno : n;
  }
}

std::unique_ptr<ClientConnIo> CreateClientIo(const std::string&) {
  return std::make_unique<ClientConnIo>();
}

}  // namespace pkgm::net
