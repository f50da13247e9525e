#include "support/line_io.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sched91
{

bool
writeLine(int fd, std::string_view line)
{
    // The poll loop's send path, waiting for room between flushes.
    LineWriter writer(fd);
    writer.queue(line);
    while (writer.flush() && writer.pending() != 0) {
        pollfd pfd{fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, -1);
    }
    return writer.pending() == 0;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) {
        errno = ENAMETOOLONG;
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.data(), path.size());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
        0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        return -1;
    }
    return fd;
}

LineReader::Status
LineReader::read(std::string_view &line, int timeoutMs)
{
    return read(line, timeoutMs < 0
                          ? Clock::time_point::max()
                          : Clock::now() +
                                std::chrono::milliseconds(timeoutMs));
}

LineReader::Status
LineReader::read(std::string_view &line, Clock::time_point deadline)
{
    for (;;) {
        const std::size_t nl = buffer_.find('\n', scanned_);
        if (nl != std::string::npos) {
            line = std::string_view(buffer_).substr(start_, nl - start_);
            start_ = scanned_ = nl + 1;
            return Status::Line;
        }
        if (eof_)
            return Status::Eof;
        // Every whole line is out: compact once, then read more.
        buffer_.erase(0, start_);
        start_ = 0;
        scanned_ = buffer_.size();
        if (maxLineBytes_ != 0 && buffer_.size() > maxLineBytes_)
            return Status::TooLong;

        if (deadline != Clock::time_point::max()) {
            const Clock::duration left = deadline - Clock::now();
            if (left <= Clock::duration::zero())
                return Status::Timeout;
            const auto ms =
                std::chrono::ceil<std::chrono::milliseconds>(left).count();
            pollfd pfd{fd_, POLLIN, 0};
            const int rc = ::poll(
                &pfd, 1, static_cast<int>(std::min<long long>(ms, 1 << 30)));
            if (rc == 0 || (rc < 0 && errno == EINTR))
                continue;
            if (rc < 0) {
                buffer_.clear();
                eof_ = true;
                return Status::Eof;
            }
        }
        receive(0);
    }
}

LineReader::Status
LineReader::readNow(std::string_view &line)
{
    const Status st = read(line, kNoWait);
    if (st != Status::Timeout)
        return st;
    receive(MSG_DONTWAIT);
    return read(line, kNoWait);
}

void
LineReader::receive(int flags)
{
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, flags);
    if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        return;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN))
        return;
    if (n < 0)
        buffer_.clear(); // a failed read keeps no last line
    eof_ = true;
}

bool
LineWriter::flush()
{
    std::size_t sent = 0;
    while (sent < buffer_.size()) {
        const ssize_t n =
            ::send(fd_, buffer_.data() + sent, buffer_.size() - sent,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n >= 0)
            sent += static_cast<std::size_t>(n);
        else if (errno == EAGAIN)
            break; // the peer is full: keep the rest
        else if (errno != EINTR)
            return false;
    }
    buffer_.erase(0, sent);
    return true;
}

} // namespace sched91
