/**
 * @file
 * Newline framing over a stream socket: the one line layer under every
 * service stream (docs/ROBUSTNESS.md) — daemon connections, the
 * supervisor's link to each sandbox worker, `sched91 top`, the soak
 * client and the service tests.
 *
 *  - writeLine() sends a line and its '\n' frame in one call, with
 *    MSG_NOSIGNAL: a peer that is gone is a false return, never a
 *    SIGPIPE.
 *  - LineReader buffers reads on one fd and hands out whole lines.
 *    Every complete line a read brought in is handed out before the
 *    next read, and the buffer is compacted once per read, not once
 *    per line, so a pipelined peer costs one recv per wakeup.
 *  - connectUnix() opens a client connection to an AF_UNIX socket.
 */

#ifndef SCHED91_SUPPORT_LINE_IO_HH
#define SCHED91_SUPPORT_LINE_IO_HH

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>

namespace sched91
{

/**
 * Send @p line plus its '\n' on socket @p fd, retrying EINTR and short
 * writes.  False once the peer is gone (errno says why).  Blocks while
 * the peer's receive buffer is full.
 */
bool writeLine(int fd, std::string_view line);

/** Connect to the AF_UNIX stream socket at @p path; the fd (CLOEXEC),
 * or -1 with errno set (ENAMETOOLONG for a path sockaddr_un cannot
 * hold). */
int connectUnix(const std::string &path);

/** Whole lines from one stream fd, which it reads but does not own. */
class LineReader
{
  public:
    using Clock = std::chrono::steady_clock;

    enum class Status
    {
        Line,    ///< a whole line, without its '\n'
        Eof,     ///< the peer closed (or the read failed): see rest()
        Timeout, ///< no whole line by the deadline; call again
        TooLong, ///< the unterminated line passed the cap
    };

    LineReader() = default;

    /** @p maxLineBytes caps the unterminated line the buffer may hold;
     * 0 = no cap. */
    explicit LineReader(int fd, std::size_t maxLineBytes = 0)
        : fd_(fd), maxLineBytes_(maxLineBytes)
    {
    }

    /**
     * Next line into @p line, which stays valid until the next call.
     * Returns a buffered line at once; otherwise reads until a line
     * is whole or the absolute @p deadline passes (never, for
     * Clock::time_point::max()).  A deadline already past hands out
     * only what is buffered.
     */
    Status read(std::string_view &line, Clock::time_point deadline);

    /** Same, waiting at most @p timeoutMs; negative waits without
     * limit. */
    Status read(std::string_view &line, int timeoutMs);

    /** After Eof: the unterminated last line, empty when there was
     * none or the read failed. */
    std::string_view rest() const
    {
        return std::string_view(buffer_).substr(start_);
    }

  private:
    int fd_ = -1;
    std::size_t maxLineBytes_ = 0;
    std::string buffer_;
    std::size_t start_ = 0;   ///< first byte not yet handed out
    std::size_t scanned_ = 0; ///< no '\n' in [start_, scanned_)
    bool eof_ = false;
};

} // namespace sched91

#endif // SCHED91_SUPPORT_LINE_IO_HH
