/**
 * @file
 * Newline framing over a stream socket: the one line layer under every
 * service stream (docs/ROBUSTNESS.md) — daemon connections, the
 * supervisor's link to each sandbox worker, `sched91 top`, the soak
 * client and the service tests.
 *
 *  - writeLine() sends a line and its '\n' frame, with MSG_NOSIGNAL:
 *    a peer that is gone is a false return, never a SIGPIPE.
 *  - LineReader buffers reads on one fd and hands out whole lines.
 *    Every complete line a read brought in is handed out before the
 *    next read, and the buffer is compacted once per read, not once
 *    per line, so a pipelined peer costs one recv per wakeup.
 *    readNow() is a poll loop's read: at most one recv, no wait.
 *  - LineWriter is a poll loop's outbound buffer, sent as the peer
 *    takes it; writeLine() flushes one until it is empty.
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

/** Send @p line plus its '\n' on socket @p fd, waiting while the peer
 * is full.  False once the peer is gone (errno says why). */
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

    /** A poll loop's read: a buffered line, else one recv that does
     * not wait and the first line it completed; Timeout when none.
     * read(line, kNoWait) then hands out the rest without a recv. */
    Status readNow(std::string_view &line);

    /** A deadline already past: read() takes no recv. */
    static constexpr Clock::time_point kNoWait{};

    /** After Eof: the unterminated last line, empty when there was
     * none or the read failed. */
    std::string_view rest() const
    {
        return std::string_view(buffer_).substr(start_);
    }

  private:
    /** One recv into the buffer; eof_ at EOF or a failed read. */
    void receive(int flags);

    int fd_ = -1;
    std::size_t maxLineBytes_ = 0;
    std::string buffer_;
    std::size_t start_ = 0;   ///< first byte not yet handed out
    std::size_t scanned_ = 0; ///< no '\n' in [start_, scanned_)
    bool eof_ = false;
};

/** Lines queued for one non-blocking stream fd, which it does not
 * own: a poll loop's outbound buffer, so no sender waits on a slow
 * peer. */
class LineWriter
{
  public:
    explicit LineWriter(int fd) : fd_(fd) {}

    void queue(std::string_view line) { (buffer_ += line) += '\n'; }

    /** Send what the peer takes now, without waiting; false once the
     * peer is gone (errno says why), never a SIGPIPE. */
    bool flush();

    /** Bytes queued, not yet sent. */
    std::size_t pending() const { return buffer_.size(); }

  private:
    int fd_;
    std::string buffer_;
};

} // namespace sched91

#endif // SCHED91_SUPPORT_LINE_IO_HH
