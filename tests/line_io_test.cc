/**
 * @file
 * The line layer under every service stream (support/line_io.hh):
 * LineReader's framing over a socketpair — lines split across reads,
 * several lines in one read, EOF with and without an unterminated last
 * line, the cap, the timeout and a deadline already past — plus
 * writeLine's short writes and its closed-peer return, and
 * connectUnix's errors.  Over a non-blocking socketpair, the poll
 * loop's halves: readNow's one recv, and LineWriter's flush that
 * resumes a partial write and reports a peer that is gone.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/line_io.hh"

namespace sched91
{
namespace
{

using Status = LineReader::Status;

/** Both ends of one AF_UNIX stream socketpair, closed on exit;
 * @p flags adds to SOCK_STREAM (SOCK_NONBLOCK for a poll loop's
 * ends). */
struct Pair
{
    explicit Pair(int flags = 0)
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | flags, 0, fd), 0);
    }
    ~Pair()
    {
        for (int &f : fd)
            closeEnd(f);
    }

    static void
    closeEnd(int &f)
    {
        if (f >= 0)
            ::close(f);
        f = -1;
    }

    /** Raw bytes on end 1, framing left to the caller. */
    void
    put(std::string_view bytes)
    {
        ASSERT_EQ(::send(fd[1], bytes.data(), bytes.size(), 0),
                  static_cast<ssize_t>(bytes.size()));
    }

    int fd[2] = {-1, -1};
};

TEST(LineReader, JoinsALineSplitAcrossReads)
{
    Pair p;
    LineReader reader(p.fd[0]);
    std::string_view line;
    p.put("hel");
    EXPECT_EQ(reader.read(line, 20), Status::Timeout);
    p.put("lo\nwor");
    ASSERT_EQ(reader.read(line, 1000), Status::Line);
    EXPECT_EQ(line, "hello");
    EXPECT_EQ(reader.read(line, 20), Status::Timeout);
    p.put("ld\n");
    ASSERT_EQ(reader.read(line, 1000), Status::Line);
    EXPECT_EQ(line, "world");
}

TEST(LineReader, HandsOutEveryLineOfOneRead)
{
    Pair p;
    LineReader reader(p.fd[0]);
    p.put("a\nbb\n\nccc\n");
    std::string_view line;
    for (std::string_view want : {"a", "bb", "", "ccc"}) {
        ASSERT_EQ(reader.read(line, 1000), Status::Line);
        EXPECT_EQ(line, want);
    }
    EXPECT_EQ(reader.read(line, 20), Status::Timeout);
}

TEST(LineReader, EofKeepsAnUnterminatedLastLine)
{
    Pair p;
    LineReader reader(p.fd[0]);
    p.put("x\ntail");
    ::shutdown(p.fd[1], SHUT_WR);
    std::string_view line;
    ASSERT_EQ(reader.read(line, 1000), Status::Line);
    EXPECT_EQ(line, "x");
    EXPECT_EQ(reader.read(line, 1000), Status::Eof);
    EXPECT_EQ(reader.rest(), "tail");
    EXPECT_EQ(reader.read(line, 1000), Status::Eof); // stays at EOF
}

TEST(LineReader, EofAfterWholeLinesLeavesNoRest)
{
    Pair p;
    LineReader reader(p.fd[0]);
    p.put("x\n");
    Pair::closeEnd(p.fd[1]);
    std::string_view line;
    ASSERT_EQ(reader.read(line, -1), Status::Line);
    EXPECT_EQ(line, "x");
    EXPECT_EQ(reader.read(line, -1), Status::Eof);
    EXPECT_TRUE(reader.rest().empty());
}

TEST(LineReader, CapsOnlyAnUnterminatedLine)
{
    Pair p;
    LineReader reader(p.fd[0], 4);
    std::string_view line;
    // A whole line past the cap arrives in one read: the cap bounds
    // what the buffer holds unterminated, not a line already framed.
    p.put("123456\n1234");
    ASSERT_EQ(reader.read(line, 1000), Status::Line);
    EXPECT_EQ(line, "123456");
    EXPECT_EQ(reader.read(line, 20), Status::Timeout); // 4: at the cap
    p.put("5");
    EXPECT_EQ(reader.read(line, 1000), Status::TooLong);
}

TEST(LineReader, PastDeadlineHandsOutOnlyBufferedLines)
{
    // What a draining daemon reader does: take what was already read,
    // then stop without waiting.
    Pair p;
    LineReader reader(p.fd[0]);
    std::string_view line;
    p.put("a\nb\n");
    ASSERT_EQ(reader.read(line, 1000), Status::Line);
    p.put("c\n");
    ASSERT_EQ(reader.read(line, 0), Status::Line);
    EXPECT_EQ(line, "b");
    EXPECT_EQ(reader.read(line, 0), Status::Timeout); // "c\n" unread
    EXPECT_EQ(reader.read(line, LineReader::Clock::time_point{}),
              Status::Timeout);
    ASSERT_EQ(reader.read(line, 1000), Status::Line);
    EXPECT_EQ(line, "c");
}

TEST(LineReader, TimesOutOnASilentPeer)
{
    Pair p;
    LineReader reader(p.fd[0]);
    std::string_view line;
    const auto t0 = LineReader::Clock::now();
    EXPECT_EQ(reader.read(line, 50), Status::Timeout);
    EXPECT_GE(LineReader::Clock::now() - t0, std::chrono::milliseconds(50));
}

TEST(WriteLine, FramesALongLineAcrossShortWrites)
{
    // 4 MiB is far past the socket buffer, so sendmsg returns short
    // and writeLine resumes mid-line until the frame is out.
    Pair p;
    const std::string big(4u << 20, 'x');
    bool wrote = false;
    std::thread writer([&] {
        wrote = writeLine(p.fd[1], big) && writeLine(p.fd[1], "");
    });
    LineReader reader(p.fd[0]);
    std::string_view line;
    EXPECT_EQ(reader.read(line, 10'000), Status::Line);
    EXPECT_TRUE(line == big) << "a line of " << line.size() << " bytes";
    EXPECT_EQ(reader.read(line, 10'000), Status::Line);
    EXPECT_TRUE(line.empty());
    Pair::closeEnd(p.fd[0]); // a writer still blocked fails instead
    writer.join();
    EXPECT_TRUE(wrote);
}

TEST(WriteLine, ClosedPeerIsAFalseReturnNotASignal)
{
    // SIGPIPE's default action would end this test binary here.
    Pair p;
    Pair::closeEnd(p.fd[1]);
    errno = 0;
    EXPECT_FALSE(writeLine(p.fd[0], "nobody is listening"));
    EXPECT_EQ(errno, EPIPE);
}

TEST(LineReader, ReadNowReturnsNoLineOnEagainWithoutWaiting)
{
    Pair p(SOCK_NONBLOCK);
    LineReader reader(p.fd[0]);
    std::string_view line;
    const auto t0 = LineReader::Clock::now();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(reader.readNow(line), Status::Timeout);
    EXPECT_LT(LineReader::Clock::now() - t0, std::chrono::seconds(1));
    p.put("par");
    EXPECT_EQ(reader.readNow(line), Status::Timeout); // no whole line
    p.put("t\n");
    ASSERT_EQ(reader.readNow(line), Status::Line);
    EXPECT_EQ(line, "part");
    EXPECT_EQ(reader.readNow(line), Status::Timeout);
}

TEST(LineReader, ReadNowHandsOutEveryLineOneRecvBrought)
{
    Pair p(SOCK_NONBLOCK);
    LineReader reader(p.fd[0]);
    std::string_view line;
    p.put("a\nbb\n\nccc\nta");
    ASSERT_EQ(reader.readNow(line), Status::Line);
    EXPECT_EQ(line, "a");
    // Sent after that recv: read() with kNoWait hands out only what
    // the recv brought, so this waits for the next readNow.
    p.put("il\n");
    for (std::string_view want : {"bb", "", "ccc"}) {
        ASSERT_EQ(reader.read(line, LineReader::kNoWait), Status::Line);
        EXPECT_EQ(line, want);
    }
    EXPECT_EQ(reader.read(line, LineReader::kNoWait), Status::Timeout);
    ASSERT_EQ(reader.readNow(line), Status::Line);
    EXPECT_EQ(line, "tail");
}

TEST(LineReader, ReadNowReportsEofWithTheRestAndTooLongAtTheCap)
{
    Pair p(SOCK_NONBLOCK);
    LineReader reader(p.fd[0]);
    std::string_view line;
    p.put("x\ntail");
    ::shutdown(p.fd[1], SHUT_WR);
    ASSERT_EQ(reader.readNow(line), Status::Line);
    EXPECT_EQ(line, "x");
    EXPECT_EQ(reader.readNow(line), Status::Eof);
    EXPECT_EQ(reader.rest(), "tail");
    EXPECT_EQ(reader.readNow(line), Status::Eof); // stays at EOF

    Pair q(SOCK_NONBLOCK);
    LineReader capped(q.fd[0], 4);
    q.put("1234");
    EXPECT_EQ(capped.readNow(line), Status::Timeout); // 4: at the cap
    q.put("5");
    EXPECT_EQ(capped.readNow(line), Status::TooLong);
}

TEST(LineWriter, FlushResumesAPartialWrite)
{
    // 4 MiB is far past the socket buffer: the first flush sends what
    // the peer takes and keeps the rest, each later one resumes there.
    Pair p(SOCK_NONBLOCK);
    LineWriter writer(p.fd[1]);
    const std::string big(4u << 20, 'x');
    writer.queue(big);
    writer.queue("next");
    ASSERT_TRUE(writer.flush());
    ASSERT_GT(writer.pending(), 0u);
    EXPECT_LT(writer.pending(), big.size() + 6);

    std::string got;
    char chunk[65536];
    int flushes = 1;
    while (writer.pending() != 0 || got.size() < big.size() + 6) {
        pollfd pfd{p.fd[0], POLLIN, 0};
        ASSERT_EQ(::poll(&pfd, 1, 10'000), 1) << got.size() << " bytes in";
        const ssize_t n = ::recv(p.fd[0], chunk, sizeof chunk, 0);
        ASSERT_GT(n, 0);
        got.append(chunk, static_cast<std::size_t>(n));
        if (writer.pending() != 0) {
            ASSERT_TRUE(writer.flush());
            ++flushes;
        }
    }
    EXPECT_GT(flushes, 2);
    EXPECT_TRUE(got == big + "\nnext\n") << "got " << got.size() << " bytes";
}

TEST(LineWriter, GonePeerIsAFalseFlushNotASignal)
{
    // SIGPIPE's default action would end this test binary here.
    Pair p(SOCK_NONBLOCK);
    Pair::closeEnd(p.fd[0]);
    LineWriter writer(p.fd[1]);
    writer.queue("nobody is listening");
    errno = 0;
    EXPECT_FALSE(writer.flush());
    EXPECT_EQ(errno, EPIPE);
    EXPECT_EQ(writer.pending(), 20u); // the line and its '\n', lost
}

TEST(ConnectUnix, ReportsAMissingSocketAndAnOverlongPath)
{
    errno = 0;
    EXPECT_EQ(connectUnix("/nonexistent/sched91-line-io.sock"), -1);
    EXPECT_EQ(errno, ENOENT);
    errno = 0;
    EXPECT_EQ(connectUnix("/tmp/" + std::string(200, 'x')), -1);
    EXPECT_EQ(errno, ENAMETOOLONG);
}

} // namespace
} // namespace sched91
