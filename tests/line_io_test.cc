/**
 * @file
 * The line layer under every service stream (support/line_io.hh):
 * LineReader's framing over a socketpair — lines split across reads,
 * several lines in one read, EOF with and without an unterminated last
 * line, the cap, the timeout and a deadline already past — plus
 * writeLine's short writes and its closed-peer return, and
 * connectUnix's errors.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <string_view>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "support/line_io.hh"

namespace sched91
{
namespace
{

using Status = LineReader::Status;

/** Both ends of one AF_UNIX stream socketpair, closed on exit. */
struct Pair
{
    Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
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
