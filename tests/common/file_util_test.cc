#include "common/file_util.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace hido {
namespace {

using internal::ArmWriteFailpointForTest;
using internal::WriteFailStep;

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/file_util_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    tmp_ = path_ + ".tmp";
    std::remove(path_.c_str());
    std::remove(tmp_.c_str());
  }

  void TearDown() override {
    ArmWriteFailpointForTest(WriteFailStep::kNone);
    std::remove(path_.c_str());
    std::remove(tmp_.c_str());
  }

  std::string path_;
  std::string tmp_;
};

// Bytes that differ from position to position, so a misplaced piece shows.
std::string Pattern(size_t size) {
  std::string content(size, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  return content;
}

// Runs `read` while a writer thread feeds `content` through a FIFO made at
// `path`; `read` must open the FIFO.
template <typename Read>
void ThroughFifo(const std::string& path, const std::string& content,
                 Read read) {
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // A reader that stops early leaves the writer with EPIPE, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer(
      [&] { std::ofstream(path, std::ios::binary) << content; });
  read();
  writer.join();
  std::remove(path.c_str());
}

// Reads `file` to its end in pieces of `piece` bytes.
std::string ReadToEnd(SequentialFile& file, size_t piece) {
  std::string bytes;
  std::string buffer(piece, '\0');
  while (true) {
    const Result<size_t> got = file.Read(buffer.data(), piece);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) return bytes;
    bytes.append(buffer, 0, got.value());
    if (got.value() < piece) return bytes;
  }
}

TEST_F(FileUtilTest, RoundTrip) {
  ASSERT_TRUE(WriteFileAtomic(path_, "hello\nworld\n").ok());
  const Result<FileBytes> read = ReadFile(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().view(), "hello\nworld\n");
  EXPECT_FALSE(std::filesystem::exists(tmp_))
      << "temporary left after a clean write";
}

// A file of several MiB, with a tail that is not word-aligned, comes back
// byte for byte.
TEST_F(FileUtilTest, ReadsFileSpanningSeveralSlices) {
  const std::string content = Pattern((size_t{8} << 20) + 4099);
  ASSERT_TRUE(WriteFileAtomic(path_, content).ok());
  const Result<FileBytes> read = ReadFile(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().view().size(), content.size());
  EXPECT_TRUE(read.value().view() == content);
}

TEST_F(FileUtilTest, ReadEmptyFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, "").ok());
  const Result<FileBytes> read = ReadFile(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().view().empty());
}

TEST_F(FileUtilTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadFile(path_ + ".does-not-exist").ok());
}

TEST_F(FileUtilTest, OpenFailureToBadDirectory) {
  const std::string bad = path_ + ".no-such-dir/file";
  EXPECT_FALSE(WriteFileAtomic(bad, "x").ok());
  EXPECT_FALSE(std::filesystem::exists(bad + ".tmp"));
}

// Each injected failure must (a) report the error, (b) leave the previous
// content at `path` untouched, and (c) leave no stale `path` + ".tmp".
TEST_F(FileUtilTest, FailpointsLeaveNoStaleTmpAndPreserveOldContent) {
  ASSERT_TRUE(WriteFileAtomic(path_, "old content").ok());
  for (const WriteFailStep step :
       {WriteFailStep::kOpen, WriteFailStep::kWrite,
        WriteFailStep::kRename}) {
    ArmWriteFailpointForTest(step);
    const Status written = WriteFileAtomic(path_, "new content");
    EXPECT_FALSE(written.ok()) << static_cast<int>(step);
    EXPECT_FALSE(std::filesystem::exists(tmp_))
        << "stale .tmp after failure step " << static_cast<int>(step);
    const Result<FileBytes> read = ReadFile(path_);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().view(), "old content")
        << "target clobbered by failed write, step "
        << static_cast<int>(step);
  }
}

TEST_F(FileUtilTest, FailpointIsOneShot) {
  ArmWriteFailpointForTest(WriteFailStep::kWrite);
  EXPECT_FALSE(WriteFileAtomic(path_, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path_, "second").ok());
  EXPECT_EQ(ReadFile(path_).value().view(), "second");
}

TEST_F(FileUtilTest, FirstWriteFailureLeavesNoTargetFile) {
  ArmWriteFailpointForTest(WriteFailStep::kRename);
  EXPECT_FALSE(WriteFileAtomic(path_, "never lands").ok());
  EXPECT_FALSE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(tmp_));
}

// A FIFO has no size up front: ReadFile grows its buffer to the end.
TEST_F(FileUtilTest, ReadFileReadsFifoToItsEnd) {
  const std::string content = Pattern((size_t{1} << 20) + 17);
  ThroughFifo(path_, content, [&] {
    const Result<FileBytes> read = ReadFile(path_);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(read.value().view() == content);
  });
}

TEST_F(FileUtilTest, SequentialFileRewindsRegularFile) {
  const std::string content = Pattern(300001);
  ASSERT_TRUE(WriteFileAtomic(path_, content).ok());
  Result<SequentialFile> file = SequentialFile::Open(path_, false);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file.value().size(), content.size());
  EXPECT_TRUE(ReadToEnd(file.value(), 65537) == content);
  ASSERT_TRUE(file.value().Rewind().ok());
  EXPECT_TRUE(ReadToEnd(file.value(), 4096) == content);
}

// A rewindable pipe replays its copy, however it was cut into reads.
TEST_F(FileUtilTest, SequentialFileRewindsPipeFromItsCopy) {
  const std::string content = Pattern((size_t{1} << 20) + 3);
  ThroughFifo(path_, content, [&] {
    Result<SequentialFile> file = SequentialFile::Open(path_, true);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_EQ(file.value().size(), 0u);
    EXPECT_TRUE(ReadToEnd(file.value(), 65537) == content);
    ASSERT_TRUE(file.value().Rewind().ok());
    EXPECT_TRUE(ReadToEnd(file.value(), 4096) == content);
    ASSERT_TRUE(file.value().Rewind().ok());
    EXPECT_TRUE(ReadToEnd(file.value(), 1 << 21) == content);
  });
}

TEST_F(FileUtilTest, SequentialFilePipeWithoutCopyCannotRewind) {
  const std::string content = Pattern(70000);
  ThroughFifo(path_, content, [&] {
    Result<SequentialFile> file = SequentialFile::Open(path_, false);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_TRUE(ReadToEnd(file.value(), 8192) == content);
    const Status rewound = file.value().Rewind();
    EXPECT_EQ(rewound.code(), StatusCode::kIoError);
    EXPECT_NE(rewound.message().find("no temporary copy"), std::string::npos)
        << rewound.ToString();
  });
}

// Where no copy can be created, a rewindable pipe still reads to its end;
// only Rewind fails.
TEST_F(FileUtilTest, SequentialFilePipeReadsOnWhenNoCopyCanBeCreated) {
  const char* old_tmpdir = std::getenv("TMPDIR");
  const std::string saved = old_tmpdir == nullptr ? "" : old_tmpdir;
  ASSERT_EQ(::setenv("TMPDIR", (path_ + ".no-such-dir").c_str(), 1), 0);
  const std::string content = Pattern(70000);
  ThroughFifo(path_, content, [&] {
    Result<SequentialFile> file = SequentialFile::Open(path_, true);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_TRUE(ReadToEnd(file.value(), 8192) == content);
    EXPECT_EQ(file.value().Rewind().code(), StatusCode::kIoError);
  });
  if (old_tmpdir == nullptr) {
    ::unsetenv("TMPDIR");
  } else {
    ::setenv("TMPDIR", saved.c_str(), 1);
  }
}

// A copy that cannot be written in full (here: over the file size limit)
// is dropped; the pipe still reads to its end, and only Rewind fails.
TEST_F(FileUtilTest, SequentialFilePipeDropsCopyWhenAWriteFails) {
  struct rlimit saved = {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit limited = saved;
  limited.rlim_cur = 64 << 10;
  if (saved.rlim_max != RLIM_INFINITY && saved.rlim_max < limited.rlim_cur) {
    GTEST_SKIP() << "file size hard limit below 64 KiB";
  }
  // Over the limit, a write fails with EFBIG instead of raising SIGXFSZ.
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  const std::string content = Pattern(300000);
  ThroughFifo(path_, content, [&] {
    Result<SequentialFile> file = SequentialFile::Open(path_, true);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
    EXPECT_TRUE(ReadToEnd(file.value(), 8192) == content);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    EXPECT_EQ(file.value().Rewind().code(), StatusCode::kIoError);
  });
  std::signal(SIGXFSZ, old_handler);
}

}  // namespace
}  // namespace hido
