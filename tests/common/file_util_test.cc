#include "common/file_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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

TEST_F(FileUtilTest, RoundTrip) {
  ASSERT_TRUE(WriteFileAtomic(path_, "hello\nworld\n").ok());
  const Result<FileBytes> read = ReadFile(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().view(), "hello\nworld\n");
  EXPECT_FALSE(FileExists(tmp_)) << "temporary left after a clean write";
}

// A file spanning more than two read slices, with a tail that is neither
// slice- nor word-aligned, comes back byte for byte.
TEST_F(FileUtilTest, ReadsFileSpanningSeveralSlices) {
  std::string content(2 * kReadSliceBytes + 4099, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
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
  EXPECT_FALSE(FileExists(bad + ".tmp"));
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
    EXPECT_FALSE(FileExists(tmp_))
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
  EXPECT_FALSE(FileExists(path_));
  EXPECT_FALSE(FileExists(tmp_));
}

}  // namespace
}  // namespace hido
