// git_sha_at(): the commit recorded in every BENCH_*.json provenance block,
// resolved from a .git directory laid out in a temporary tree.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "bench/common.hpp"

namespace hotc::bench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSha = "0123456789abcdef0123456789abcdef01234567";
constexpr const char* kOther = "fedcba9876543210fedcba9876543210fedcba98";

class GitShaTest : public ::testing::Test {
 protected:
  GitShaTest()
      : root_(fs::temp_directory_path() /
              ("hotc_git_sha_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name())) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~GitShaTest() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream(path) << content;
  }

  [[nodiscard]] std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

TEST_F(GitShaTest, LooseBranchRef) {
  write(".git/HEAD", "ref: refs/heads/main\n");
  write(".git/refs/heads/main", std::string(kSha) + "\n");
  EXPECT_EQ(git_sha_at(root()), kSha);
}

TEST_F(GitShaTest, PackedBranchRef) {
  write(".git/HEAD", "ref: refs/heads/main\n");
  write(".git/packed-refs",
        "# pack-refs with: peeled fully-peeled sorted \n" +
            std::string(kOther) + " refs/heads/main-old\n" +
            std::string(kSha) + " refs/heads/main\n" + "^" + kOther + "\n");
  EXPECT_EQ(git_sha_at(root()), kSha);
}

TEST_F(GitShaTest, LooseRefWinsOverPacked) {
  write(".git/HEAD", "ref: refs/heads/main\n");
  write(".git/refs/heads/main", std::string(kSha) + "\n");
  write(".git/packed-refs", std::string(kOther) + " refs/heads/main\n");
  EXPECT_EQ(git_sha_at(root()), kSha);
}

TEST_F(GitShaTest, DetachedHead) {
  write(".git/HEAD", std::string(kSha) + "\n");
  EXPECT_EQ(git_sha_at(root()), kSha);
}

TEST_F(GitShaTest, MissingGitDirectory) {
  EXPECT_EQ(git_sha_at(root()), "unknown");
}

TEST_F(GitShaTest, UnresolvableRef) {
  write(".git/HEAD", "ref: refs/heads/gone\n");
  write(".git/packed-refs", std::string(kOther) + " refs/heads/main\n");
  EXPECT_EQ(git_sha_at(root()), "unknown");
}

}  // namespace
}  // namespace hotc::bench
