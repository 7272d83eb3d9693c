// Per-test scratch directories.
//
// gtest_discover_tests registers every test case as its own process and
// `ctest -j` runs those processes at once, so a fixed file name in the
// system temp directory is shared between tests that overlap: one truncates
// a checkpoint while another loads it. A ScopedTempDir is a fresh mkdtemp()
// directory under std::filesystem::temp_directory_path() ($TMPDIR, else
// /tmp), unique to the process and the object, and removed with everything
// in it when the object is destroyed.

#ifndef STSM_TESTS_TESTING_TEMP_DIR_H_
#define STSM_TESTS_TESTING_TEMP_DIR_H_

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "gtest/gtest.h"

namespace stsm {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    const std::string pattern =
        (std::filesystem::temp_directory_path() / "stsm_test_XXXXXX").string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
      return;
    }
    path_ = buf.data();
  }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  // path()/name; the file itself is not created.
  std::string File(const std::string& name) const {
    return (std::filesystem::path(path_) / name).string();
  }

  // A path inside this directory that nothing creates, for the cases that
  // check how a loader reports a missing file.
  std::string Absent() const { return File("absent"); }

 private:
  std::string path_;
};

}  // namespace stsm

#endif  // STSM_TESTS_TESTING_TEMP_DIR_H_
