#include "support/temp_dir.hpp"

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace dedukt::test_support {

namespace {

struct ProcessTempDir {
  std::string path;

  ProcessTempDir() {
    const char* base = std::getenv("TMPDIR");
    const std::string pattern =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
        "/dedukt-test-XXXXXX";
    std::vector<char> name(pattern.begin(), pattern.end());
    name.push_back('\0');
    if (mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + pattern);
    }
    path = name.data();
  }

  ~ProcessTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

}  // namespace

const std::string& temp_dir() {
  static const ProcessTempDir dir;
  return dir.path;
}

std::string temp_path(const std::string& name) {
  return temp_dir() + "/" + name;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace dedukt::test_support
