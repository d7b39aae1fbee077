// Per-process scratch space for tests.
//
// ctest runs every discovered gtest case as its own process, and `ctest -j`
// runs those processes in parallel, so fixed file names under
// testing::TempDir() collide between cases. Every path a test writes lives
// under one directory that mkdtemp makes unique to the process (under
// $TMPDIR, or /tmp when it is unset) and that is removed when the process
// exits.
#pragma once

#include <string>

namespace dedukt::test_support {

/// This process's scratch directory, created on first use.
const std::string& temp_dir();

/// temp_dir()/name. Nothing is created.
std::string temp_path(const std::string& name);

/// An empty directory temp_dir()/name, cleared first if it exists.
std::string fresh_dir(const std::string& name);

}  // namespace dedukt::test_support
