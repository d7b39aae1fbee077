#include "dedukt/io/spill.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dedukt/util/error.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::io {
namespace {

namespace fs = std::filesystem;

std::string test_root() {
  return test_support::temp_path("dedukt-spill-test");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- SpillKind ----------------------------------------------------------

TEST(SpillKindTest, ToStringCoversEveryKind) {
  EXPECT_EQ(to_string(SpillKind::kKmerKeys), "kmer-keys");
  EXPECT_EQ(to_string(SpillKind::kWideKmerKeys), "wide-kmer-keys");
  EXPECT_EQ(to_string(SpillKind::kSupermers), "supermers");
  EXPECT_EQ(to_string(SpillKind::kWideSupermers), "wide-supermers");
}

TEST(SpillKindTest, LayoutHelpers) {
  EXPECT_EQ(spill_words_per_item(SpillKind::kKmerKeys), 1u);
  EXPECT_EQ(spill_words_per_item(SpillKind::kWideKmerKeys), 2u);
  EXPECT_EQ(spill_words_per_item(SpillKind::kSupermers), 1u);
  EXPECT_EQ(spill_words_per_item(SpillKind::kWideSupermers), 2u);
  EXPECT_FALSE(spill_has_lens(SpillKind::kKmerKeys));
  EXPECT_FALSE(spill_has_lens(SpillKind::kWideKmerKeys));
  EXPECT_TRUE(spill_has_lens(SpillKind::kSupermers));
  EXPECT_TRUE(spill_has_lens(SpillKind::kWideSupermers));
}

// --- SpillDir -----------------------------------------------------------

TEST(SpillDirTest, CreatesUniqueSubdirsAndRemovesThem) {
  const std::string root = test_root();
  std::string a_path, b_path;
  {
    SpillDir a(root);
    SpillDir b(root);
    a_path = a.path();
    b_path = b.path();
    EXPECT_NE(a_path, b_path);
    EXPECT_TRUE(fs::is_directory(a_path));
    EXPECT_TRUE(fs::is_directory(b_path));
    // Scratch paths live under the requested root.
    EXPECT_EQ(fs::path(a_path).parent_path(), fs::path(root));
  }
  EXPECT_FALSE(fs::exists(a_path));
  EXPECT_FALSE(fs::exists(b_path));
  fs::remove_all(root);
}

TEST(SpillDirTest, RemovesContentsOnException) {
  const std::string root = test_root();
  std::string path;
  try {
    SpillDir dir(root);
    path = dir.path();
    dump(dir.bin_path(0, 0), "leftover bytes");
    throw Error("simulated mid-run failure");
  } catch (const Error&) {
  }
  EXPECT_FALSE(fs::exists(path));
  fs::remove_all(root);
}

TEST(SpillDirTest, BinPathIsPerRankPerBin) {
  const std::string root = test_root();
  SpillDir dir(root);
  EXPECT_NE(dir.bin_path(0, 0), dir.bin_path(0, 1));
  EXPECT_NE(dir.bin_path(0, 0), dir.bin_path(1, 0));
  EXPECT_EQ(fs::path(dir.bin_path(2, 3)).parent_path(), fs::path(dir.path()));
}

// --- writer/reader round trips -----------------------------------------

struct RoundTripCase {
  SpillKind kind;
  int k;
};

class SpillRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(SpillRoundTrip, RunsSurviveRoundTrip) {
  const auto [kind, k] = GetParam();
  const std::string root = test_root();
  SpillDir dir(root);
  const std::string path = dir.bin_path(0, 0);
  const std::uint32_t nranks = 4;
  const std::uint32_t wpi = spill_words_per_item(kind);
  const bool has_lens = spill_has_lens(kind);

  std::vector<std::vector<std::uint64_t>> words = {
      {0x1111, 0x2222, 0x3333},                  // dest 0: 3 or 1.5 items
      {0xAAAA'BBBB'CCCC'DDDD, 0x0123'4567'89AB}, // dest 2
  };
  if (wpi == 2) {
    words[0].push_back(0x4444);  // make item counts whole
  }
  std::vector<std::vector<std::uint8_t>> lens = {{21, 22, 23, 24},
                                                 {30, 31}};

  std::uint64_t expected_bytes = 0;
  {
    SpillBinWriter writer(path, kind, k, nranks);
    writer.append_run(0, words[0].data(), words[0].size() / wpi,
                      has_lens ? lens[0].data() : nullptr);
    writer.append_run(2, words[1].data(), words[1].size() / wpi,
                      has_lens ? lens[1].data() : nullptr);
    writer.close();
    EXPECT_EQ(writer.runs(), 2u);
    expected_bytes = writer.bytes_written();
    EXPECT_GT(expected_bytes, 0u);
  }

  SpillBinReader reader(path, kind, k, nranks);
  SpillRun run;
  ASSERT_TRUE(reader.next(run));
  EXPECT_EQ(run.dest, 0u);
  EXPECT_EQ(run.count, words[0].size() / wpi);
  EXPECT_EQ(run.words, words[0]);
  if (has_lens) {
    EXPECT_EQ(run.lens, std::vector<std::uint8_t>(
                            lens[0].begin(),
                            lens[0].begin() + static_cast<long>(run.count)));
  } else {
    EXPECT_TRUE(run.lens.empty());
  }
  ASSERT_TRUE(reader.next(run));
  EXPECT_EQ(run.dest, 2u);
  EXPECT_EQ(run.words, words[1]);
  EXPECT_FALSE(reader.next(run));
  EXPECT_EQ(reader.runs(), 2u);
  EXPECT_EQ(reader.bytes_read(), expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpillRoundTrip,
    ::testing::Values(RoundTripCase{SpillKind::kKmerKeys, 17},
                      RoundTripCase{SpillKind::kWideKmerKeys, 33},
                      RoundTripCase{SpillKind::kSupermers, 17},
                      RoundTripCase{SpillKind::kWideSupermers, 19}));

TEST(SpillFormatTest, EmptyFileYieldsNoRuns) {
  SpillDir dir(test_root());
  const std::string path = dir.bin_path(0, 0);
  {
    SpillBinWriter writer(path, SpillKind::kKmerKeys, 17, 4);
    writer.close();
  }
  SpillBinReader reader(path, SpillKind::kKmerKeys, 17, 4);
  SpillRun run;
  EXPECT_FALSE(reader.next(run));
}

// --- hostile-input validation ------------------------------------------

class SpillValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<SpillDir>(test_root());
    path_ = dir_->bin_path(0, 0);
    SpillBinWriter writer(path_, SpillKind::kSupermers, 17, 4);
    const std::uint64_t words[] = {0x1234, 0x5678};
    const std::uint8_t lens[] = {20, 24};
    writer.append_run(1, words, 2, lens);
    writer.close();
  }
  std::unique_ptr<SpillDir> dir_;
  std::string path_;
};

TEST_F(SpillValidationTest, HeaderMismatchesThrowParseError) {
  SpillRun run;
  // Wrong kind / k / rank count.
  EXPECT_THROW(SpillBinReader(path_, SpillKind::kKmerKeys, 17, 4),
               ParseError);
  EXPECT_THROW(SpillBinReader(path_, SpillKind::kSupermers, 19, 4),
               ParseError);
  EXPECT_THROW(SpillBinReader(path_, SpillKind::kSupermers, 17, 8),
               ParseError);
  // Corrupt magic and version words.
  std::string bytes = slurp(path_);
  std::string bad = bytes;
  bad[0] = 'X';
  dump(path_, bad);
  EXPECT_THROW(SpillBinReader(path_, SpillKind::kSupermers, 17, 4),
               ParseError);
  bad = bytes;
  bad[4] = '\x7f';
  dump(path_, bad);
  EXPECT_THROW(SpillBinReader(path_, SpillKind::kSupermers, 17, 4),
               ParseError);
}

TEST_F(SpillValidationTest, MissingFileThrowsParseError) {
  EXPECT_THROW(
      SpillBinReader("/nonexistent/bin.dksp", SpillKind::kKmerKeys, 17, 4),
      ParseError);
}

TEST_F(SpillValidationTest, OutOfRangeDestinationThrowsParseError) {
  std::string bytes = slurp(path_);
  // The run header follows the 20-byte file header; its first u32 is dest.
  const std::uint32_t bad_dest = 4;  // == nranks, one past the last rank
  std::memcpy(bytes.data() + 20, &bad_dest, sizeof(bad_dest));
  dump(path_, bytes);
  SpillBinReader reader(path_, SpillKind::kSupermers, 17, 4);
  SpillRun run;
  EXPECT_THROW(reader.next(run), ParseError);
}

TEST_F(SpillValidationTest, OversizedCountThrowsBeforeAllocating) {
  std::string bytes = slurp(path_);
  // A count in the exabyte range: reading must fail on the
  // payload-vs-file-size check, not attempt the allocation.
  const std::uint64_t huge = std::uint64_t{1} << 55;
  std::memcpy(bytes.data() + 24, &huge, sizeof(huge));
  dump(path_, bytes);
  SpillBinReader reader(path_, SpillKind::kSupermers, 17, 4);
  SpillRun run;
  EXPECT_THROW(reader.next(run), ParseError);
}

TEST_F(SpillValidationTest, OutOfRangeSupermerLengthThrowsParseError) {
  // Pass 2 extracts len - k + 1 k-mers from each supermer, so a length
  // below k, or past the 31 (two words: 63) bases the words pack, is
  // rejected; k itself and the packing limit read back.
  struct Case {
    SpillKind kind;
    std::uint8_t len;
    bool valid;
  };
  for (const Case c : {Case{SpillKind::kSupermers, 3, false},
                       Case{SpillKind::kSupermers, 16, false},
                       Case{SpillKind::kSupermers, 17, true},
                       Case{SpillKind::kSupermers, 31, true},
                       Case{SpillKind::kSupermers, 32, false},
                       Case{SpillKind::kSupermers, 200, false},
                       Case{SpillKind::kWideSupermers, 3, false},
                       Case{SpillKind::kWideSupermers, 16, false},
                       Case{SpillKind::kWideSupermers, 17, true},
                       Case{SpillKind::kWideSupermers, 63, true},
                       Case{SpillKind::kWideSupermers, 64, false},
                       Case{SpillKind::kWideSupermers, 200, false}}) {
    SCOPED_TRACE(testing::Message() << to_string(c.kind) << " length "
                                    << int{c.len});
    const std::string path = dir_->bin_path(1, 0);
    {
      // Two items: a valid 20-base supermer, then the length under test.
      SpillBinWriter writer(path, c.kind, 17, 4);
      const std::uint64_t words[] = {0x1234, 0x5678, 0x9ABC, 0xDEF0};
      const std::uint8_t lens[] = {20, c.len};
      writer.append_run(2, words, 2, lens);
      writer.close();
    }
    SpillBinReader reader(path, c.kind, 17, 4);
    SpillRun run;
    if (c.valid) {
      ASSERT_TRUE(reader.next(run));
      EXPECT_EQ(run.lens, std::vector<std::uint8_t>({20, c.len}));
      EXPECT_FALSE(reader.next(run));
    } else {
      EXPECT_THROW(reader.next(run), ParseError);
    }
  }
}

TEST_F(SpillValidationTest, EveryTruncationThrowsParseErrorOrEndsCleanly) {
  const std::string bytes = slurp(path_);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    dump(path_, bytes.substr(0, cut));
    try {
      SpillBinReader reader(path_, SpillKind::kSupermers, 17, 4);
      SpillRun run;
      while (reader.next(run)) {
      }
      // A clean parse of a strict prefix is only possible right after the
      // header, where the file simply holds zero runs.
      EXPECT_EQ(cut, 20u) << "unexpected clean parse at cut " << cut;
    } catch (const ParseError&) {
      // expected for every other prefix
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-ParseError exception at cut " << cut << ": "
                    << e.what();
    }
  }
}

}  // namespace
}  // namespace dedukt::io
