#include "dedukt/core/app.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dedukt/io/fastq.hpp"
#include "dedukt/io/synthetic.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::core {
namespace {

struct AppResult {
  int exit_code;
  std::string out;
  std::string err;
};

AppResult run(std::vector<std::string> args) {
  std::vector<const char*> argv = {"dedukt"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out, err;
  const int code =
      run_app(static_cast<int>(argv.size()), argv.data(), out, err);
  return {code, out.str(), err.str()};
}

using test_support::temp_path;

TEST(AppTest, NoArgsPrintsUsageAndFails) {
  const AppResult result = run({});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(AppTest, HelpSucceeds) {
  const AppResult result = run({"help"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("count"), std::string::npos);
  EXPECT_NE(result.out.find("compare"), std::string::npos);
}

TEST(AppTest, UnknownCommandFails) {
  const AppResult result = run({"frobnicate"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(AppTest, CountSyntheticWritesBinary) {
  const std::string path = temp_path("app_counts.bin");
  const AppResult result = run({"count", "--synthetic=ecoli30x",
                                "--scale=4000", "--ranks=4",
                                "--output=" + path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("wrote"), std::string::npos);

  const AppResult info = run({"info", "--counts=" + path});
  ASSERT_EQ(info.exit_code, 0) << info.err;
  EXPECT_NE(info.out.find("k                    : 17"), std::string::npos);
}

TEST(AppTest, CountFromFastqFile) {
  // Write a small FASTQ and count it with the CPU pipeline.
  io::GenomeSpec gspec;
  gspec.length = 3'000;
  io::ReadSpec rspec;
  rspec.coverage = 2.0;
  rspec.mean_read_length = 300;
  rspec.min_read_length = 60;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);
  const std::string fastq = temp_path("app_reads.fastq");
  io::write_fastq_file(fastq, reads);

  const std::string counts = temp_path("app_fastq_counts.bin");
  const AppResult result =
      run({"count", "--input=" + fastq, "--pipeline=cpu", "--ranks=3",
           "--k=11", "--output=" + counts});
  ASSERT_EQ(result.exit_code, 0) << result.err;

  const AppResult info = run({"info", "--counts=" + counts});
  EXPECT_NE(info.out.find("k                    : 11"), std::string::npos);
}

TEST(AppTest, CountRequiresInputOrSynthetic) {
  const AppResult result = run({"count"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--input or --synthetic"), std::string::npos);
}

TEST(AppTest, CountRejectsBadPipeline) {
  const AppResult result =
      run({"count", "--synthetic=ecoli30x", "--pipeline=quantum"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--pipeline"), std::string::npos);
}

TEST(AppTest, CountRejectsKBeyondOneWordKeys) {
  // The CLI counts one-word keys; k = 33 must fail up front instead of
  // counting the last 32 bases of every 33-mer.
  const AppResult result =
      run({"count", "--synthetic=ecoli30x", "--scale=4000", "--ranks=3",
           "--pipeline=cpu", "--k=33", "--canonical"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("k=33"), std::string::npos) << result.err;
  EXPECT_EQ(result.out.find("counted"), std::string::npos) << result.out;
}

TEST(AppTest, HistoAnalyzesCounts) {
  const std::string path = temp_path("app_histo.bin");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=4000",
                 "--ranks=4", "--output=" + path})
                .exit_code,
            0);
  const AppResult histo = run({"histo", "--counts=" + path});
  ASSERT_EQ(histo.exit_code, 0) << histo.err;
  EXPECT_NE(histo.out.find("coverage peak"), std::string::npos);
  EXPECT_NE(histo.out.find("genome size estimate"), std::string::npos);
}

TEST(AppTest, DumpProducesTsvRows) {
  const std::string path = temp_path("app_dump.bin");
  ASSERT_EQ(run({"count", "--synthetic=abaumannii30x", "--scale=8000",
                 "--ranks=3", "--output=" + path})
                .exit_code,
            0);
  const AppResult dump = run({"dump", "--counts=" + path});
  ASSERT_EQ(dump.exit_code, 0) << dump.err;
  // Every row is "<17 ACGT chars>\t<count>".
  std::istringstream rows(dump.out);
  std::string line;
  int checked = 0;
  while (std::getline(rows, line) && checked < 50) {
    ASSERT_EQ(line.find('\t'), 17u) << line;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(AppTest, GraphReportsUnitigs) {
  const std::string path = temp_path("app_graph.bin");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=3", "--output=" + path})
                .exit_code,
            0);
  const AppResult graph = run({"graph", "--counts=" + path});
  ASSERT_EQ(graph.exit_code, 0) << graph.err;
  EXPECT_NE(graph.out.find("unitig N50"), std::string::npos);
  EXPECT_NE(graph.out.find("nodes"), std::string::npos);
}

TEST(AppTest, GraphMinCountFilters) {
  const std::string path = temp_path("app_graph_filter.bin");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=3", "--output=" + path})
                .exit_code,
            0);
  const AppResult all = run({"graph", "--counts=" + path});
  const AppResult filtered =
      run({"graph", "--counts=" + path, "--min-count=1000000"});
  ASSERT_EQ(all.exit_code, 0);
  ASSERT_EQ(filtered.exit_code, 0);
  EXPECT_NE(filtered.out.find("nodes                : 0"),
            std::string::npos);  // everything filtered away
}

TEST(AppTest, CompareIdenticalFilesIsJaccardOne) {
  const std::string path = temp_path("app_cmp.bin");
  ASSERT_EQ(run({"count", "--synthetic=vvulnificus30x", "--scale=8000",
                 "--ranks=3", "--output=" + path})
                .exit_code,
            0);
  const AppResult cmp =
      run({"compare", "--a=" + path, "--b=" + path});
  ASSERT_EQ(cmp.exit_code, 0) << cmp.err;
  EXPECT_NE(cmp.out.find("jaccard              : 1.0000"),
            std::string::npos);
  EXPECT_NE(cmp.out.find("bray-curtis          : 0.0000"),
            std::string::npos);
}

TEST(AppTest, CompareRejectsMismatchedK) {
  const std::string a = temp_path("app_cmp_a.bin");
  const std::string b = temp_path("app_cmp_b.bin");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=2", "--k=17", "--output=" + a})
                .exit_code,
            0);
  // k=21 needs a smaller window to stay within single-word packing.
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=2", "--k=21", "--window=11", "--output=" + b})
                .exit_code,
            0);
  const AppResult cmp = run({"compare", "--a=" + a, "--b=" + b});
  EXPECT_EQ(cmp.exit_code, 1);
  EXPECT_NE(cmp.err.find("different k"), std::string::npos);
}

TEST(AppTest, MissingCountsFileIsRuntimeFailure) {
  const AppResult result =
      run({"info", "--counts=/nonexistent/file.bin"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST(AppTest, HelpDocumentsStreamingFlags) {
  const AppResult result = run({"help"});
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("--batch-reads"), std::string::npos);
  EXPECT_NE(result.out.find("--batch-bytes"), std::string::npos);
  EXPECT_NE(result.out.find("--ooc-spill"), std::string::npos);
  EXPECT_NE(result.out.find("--ooc-bins"), std::string::npos);
}

TEST(AppTest, BatchedCountMatchesPlainCount) {
  const std::string plain = temp_path("app_plain.bin");
  const std::string batched = temp_path("app_batched.bin");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=3", "--output=" + plain})
                .exit_code,
            0);
  const AppResult result =
      run({"count", "--synthetic=ecoli30x", "--scale=8000", "--ranks=3",
           "--batch-reads=20", "--output=" + batched});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("peak resident bytes"), std::string::npos);
  const AppResult cmp = run({"compare", "--a=" + plain, "--b=" + batched});
  ASSERT_EQ(cmp.exit_code, 0) << cmp.err;
  EXPECT_NE(cmp.out.find("jaccard              : 1.0000"),
            std::string::npos);
  EXPECT_NE(cmp.out.find("bray-curtis          : 0.0000"),
            std::string::npos);
}

TEST(AppTest, OutOfCoreCountMatchesPlainCountAndReportsSpill) {
  const std::string plain = temp_path("app_ooc_plain.bin");
  const std::string spilled = temp_path("app_ooc_spilled.bin");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=3", "--output=" + plain})
                .exit_code,
            0);
  const AppResult result =
      run({"count", "--synthetic=ecoli30x", "--scale=8000", "--ranks=3",
           "--batch-reads=20", "--ooc-spill=" + temp_path("app_ooc_scratch"),
           "--ooc-bins=3", "--output=" + spilled});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("out-of-core: 3 bins"), std::string::npos);
  EXPECT_NE(result.out.find("spilled"), std::string::npos);
  EXPECT_NE(result.out.find("spill"), std::string::npos);
  EXPECT_NE(result.out.find("reload"), std::string::npos);
  const AppResult cmp = run({"compare", "--a=" + plain, "--b=" + spilled});
  ASSERT_EQ(cmp.exit_code, 0) << cmp.err;
  EXPECT_NE(cmp.out.find("jaccard              : 1.0000"),
            std::string::npos);
}

TEST(AppTest, StreamedFastqInputMatchesLoadedInput) {
  io::GenomeSpec gspec;
  gspec.length = 3'000;
  io::ReadSpec rspec;
  rspec.coverage = 2.0;
  rspec.mean_read_length = 300;
  rspec.min_read_length = 60;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);
  const std::string fastq = temp_path("app_streamed.fastq");
  io::write_fastq_file(fastq, reads);

  const std::string loaded = temp_path("app_loaded_counts.bin");
  const std::string streamed = temp_path("app_streamed_counts.bin");
  ASSERT_EQ(run({"count", "--input=" + fastq, "--pipeline=cpu", "--ranks=3",
                 "--k=11", "--output=" + loaded})
                .exit_code,
            0);
  const AppResult result =
      run({"count", "--input=" + fastq, "--pipeline=cpu", "--ranks=3",
           "--k=11", "--batch-reads=8", "--output=" + streamed});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  // Streamed FASTQ ingest decodes incrementally; the banner says so.
  EXPECT_NE(result.out.find("(streamed)"), std::string::npos);
  const AppResult cmp = run({"compare", "--a=" + loaded, "--b=" + streamed});
  EXPECT_NE(cmp.out.find("jaccard              : 1.0000"),
            std::string::npos);
}

TEST(AppTest, OutOfCoreRejectsBadBins) {
  const AppResult result =
      run({"count", "--synthetic=ecoli30x", "--scale=8000", "--ranks=2",
           "--ooc-spill=" + temp_path("app_badbins"), "--ooc-bins=0"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--ooc-bins"), std::string::npos);
}

TEST(AppTest, CountRejectsUnknownFlags) {
  // Retired flags and misspellings fail before anything is counted or
  // written.
  const std::string path = temp_path("app_unknown_flag.bin");
  for (const std::string flag :
       {"--overlap-rounds", "--hierarchical-exchange", "--node-balanced",
        "--smem-agg", "--no-smem-agg", "--rounds-limit", "--sim-threads=4",
        "--overlap-roundz"}) {
    const AppResult result =
        run({"count", "--synthetic=ecoli30x", "--scale=8000", "--ranks=2",
             flag, "--output=" + path});
    EXPECT_EQ(result.exit_code, 1) << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(result.err.find("unknown flag " + name + " for dedukt count"),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.out, "") << result.out;
    EXPECT_FALSE(std::filesystem::exists(path)) << flag;
  }
}

TEST(AppTest, QueryRejectsUnknownFlag) {
  const std::string dir = temp_path("app_query_store");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=2", "--store-out=" + dir})
                .exit_code,
            0);
  const std::string kmers = "--kmers=ACGTACGTACGTACGTA";
  ASSERT_EQ(run({"query", "--store=" + dir, kmers}).exit_code, 0);
  // Retired flags and misspellings fail before anything is queried.
  for (const char* flag : {"--bogus", "--overlap-batches"}) {
    const AppResult result =
        run({"query", "--store=" + dir, kmers, "--ranks=2", flag});
    EXPECT_EQ(result.exit_code, 1) << flag;
    EXPECT_NE(result.err.find(std::string("unknown flag ") + flag +
                              " for dedukt query"),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.out, "") << result.out;
  }
}

TEST(AppTest, BloomFilterRejectsBoundedBatches) {
  // The Bloom filter lives in one count phase: a batched run that would
  // see a second batch fails before counting, and writes nothing.
  const std::string path = temp_path("app_bloom_batches.bin");
  const AppResult result =
      run({"count", "--synthetic=ecoli30x", "--scale=8000", "--ranks=2",
           "--filter-singletons", "--batch-reads=10", "--output=" + path});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("--filter-singletons"), std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("one batch"), std::string::npos) << result.err;
  EXPECT_EQ(result.out.find("counted"), std::string::npos) << result.out;
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(AppTest, CountRejectsNegativeCounts) {
  // A negative count-valued flag is a parse error, not a value that wraps
  // around to a huge unsigned one.
  for (const auto& [name, value] :
       {std::pair<std::string, std::string>{"scale", "-5"},
        {"batch-reads", "-1"}}) {
    const std::string path = temp_path("app_negative.bin");
    const AppResult result =
        run({"count", "--synthetic=ecoli30x", "--ranks=2",
             "--" + name + "=" + value, "--output=" + path});
    EXPECT_EQ(result.exit_code, 2) << name;
    EXPECT_NE(result.err.find("--" + name + " expects an integer in [0, "),
              std::string::npos)
        << result.err;
    EXPECT_FALSE(std::filesystem::exists(path)) << name;
  }
}

TEST(AppTest, RejectsIntegerFlagsTheirTypeCannotHold) {
  // 2^32 plus a small value: a cast to int or unsigned would wrap it to
  // the small value and run with that. Each is a parse error instead,
  // raised before anything is counted, spilled (every run is out of core,
  // so --ooc-bins is read) or written.
  const std::string path = temp_path("app_oversized.bin");
  const std::string spill = temp_path("app_oversized_spill");
  for (const auto& [name, value] :
       {std::pair<std::string, std::string>{"k", "4294967313"},
        {"m", "4294967303"},
        {"window", "4294967311"},
        {"ranks", "4294967298"},
        {"ooc-bins", "4294967300"}}) {
    const AppResult result =
        run({"count", "--synthetic=ecoli30x", "--scale=8000",
             "--ooc-spill=" + spill, "--" + name + "=" + value,
             "--output=" + path});
    EXPECT_EQ(result.exit_code, 2) << name;
    EXPECT_NE(result.err.find("--" + name + " expects an integer in ["),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.out.find("counted"), std::string::npos) << name;
    EXPECT_FALSE(std::filesystem::exists(path)) << name;
    EXPECT_FALSE(std::filesystem::exists(spill)) << name;
  }

  const std::string dir = temp_path("app_oversized_store");
  ASSERT_EQ(run({"count", "--synthetic=ecoli30x", "--scale=8000",
                 "--ranks=2", "--store-out=" + dir})
                .exit_code,
            0);
  const AppResult query = run({"query", "--store=" + dir,
                               "--kmers=ACGTACGTACGTACGTA",
                               "--ranks=4294967297"});
  EXPECT_EQ(query.exit_code, 2);
  EXPECT_NE(query.err.find("--ranks expects an integer in ["),
            std::string::npos)
      << query.err;
}

TEST(AppTest, CountWithExtensionsEnabled) {
  const std::string path = temp_path("app_ext.bin");
  const AppResult result =
      run({"count", "--synthetic=ecoli30x", "--scale=8000", "--ranks=4",
           "--filter-singletons", "--freq-balanced", "--output=" + path});
  ASSERT_EQ(result.exit_code, 0) << result.err;
  const AppResult info = run({"info", "--counts=" + path});
  EXPECT_EQ(info.exit_code, 0);
}

}  // namespace
}  // namespace dedukt::core
