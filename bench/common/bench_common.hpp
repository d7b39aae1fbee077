// Shared support for the per-figure/table benchmark drivers.
//
// Every driver follows the same recipe: materialize the paper's datasets at
// a laptop-scale down-scale factor, run the relevant pipelines at the
// paper's rank counts (ranks are simulated, so 384- and 768-rank runs are
// fine on one host), and print the same rows/series the paper reports —
// with measured quantities (exact counts, bytes) shown verbatim and
// modeled Summit times projected back to full-size inputs via the linear
// scale factor. Each driver prints one fixed operating point; its stdout is
// pinned by a golden under tests/figures/ (ctest -L figures).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/datasets.hpp"

namespace dedukt::bench {

/// One materialized benchmark dataset.
struct BenchDataset {
  io::DatasetPreset preset;
  std::uint64_t scale = 1;   ///< genome down-scale factor vs the real input
  io::ReadBatch reads;
};

/// Default down-scale per preset key, sized so a full sweep finishes in
/// seconds on one core while preserving the datasets' relative ordering.
[[nodiscard]] std::uint64_t default_scale(const std::string& key);

/// Materialize the named presets at their default scales.
[[nodiscard]] std::vector<BenchDataset> load_datasets(
    const std::vector<std::string>& keys);

/// All six Table-I keys in paper order.
[[nodiscard]] std::vector<std::string> all_dataset_keys();

/// The four small (<1 GB) datasets the paper runs at 16 nodes.
[[nodiscard]] std::vector<std::string> small_dataset_keys();

/// The two large datasets the paper runs at 64-128 nodes.
[[nodiscard]] std::vector<std::string> large_dataset_keys();

/// Chop reads into chunks of at most `chunk_bases`, overlapping by
/// `overlap` bases so the k-mer multiset is preserved exactly (overlap =
/// k-1). Down-scaled inputs have so few reads that whole-read partitioning
/// would create artificial per-rank imbalance a full-size run never sees;
/// chunking restores full-scale granularity.
[[nodiscard]] io::ReadBatch chunk_reads(const io::ReadBatch& reads,
                                        std::uint64_t chunk_bases,
                                        std::uint64_t overlap = 16);

/// Run one pipeline on a dataset at the paper's rank count. Reads are
/// chunked (see chunk_reads) so every rank gets many work units.
[[nodiscard]] core::CountResult run_pipeline(
    const BenchDataset& dataset, core::PipelineKind kind, int nranks,
    int m = 7,
    core::ExchangeMode exchange = core::ExchangeMode::kStaged,
    kmer::MinimizerOrder order = kmer::MinimizerOrder::kRandomized);

/// Modeled per-phase breakdown projected to the full-size input: volume
/// terms scale by `scale`, latency/overhead terms stay constant.
[[nodiscard]] PhaseTimes projected_breakdown(const core::CountResult& result,
                                             std::uint64_t scale);

/// Sum of the projected per-phase maxima.
[[nodiscard]] double projected_total(const core::CountResult& result,
                                     std::uint64_t scale);

/// Driver start-up: exit 1 with "unknown flag --<name>" on any flag but
/// --trace, print the standard banner (what this driver reproduces and how
/// to read it), and honor --trace=<path> by enabling session tracing that
/// writes the Chrome trace (and metrics JSON) to <path> at process exit.
void start(int argc, char** argv, const std::string& experiment_id,
           const std::string& description);

/// A fresh mkdtemp directory under the system temp directory, removed with
/// its contents on destruction, so concurrent runs of a driver never share
/// or delete each other's files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix);
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace dedukt::bench
