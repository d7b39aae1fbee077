// Host-side parallel-simulation benchmark: the same kernel-dominated
// workloads at several DEDUKT_SIM_THREADS settings.
//
// This does not reproduce a paper figure — it measures the simulator
// itself. Block-parallel Device::launch should shrink *wall* time roughly
// linearly in the pool size while every simulated quantity (modeled
// seconds, counter totals, count spectra) stays bit-identical; the driver
// checks that invariant and fails loudly if a sweep disagrees.
//
// Flags: --threads=1,2,4 (pool sizes to sweep)  --repeats=N
//        --json=<path> (machine-readable BenchRecord dump; includes
//        trace-derived "kernel:<name>" records — per-kernel modeled
//        seconds summed over the sweep at each pool size)
//        --trace=<path> (Chrome trace of the whole sweep)  --scale-mult=F
#include <cstdio>
#include <cstdlib>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/thread_pool.hpp"
#include "dedukt/util/timer.hpp"

namespace {

using dedukt::bench::BenchRecord;

std::vector<unsigned> parse_threads(const dedukt::CliParser& cli) {
  const std::string spec = cli.get("threads", "1,2,4");
  std::vector<unsigned> threads;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) {
      const long value = std::strtol(item.c_str(), nullptr, 10);
      DEDUKT_REQUIRE_MSG(value >= 1, "bad --threads entry '" << item << "'");
      threads.push_back(static_cast<unsigned>(value));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  DEDUKT_REQUIRE_MSG(!threads.empty(), "--threads must list pool sizes");
  return threads;
}

/// Deterministic pseudo-reads: `n` k-mer codes drawn from a universe small
/// enough that most keys repeat, like real 30x coverage does.
std::vector<std::uint64_t> make_kmers(std::size_t n) {
  std::mt19937_64 rng(0xDEDC07u);
  std::uniform_int_distribution<std::uint64_t> dist(0, n / 8 + 1);
  std::vector<std::uint64_t> kmers(n);
  for (auto& kmer : kmers) kmer = dist(rng) * 0x9E3779B97F4A7C15u;
  return kmers;
}

/// Hash-table insert storm: one kernel, one thread per k-mer, contended
/// atomics — the counting phase the paper's Fig. 3 is dominated by.
BenchRecord run_hash_insert(const std::vector<std::uint64_t>& kmers,
                            int repeats, unsigned threads) {
  BenchRecord record;
  record.name = "hash_insert";
  record.threads = threads;
  for (int rep = 0; rep < repeats; ++rep) {
    dedukt::gpusim::Device device;
    dedukt::core::DeviceHashTable table(device, kmers.size());
    auto buffer = device.alloc<std::uint64_t>(kmers.size());
    device.copy_to_device(std::span<const std::uint64_t>(kmers), buffer);
    dedukt::Timer wall;
    const auto stats = table.count_kmers(buffer, kmers.size());
    record.wall_seconds += wall.seconds();
    record.modeled_seconds += stats.modeled_seconds;
  }
  return record;
}

/// Load-factor sweep: the same k-mer multiset into tables of shrinking
/// headroom. Probe charges grow with load but must stay pool-size
/// invariant (the driver's modeled-identity check covers these records).
std::vector<BenchRecord> run_load_sweep(
    const std::vector<std::uint64_t>& kmers, int repeats, unsigned threads) {
  std::vector<std::uint64_t> unique = kmers;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::vector<BenchRecord> records;
  for (const double headroom : {4.0, 2.0, 1.25, 1.05}) {
    BenchRecord record;
    // h400 = headroom 4.00 (slots per expected key x100).
    record.name =
        "hash_load_h" + std::to_string(static_cast<int>(headroom * 100));
    record.threads = threads;
    for (int rep = 0; rep < repeats; ++rep) {
      dedukt::gpusim::Device device;
      dedukt::core::DeviceHashTable table(device, unique.size(), headroom);
      auto buffer = device.alloc<std::uint64_t>(kmers.size());
      device.copy_to_device(std::span<const std::uint64_t>(kmers), buffer);
      dedukt::Timer wall;
      const auto stats = table.count_kmers(buffer, kmers.size());
      record.wall_seconds += wall.seconds();
      record.modeled_seconds += stats.modeled_seconds;
    }
    records.push_back(std::move(record));
  }
  return records;
}

/// Full supermer pipeline on the E. coli preset: parse + exchange + count
/// kernels across simulated ranks, all sharing the one host pool.
BenchRecord run_pipeline(const dedukt::bench::BenchDataset& dataset,
                         int repeats, unsigned threads) {
  BenchRecord record;
  record.name = "pipeline_supermer";
  record.threads = threads;
  for (int rep = 0; rep < repeats; ++rep) {
    dedukt::Timer wall;
    const auto result = dedukt::bench::run_pipeline(
        dataset, dedukt::core::PipelineKind::kGpuSupermer, /*nranks=*/4);
    record.wall_seconds += wall.seconds();
    record.modeled_seconds += result.modeled_breakdown().total();
  }
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const dedukt::CliParser cli(argc, argv);
  dedukt::bench::print_banner(
      "simulator parallelism (no paper figure)",
      "Wall vs modeled time of kernel-dominated workloads across host pool "
      "sizes; modeled output must be identical for every pool size.");

  dedukt::bench::maybe_enable_trace(cli);

  const std::vector<unsigned> threads = parse_threads(cli);
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  const auto kmers = make_kmers(1u << 20);
  const auto datasets = dedukt::bench::load_datasets(cli, {"ecoli30x"});

  // Record kernel launches so --json can report per-kernel modeled times.
  // One metrics window per pool size; an in-memory session is enough
  // unless --trace asked for a file.
  auto& session = dedukt::trace::TraceSession::instance();
  if (!dedukt::trace::enabled()) session.enable("");

  std::vector<BenchRecord> records;
  std::vector<BenchRecord> kernel_records;
  for (const unsigned t : threads) {
    dedukt::util::ThreadPool::set_global_threads(t);
    const dedukt::trace::SessionMark mark = session.mark();
    records.push_back(run_hash_insert(kmers, repeats, t));
    for (auto& record : run_load_sweep(kmers, repeats, t)) {
      records.push_back(std::move(record));
    }
    records.push_back(run_pipeline(datasets[0], repeats, t));
    for (const auto& [name, totals] :
         session.metrics(mark).kernel_totals()) {
      BenchRecord kernel;
      kernel.name = "kernel:" + name;
      kernel.wall_seconds = totals.wall_seconds;
      kernel.modeled_seconds = totals.modeled_seconds;
      kernel.threads = t;
      kernel_records.push_back(std::move(kernel));
    }
  }

  std::printf("%-20s %8s %14s %16s %10s\n", "workload", "threads",
              "wall (s)", "modeled (s)", "speedup");
  for (const BenchRecord& record : records) {
    double base_wall = record.wall_seconds;
    for (const BenchRecord& other : records) {
      if (other.name == record.name && other.threads == threads.front()) {
        base_wall = other.wall_seconds;
      }
    }
    std::printf("%-20s %8u %14.4f %16.6g %9.2fx\n", record.name.c_str(),
                record.threads, record.wall_seconds, record.modeled_seconds,
                base_wall / record.wall_seconds);
  }

  // The acceptance invariant: host parallelism must not leak into the
  // simulation. Same workload => bit-identical modeled seconds. The
  // per-kernel trace records join the check: each kernel's summed modeled
  // time must also be independent of the pool size.
  records.insert(records.end(), kernel_records.begin(), kernel_records.end());
  for (const BenchRecord& record : records) {
    for (const BenchRecord& other : records) {
      if (other.name != record.name) continue;
      DEDUKT_CHECK_MSG(other.modeled_seconds == record.modeled_seconds,
                       "modeled time varies with pool size for "
                           << record.name << ": " << record.modeled_seconds
                           << " (t=" << record.threads << ") vs "
                           << other.modeled_seconds << " (t=" << other.threads
                           << ")");
    }
  }
  std::printf("modeled time identical across all pool sizes: OK\n");

  dedukt::bench::maybe_write_bench_json(cli, records);
  return 0;
}
