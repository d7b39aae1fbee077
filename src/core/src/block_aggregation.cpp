#include "dedukt/core/block_aggregation.hpp"

#include <algorithm>

namespace dedukt::core {

BlockAggregator::BlockAggregator()
    : keys_(std::make_unique<std::uint64_t[]>(kSmemSlots)),
      counts_(std::make_unique<std::uint32_t[]>(kSmemSlots)) {
  std::fill_n(keys_.get(), kSmemSlots, kmer::kInvalidCode);
}

BlockAggregator& BlockAggregator::begin(gpusim::BlockCtx& block,
                                        std::uint64_t seed) {
  // One table per pool worker (and per rank thread that executes its own
  // launches); a block never shares it with another block in flight.
  thread_local BlockAggregator table;
  if (table.occupied_ != 0) {
    std::fill_n(table.keys_.get(), kSmemSlots, kmer::kInvalidCode);
    table.occupied_ = 0;
  }
  table.seed_ = seed;
  const std::uint64_t per_thread =
      (kSmemSlots + block.block_dim() - 1) / block.block_dim();
  block.count_smem_write(std::uint64_t{block.block_dim()} * per_thread *
                         kSmemSlotBytes);
  return table;
}

}  // namespace dedukt::core
