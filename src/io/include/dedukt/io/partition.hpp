// Read partitioning across ranks — the stand-in for the paper's parallel
// I/O, which "ensures the input of size D is partitioned roughly uniformly
// over P parallel processors" (§IV-D).
#pragma once

#include <vector>

#include "dedukt/io/sequence.hpp"

namespace dedukt::io {

/// Split a batch into `parts` contiguous ranges balanced by base count
/// (greedy blocks, matching how parallel FASTQ readers split by byte
/// ranges). Each range is a view into `batch`, and each starts where the
/// one before it ends: every read lands in exactly one, and ranges may be
/// empty if there are fewer reads than parts.
[[nodiscard]] std::vector<ReadView> partition_by_bases(ReadView batch,
                                                       int parts);

}  // namespace dedukt::io
