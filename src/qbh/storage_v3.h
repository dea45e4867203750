// The v3 binary checkpoint format (DESIGN.md §14): a page-aligned,
// section-tabled, CRC32C-checksummed image of the whole system — corpus,
// options, and the derived structures that are costly to rebuild (normal
// forms, feature vectors or serialized R*-tree pages, fitted SVD
// coefficients). Open() maps the file and adopts those sections instead of
// re-deriving them; only the per-item Keogh envelopes, cheap to recompute,
// are derived from the normal forms in parallel. That turns a
// million-melody open from a rebuild into a page-in.
//
// Layout (all integers little-endian):
//   [0,16)   magic "humdex-db v3\n" + 3 zero bytes
//   [16,20)  u32 section_count
//   [24,32)  u64 file_size (exact)
//   [32,40)  u64 next_id
//   [40,48)  u64 melody_count
//   [56,60)  u32 table_crc — CRC32C over header[0,56) + the section table
//   [64,..)  section table, 32 bytes per entry:
//              u32 type, u32 flags (0), u64 offset, u64 length,
//              u32 crc (CRC32C of the section bytes), u32 reserved (0)
//   rest of the 4096-byte header page zeroed.
// Sections start at offset 4096, page-aligned, ascending, gaps zero-filled;
// file_size is the end of the last section (no trailing pad).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "qbh/qbh_system.h"
#include "qbh/storage.h"
#include "util/env.h"

namespace humdex {

class DtwQueryEngine;

/// True iff `data` begins with the v3 binary magic.
bool LooksLikeV3(std::string_view data);

/// Serialize options + corpus + the engine's derived structures into a v3
/// image. The engine must hold exactly the live melodies of `slots`.
std::string SerializeQbhCorpusV3(
    const QbhOptions& opt, const std::vector<std::optional<Melody>>& slots,
    const DtwQueryEngine& engine);

/// Strict parse of the v3 image held by `source` (file mapping or owned
/// buffer). Every section CRC is verified; any inconsistency is kCorruption
/// and never an abort. On success the system's engine owns everything it
/// holds; nothing points into `source`. Sections older writers emitted and
/// this one no longer does (removed cascade stages, stored envelopes) are
/// checksummed and otherwise ignored.
Result<QbhSystem> ParseQbhDatabaseV3(std::shared_ptr<MemorySource> source);

/// Best-effort parse: rebuilds the system from the per-frame-checksummed
/// MELODIES section (damaged frames dropped, derived sections recomputed by
/// Build(), never trusted). Fails only when no melody is recoverable.
Result<QbhSystem> ParseQbhDatabaseV3Salvage(
    std::shared_ptr<MemorySource> source, SalvageReport* report);

}  // namespace humdex
