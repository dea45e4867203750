// Persistence for QBH databases: the melody corpus plus the indexing
// configuration in one self-describing text file. Loading rebuilds the index
// (index construction is fast relative to IO at this corpus scale; the
// melodies are the ground truth worth persisting).
//
//   humdex-db v2
//   option normal_len 128
//   option warping_width 0.1
//   ...
//   melody <name>
//   ...
//   crc32c <8 hex digits>
//
// The v2 trailer is a CRC32C over every byte before it, so bit rot, torn
// writes, and silently truncated reads surface as Status kCorruption instead
// of a half-parsed database. v1 files (no trailer) still load. Saves go
// through Env::AtomicWriteFile (temp + fsync + rename): a crash mid-save
// leaves the previous database intact. Parsing is exception-free: every
// failure is a Status, never a throw or abort.
// When melodies have been removed online the id space is gapped; the file
// then carries two extra header lines so ids survive a round trip:
//
//   option next_id <one past the highest id ever allocated>
//   option ids <comma-separated id of each melody block, in order>
//
// A dense corpus (no tombstones) omits both — the bytes are identical to
// what earlier versions wrote.
//
// Files written before the LB_Triangle stages were removed (DESIGN.md §11)
// may also carry a reference block in the header:
//
//   option pivots <count>
//   pivot <v0> <v1> ... <v_{normal_len-1}>     (one line per reference)
//
// Both loaders skip these lines unread; the writer no longer emits them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "music/melody.h"
#include "qbh/qbh_system.h"
#include "util/env.h"
#include "util/status.h"

namespace humdex {

/// What LoadQbhDatabaseSalvage recovered and what it had to give up.
struct SalvageReport {
  std::size_t melodies_loaded = 0;
  std::size_t melodies_dropped = 0;  ///< unparsable melody blocks skipped
  bool crc_ok = false;  ///< v2 trailer present and valid (false for v1)

  /// True when every recovered melody kept the id the file assigned it
  /// (dropped blocks become tombstones instead of renumbering the corpus).
  /// False only when the id metadata itself was unrecoverable — then ids
  /// are dense-renumbered and must not be trusted by any layer that keys
  /// on them (the sharded engine quarantines such a shard instead of
  /// rejoining it with remapped ids).
  bool ids_stable = true;
};

/// Serialize a built or unbuilt system's corpus and options (v2 format).
std::string SerializeQbhDatabase(const QbhSystem& system);

/// Serialize an id-indexed corpus (slot == id, nullopt == tombstone) with
/// `options`. This is the checkpoint writer's entry point: it takes the raw
/// slots so QbhSystem::Checkpoint can serialize under its own writer lock
/// without re-entering locking accessors.
std::string SerializeQbhCorpus(const QbhOptions& options,
                               const std::vector<std::optional<Melody>>& slots);

/// Parse a database and return a *built* QbhSystem. Accepts v1 and v2;
/// a v2 body that fails its checksum is kCorruption.
Result<QbhSystem> ParseQbhDatabase(const std::string& text);

/// Best-effort parse of a damaged database: a failed checksum is tolerated
/// (reported via `report->crc_ok`), malformed option lines fall back to
/// defaults, and unparsable melody blocks are skipped and counted. Fails
/// only when no melody at all can be recovered.
Result<QbhSystem> ParseQbhDatabaseSalvage(const std::string& text,
                                          SalvageReport* report = nullptr);

/// File wrappers. `env` defaults to Env::Default(); loads retry transient
/// read faults with exponential backoff, saves are atomic and durable.
Status SaveQbhDatabase(const std::string& path, const QbhSystem& system,
                       Env* env = nullptr);
Result<QbhSystem> LoadQbhDatabase(const std::string& path, Env* env = nullptr);
Result<QbhSystem> LoadQbhDatabaseSalvage(const std::string& path,
                                         SalvageReport* report = nullptr,
                                         Env* env = nullptr);

}  // namespace humdex
