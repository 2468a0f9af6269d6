// Durable snapshots of the VerdictCache's canonical tier, so a server
// restart starts warm instead of re-deriving every verdict from
// scratch (docs/serving.md, "Crash recovery").
//
// Only the canonical tier is persisted: its keys are parse→serialize
// fixed points that identify specifications exactly, while raw-tier
// keys are arbitrary client bytes that refill from canonical hits.
// Only definitive verdicts live in the cache, so a snapshot can never
// resurrect a budget-dependent UNKNOWN/DEADLINE/RESOURCE outcome.
//
// The on-disk format is line-framed and self-checking:
//
//   XVCSNAP1\n
//   R <outcome> <fingerprint> <len_canonical> <len_note>
//     <len_witness> <len_core> <checksum>\n          (one line)
//   <canonical bytes><note bytes><witness bytes><core bytes>\n
//   ... more R records ...
//
// `outcome` is 1 (CONSISTENT) or 2 (INCONSISTENT); `checksum` is a
// 64-bit FNV-1a over the header fields and payload bytes, hex-encoded.
// The loader is paranoid by design: a record whose header is
// malformed, whose checksum disagrees, whose payload is truncated, or
// whose fingerprint no longer matches FingerprintText(canonical)
// (a stale snapshot from an older canonicalizer) is skipped
// individually — the loader resyncs at the next "\nR " boundary and
// keeps going, so one flipped bit costs one entry, not the warm start.
//
// Writes go through a temp file in the same directory followed by an
// atomic rename(), so a crash mid-write leaves the previous snapshot
// intact. Fault points `cache_snapshot_write` (fails the write before
// the temp file exists) and `cache_snapshot_read` (drops individual
// records on load) make both paths drillable (docs/robustness.md).
#ifndef XMLVERIFY_SERVE_SNAPSHOT_H_
#define XMLVERIFY_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <string>

#include "base/status.h"
#include "serve/verdict_cache.h"

namespace xmlverify {

struct SnapshotWriteStats {
  size_t records_written = 0;
  size_t bytes_written = 0;
};

struct SnapshotLoadStats {
  /// Records accepted into the cache.
  size_t records_loaded = 0;
  /// Records rejected individually: corrupt header, bad checksum,
  /// truncated payload, stale fingerprint, invariant violation, or an
  /// injected `cache_snapshot_read` fault.
  size_t records_skipped = 0;
};

/// Serializes the canonical tier of `cache` to `path` via a temp file
/// and atomic rename. Returns an error (leaving any previous snapshot
/// untouched) on IO failure or an armed `cache_snapshot_write` fault.
Status WriteVerdictSnapshot(const VerdictCache& cache, const std::string& path,
                            SnapshotWriteStats* stats = nullptr);

/// Loads `path` into `cache` (first-writer-wins against concurrent
/// inserts). A missing file is a clean cold start: OK with zero
/// counts. A present-but-unreadable file or a foreign header is an
/// error; anything wrong below the header granularity skips records
/// individually and still returns OK.
Result<SnapshotLoadStats> LoadVerdictSnapshot(VerdictCache* cache,
                                              const std::string& path);

}  // namespace xmlverify

#endif  // XMLVERIFY_SERVE_SNAPSHOT_H_
