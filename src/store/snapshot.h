#ifndef DPGRID_STORE_SNAPSHOT_H_
#define DPGRID_STORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "grid/synopsis.h"
#include "nd/synopsis_nd.h"

namespace dpgrid {

// Versioned binary snapshot codec for synopses.
//
// A snapshot is a self-describing byte string:
//
//   offset  size  field
//   0       4     magic "DPGS"
//   4       4     u32 format version (kSnapshotFormatVersion)
//   8       4     u32 SynopsisKind
//   12      8     u64 payload size in bytes
//   20      8     u64 checksum of the payload: CRC-32C zero-extended
//   28      -     payload: SnapshotMeta, then the kind-specific body
//
// The payload stores the release and nothing derived from it: options,
// shapes and the noisy (post-inference) cell counts. Decoding rebuilds
// every prefix-sum index from those counts with the constructor the
// synopsis's own build uses, so a decoded synopsis answers
// bitwise-identically to the instance that was encoded.
//
// The encoder writes format 2 only. The decoder also reads format 1,
// which checksummed with FNV-1a (SnapshotChecksum) and stored each grid's
// prefix-sum corner array after its counts; those arrays are shape-checked
// and skipped.
//
// Decoding never trusts its input: any structural damage (bad magic,
// unknown version or kind, truncation, checksum mismatch, internally
// inconsistent payload, non-finite counts or bounds) returns a clean
// error.

/// Concrete synopsis type stored in a snapshot.
enum class SynopsisKind : uint32_t {
  kUniformGrid = 1,
  kAdaptiveGrid = 2,
  kHierarchyGrid = 3,
  kUniformGridNd = 4,
  kAdaptiveGridNd = 5,
  kHierarchyNd = 6,
  kCellSynopsis = 7,
};

inline constexpr uint32_t kSnapshotFormatVersion = 2;
inline constexpr char kSnapshotMagic[4] = {'D', 'P', 'G', 'S'};
inline constexpr size_t kSnapshotHeaderSize = 28;

/// Build provenance carried alongside the synopsis state.
struct SnapshotMeta {
  /// Total privacy budget the synopsis was built with (informational; the
  /// stored counts are already noisy).
  double epsilon = 0.0;
  /// Free-form label, e.g. the builder pipeline or epoch that produced it.
  std::string label;
};

/// A decoded snapshot: exactly one of `synopsis` (2-D kinds) or
/// `synopsis_nd` (N-d kinds) is set.
struct DecodedSnapshot {
  SynopsisKind kind = SynopsisKind::kUniformGrid;
  SnapshotMeta meta;
  std::unique_ptr<Synopsis> synopsis;
  std::unique_ptr<SynopsisNd> synopsis_nd;
};

/// Encodes a 2-D synopsis. The dynamic type must be UniformGrid,
/// AdaptiveGrid, HierarchyGrid, or CellSynopsis; returns false with *error
/// set for any other type.
bool EncodeSnapshot(const Synopsis& synopsis, const SnapshotMeta& meta,
                    std::string* bytes, std::string* error);

/// Encodes an N-d synopsis (UniformGridNd, AdaptiveGridNd, HierarchyNd).
bool EncodeSnapshot(const SynopsisNd& synopsis, const SnapshotMeta& meta,
                    std::string* bytes, std::string* error);

/// Decodes a format 1 or 2 snapshot. Returns false with
/// *error set (and *out untouched) on any malformed input; never aborts on
/// untrusted bytes.
bool DecodeSnapshot(std::string_view bytes, DecodedSnapshot* out,
                    std::string* error);

/// FNV-1a 64-bit checksum: the header checksum of format 1 snapshots and
/// of DPGW v1 frames.
uint64_t SnapshotChecksum(std::string_view payload);

}  // namespace dpgrid

#endif  // DPGRID_STORE_SNAPSHOT_H_
