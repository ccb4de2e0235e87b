#ifndef DPGRID_COMMON_CRC32C_H_
#define DPGRID_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace dpgrid {

// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the DPGW v2
// frame checksum and the snapshot format 2 checksum. Unlike the FNV-1a
// fold used by v1 frames and format 1 snapshots, whose multiply chain is
// inherently serial (~3 cycles/byte), CRC32C has a hardware instruction
// (SSE4.2 `crc32`) whose 3-cycle latency can be hidden by folding three
// independent lanes in parallel and merging them with a precomputed
// zero-block operator. The dispatch mirrors `frac_kernel.h`:
// the CPU is probed once at runtime and a portable table-driven fallback
// produces bit-identical digests everywhere else.

/// CRC-32C of `data` (standard init/final conditioning: Crc32c("123456789")
/// == 0xE3069283). Picks the hardware path when the CPU supports SSE4.2.
uint32_t Crc32c(std::string_view data);

/// Portable slice-by-8 table implementation. Same digest as the hardware
/// path by construction; exposed so tests can cross-check the two.
uint32_t Crc32cSoftware(std::string_view data);

/// True when the SSE4.2 kernel is compiled in and this CPU supports it.
bool Crc32cHardwareAvailable();

/// The 3-lane SSE4.2 kernel; falls back to the software digest when the
/// hardware path is unavailable, so callers may use it unconditionally.
uint32_t Crc32cHardware(std::string_view data);

}  // namespace dpgrid

#endif  // DPGRID_COMMON_CRC32C_H_
