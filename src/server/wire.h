#ifndef DPGRID_SERVER_WIRE_H_
#define DPGRID_SERVER_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/synopsis_catalog.h"
#include "geo/rect.h"
#include "nd/box_nd.h"
#include "obs/metrics.h"

namespace dpgrid {

// Length-prefixed binary wire protocol for the query server ("DPGW",
// protocol versions 1 and 2). Follows the snapshot codec's conventions
// (store/byte_io.h primitives, magic + version + checksummed payload):
//
//   offset  size  field
//   0       4     magic "DPGW"
//   4       4     u32 protocol version (1 or 2)
//   8       4     u32 op code (WireOp; responses echo the request's op)
//   12      8     u64 request id (echoed verbatim in the response)
//   20      8     u64 body size in bytes
//   28      8     u64 body checksum (see below)
//   36      -     body
//
// v1 and v2 share the header layout; the version selects the checksum
// algorithm. v1 checksums the body with FNV-1a 64 (SnapshotChecksum) —
// an inherently serial multiply chain that dominates large-frame cost.
// v2 stores CRC32C (common/crc32c.h) zero-extended into the u64 field:
// the SSE4.2 3-lane fold digests an order of magnitude faster. The
// version is negotiated per connection by the first client frame: the
// server answers every frame with the version that frame carried and
// rejects a version change mid-connection, so a v1 client sees a stream
// bitwise-identical to a v1-only server.
//
// Every response body starts with `u32 status, str message` (message empty
// on success), followed by the op-specific payload only when status is
// kOk. Request bodies are op-specific (see the codec functions below);
// integers are little-endian and strings/arrays length-prefixed, exactly
// as in the snapshot format. Framing damage (bad magic/version/op,
// oversized body, checksum mismatch) makes the rest of the stream
// untrustworthy, so the server answers with a kMalformedFrame error and
// closes the connection; a semantically bad body on a well-framed request
// only fails that request.

inline constexpr char kWireMagic[4] = {'D', 'P', 'G', 'W'};
inline constexpr uint32_t kWireProtocolV1 = 1;
inline constexpr uint32_t kWireProtocolV2 = 2;
/// The newest version this build speaks — what encoders default to.
inline constexpr uint32_t kWireProtocolVersion = kWireProtocolV2;
inline constexpr size_t kWireHeaderSize = 36;
/// Hard cap on a frame body; DecodeFrameHeader rejects bigger claims
/// before anything is allocated or read.
inline constexpr uint64_t kWireMaxBodyBytes = 64ull << 20;
/// Hard cap on query dimensionality (far above anything the guidelines
/// make useful; exists so a hostile frame cannot request absurd widths).
inline constexpr uint32_t kWireMaxDims = 32;

/// Operation codes. Responses carry the same op as the request they
/// answer.
///
/// kHealth and kMetrics are additive within protocol v1: a server
/// predating one of them answers such a frame with kMalformedFrame
/// ("unknown op code") and closes the connection — a probe against an
/// old server fails loudly instead of hanging, which is the degradation
/// a health check or metrics scrape wants.
enum class WireOp : uint32_t {
  kQueryBatch = 1,
  kListSynopses = 2,
  kStats = 3,
  kReload = 4,
  kHealth = 5,
  kMetrics = 6,
};

/// Short identifier for logs/metrics labels, e.g. "QUERY_BATCH".
const char* WireOpName(WireOp op);

/// Response status codes.
enum class WireStatus : uint32_t {
  kOk = 0,
  /// Unknown synopsis name, or a name whose slot has no published version.
  kNotFound = 1,
  /// The request body failed structural validation.
  kMalformedRequest = 2,
  /// Query dimensionality does not match the served synopsis.
  kWrongDims = 3,
  /// Batch exceeds the server's max_batch_queries.
  kTooLarge = 4,
  /// Frame-level damage (bad magic/version/op, checksum mismatch); the
  /// server closes the connection after sending this.
  kMalformedFrame = 5,
  /// Server-side failure unrelated to the request contents.
  kInternal = 6,
  /// The server shed this connection at admission (max_connections
  /// reached) before reading any request. The response echoes request id
  /// 0 under op kHealth and carries a "retry_after_ms=<n>" hint in its
  /// message; the server closes right after sending it.
  kOverloaded = 7,
};

/// Short identifier for logs/CLI output, e.g. "NOT_FOUND".
const char* WireStatusName(WireStatus status);

// --- framing ---------------------------------------------------------------

/// The body digest a frame of `version` carries: FNV-1a 64 for v1, CRC32C
/// (zero-extended to u64) for v2.
uint64_t WireBodyChecksum(uint32_t version, std::string_view body);

/// Just the kWireHeaderSize-byte header for `body` (magic, version, op,
/// request id, size, checksum) — lets a sender write header and body as
/// two buffers instead of concatenating a large payload.
std::string EncodeFrameHeader(WireOp op, uint64_t request_id,
                              std::string_view body,
                              uint32_t version = kWireProtocolVersion);

/// Allocation-free form: writes the header into a caller-provided
/// kWireHeaderSize-byte buffer (typically on the stack). The per-frame
/// sender path — one checksum, zero heap traffic.
void EncodeFrameHeaderTo(WireOp op, uint64_t request_id,
                         std::string_view body, char out[kWireHeaderSize],
                         uint32_t version = kWireProtocolVersion);

/// Wraps `body` in a frame header (magic, version, op, request id, size,
/// checksum).
std::string EncodeFrame(WireOp op, uint64_t request_id, std::string_view body,
                        uint32_t version = kWireProtocolVersion);

/// Validates exactly kWireHeaderSize header bytes. On success fills the
/// out-params; `max_body_bytes` lets a server enforce a cap below
/// kWireMaxBodyBytes. `version` (optional) reports which protocol version
/// the frame carries — the input to per-connection negotiation.
bool DecodeFrameHeader(std::string_view header, WireOp* op,
                       uint64_t* request_id, uint64_t* body_size,
                       uint64_t* body_checksum, std::string* error,
                       uint64_t max_body_bytes = kWireMaxBodyBytes,
                       uint32_t* version = nullptr);

/// Checks a fully read body against the header's checksum, using the
/// algorithm `version` selects.
bool VerifyFrameBody(std::string_view body, uint64_t expected_checksum,
                     uint32_t version, std::string* error);

/// One decoded frame.
struct WireFrame {
  WireOp op = WireOp::kQueryBatch;
  uint64_t request_id = 0;
  uint32_t version = kWireProtocolVersion;
  std::string body;
};

/// Decodes a complete frame from a buffer (header + body, no trailing
/// bytes). The streaming server uses DecodeFrameHeader/VerifyFrameBody
/// instead; this form serves tests and in-memory use.
bool DecodeFrame(std::string_view bytes, WireFrame* out, std::string* error);

// --- QUERY_BATCH -----------------------------------------------------------

/// A query batch addressed to one catalog name. For dims == 2 the queries
/// live in `queries`; for any other dimensionality in `queries_nd` (all
/// sharing `dims`).
struct QueryBatchRequest {
  std::string name;
  uint32_t dims = 2;
  std::vector<Rect> queries;
  std::vector<BoxNd> queries_nd;

  size_t count() const {
    return dims == 2 ? queries.size() : queries_nd.size();
  }
};

/// Body: str name, u32 dims, u64 count, then per query 2*dims f64
/// (lo per axis, then hi per axis; for 2-D that is xlo,ylo,xhi,yhi). The
/// queries are a raw little-endian f64 array: a 2-D batch moves as one
/// bulk copy of its Rects, an N-d batch as one copy per box's lo and hi.
std::string EncodeQueryBatchRequest(const std::string& name,
                                    std::span<const Rect> queries);
std::string EncodeQueryBatchRequestNd(const std::string& name, uint32_t dims,
                                      std::span<const BoxNd> queries);

/// Buffer-reusing forms: clear `*out` (keeping capacity) and encode into
/// it — the client's steady-state request path, which would otherwise
/// allocate a batch-sized string per frame.
void EncodeQueryBatchRequestTo(const std::string& name,
                               std::span<const Rect> queries,
                               std::string* out);
void EncodeQueryBatchRequestNdTo(const std::string& name, uint32_t dims,
                                 std::span<const BoxNd> queries,
                                 std::string* out);

/// Decodes a QUERY_BATCH body. A count above `max_queries` is rejected as
/// soon as the count field is read — before any per-query parsing — with
/// *reject_status (if given) set to kTooLarge; every other failure sets
/// it to kMalformedRequest.
///
/// Decodes directly into `*out`, reusing its string/vector capacity — a
/// connection that passes the same request object every frame parses
/// steady-state batches without allocating. On failure `*out` is left in
/// an unspecified (but valid) state.
bool DecodeQueryBatchRequest(std::string_view body, QueryBatchRequest* out,
                             std::string* error,
                             size_t max_queries = SIZE_MAX,
                             WireStatus* reject_status = nullptr);

struct QueryBatchResponse {
  WireStatus status = WireStatus::kOk;
  std::string message;
  /// The single snapshot version every answer in the batch came from.
  uint64_t version = 0;
  std::vector<double> answers;
};

/// OK body: u64 version, f64vec answers.
std::string EncodeQueryBatchOkBody(uint64_t version,
                                   std::span<const double> answers);

/// Buffer-reusing form: clears `*out` (keeping its capacity) and encodes
/// into it — the server's per-connection response path, which would
/// otherwise allocate a fresh answer-sized string per request.
void EncodeQueryBatchOkBodyTo(uint64_t version,
                              std::span<const double> answers,
                              std::string* out);

/// Decodes directly into `*out`, reusing its answer vector's capacity (the
/// answers are read with one bulk copy). On failure `*out` is left in an
/// unspecified (but valid) state.
bool DecodeQueryBatchResponse(std::string_view body, QueryBatchResponse* out,
                              std::string* error);

// --- LIST_SYNOPSES ---------------------------------------------------------

/// Request body: empty. OK body: u64 count, then per entry: str name,
/// u64 version, u32 dims, str synopsis_name, f64 epsilon, str label.
std::string EncodeListOkBody(std::span<const CatalogEntryInfo> entries);

struct ListResponse {
  WireStatus status = WireStatus::kOk;
  std::string message;
  std::vector<CatalogEntryInfo> entries;
};
bool DecodeListResponse(std::string_view body, ListResponse* out,
                        std::string* error);

// --- STATS -----------------------------------------------------------------

/// Per-server counters, as served by the STATS op.
///
/// The resilience counters (connections_shed and below) grew the STATS
/// body in-place within protocol v1: a pre-resilience client decoding a
/// new server's STATS response rejects it as trailing bytes. The repo
/// ships client and server together, so the strictness is kept — the
/// operator-visible failure beats silently dropping fields.
struct WireStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t malformed_frames = 0;
  uint64_t batches_answered = 0;
  uint64_t queries_answered = 0;
  uint64_t errors_returned = 0;
  uint64_t reloads_installed = 0;
  /// Connections rejected at admission because max_connections was
  /// reached (each got a kOverloaded response).
  uint64_t connections_shed = 0;
  /// Frames abandoned because the peer stalled past the read or write
  /// deadline mid-frame (slow-loris and stopped readers).
  uint64_t read_timeouts = 0;
  /// Connections reaped after sitting idle (no new frame) past
  /// idle_timeout_ms.
  uint64_t idle_timeouts = 0;
};

/// One WireStats counter: its wire/exposition name and where it lives in
/// the struct. kWireStatsFields is THE name source — the STATS codec,
/// `dpgrid_cli remote-stats`, and the Prometheus/JSON exposition all
/// iterate it, so adding a counter means adding exactly one table row
/// (and the struct field); nothing can silently drop it.
struct WireStatsField {
  const char* name;
  uint64_t WireStats::*field;
};

inline constexpr WireStatsField kWireStatsFields[] = {
    {"connections_accepted", &WireStats::connections_accepted},
    {"frames_received", &WireStats::frames_received},
    {"malformed_frames", &WireStats::malformed_frames},
    {"batches_answered", &WireStats::batches_answered},
    {"queries_answered", &WireStats::queries_answered},
    {"errors_returned", &WireStats::errors_returned},
    {"reloads_installed", &WireStats::reloads_installed},
    {"connections_shed", &WireStats::connections_shed},
    {"read_timeouts", &WireStats::read_timeouts},
    {"idle_timeouts", &WireStats::idle_timeouts},
};
inline constexpr size_t kNumWireStatsFields =
    sizeof(kWireStatsFields) / sizeof(kWireStatsFields[0]);

/// Request body: empty. OK body: the ten u64 counters in struct order.
std::string EncodeStatsOkBody(const WireStats& stats);

struct StatsResponse {
  WireStatus status = WireStatus::kOk;
  std::string message;
  WireStats stats;
};
bool DecodeStatsResponse(std::string_view body, StatsResponse* out,
                         std::string* error);

// --- RELOAD ----------------------------------------------------------------

/// Request body: empty. OK body: u64 versions installed.
std::string EncodeReloadOkBody(uint64_t installed);

struct ReloadResponse {
  WireStatus status = WireStatus::kOk;
  std::string message;
  uint64_t installed = 0;
};
bool DecodeReloadResponse(std::string_view body, ReloadResponse* out,
                          std::string* error);

// --- HEALTH ----------------------------------------------------------------

/// Lifecycle state the HEALTH op reports. A DRAINING server is finishing
/// in-flight frames and accepts no new connections — a router should stop
/// sending it traffic.
enum class ServerHealth : uint32_t {
  kServing = 0,
  kDraining = 1,
};

/// Short identifier for logs/CLI output, e.g. "DRAINING".
const char* ServerHealthName(ServerHealth state);

/// Request body: empty. OK body: u32 state, u64 active_connections.
std::string EncodeHealthOkBody(ServerHealth state,
                               uint64_t active_connections);

struct HealthResponse {
  WireStatus status = WireStatus::kOk;
  std::string message;
  ServerHealth state = ServerHealth::kServing;
  uint64_t active_connections = 0;
};
bool DecodeHealthResponse(std::string_view body, HealthResponse* out,
                          std::string* error);

// --- METRICS ---------------------------------------------------------------

/// Request body: empty. OK body:
///   u32 counter count (== kNumWireStatsFields), that many u64 counters
///     in kWireStatsFields order,
///   u64 slow_frame_us, u64 slow_frames, u64 engine_batches,
///   u64 engine_queries, u64 engine_batches_2d, u64 engine_queries_2d,
///   u64 engine_batches_nd, u64 engine_queries_nd,
///   u32 op count, per op: u32 op, str name, u64 requests, u64 errors,
///     u64 bytes_in, u64 bytes_out, histogram,
///   u32 stage count (== obs::kNumStages), that many histograms in
///     obs::Stage order,
///   u32 dataset count, per dataset: str name, u64 batches, u64 queries,
///     u64 errors, histogram,
///   u32 event count, per event: str name, u64 count, u64 last_unix_s,
///   u32 trace count, per trace: u64 request_id, u32 op, u32 queries,
///     str dataset, u64 unix_s, u32 stage count, that many u64 stage_us.
/// A histogram is: u64 count, u64 sum_us, u64 max_us, u32 bucket count
/// (== obs::kHistogramBuckets), that many u64 buckets.
std::string EncodeMetricsOkBody(const WireStats& stats,
                                const obs::MetricsSnapshot& metrics);

struct MetricsResponse {
  WireStatus status = WireStatus::kOk;
  std::string message;
  WireStats stats;
  obs::MetricsSnapshot metrics;
};
bool DecodeMetricsResponse(std::string_view body, MetricsResponse* out,
                           std::string* error);

// --- shared error body -----------------------------------------------------

/// `u32 status, str message` — the body of any non-OK response.
std::string EncodeErrorBody(WireStatus status, std::string_view message);

/// Extracts the "retry_after_ms=<n>" hint a kOverloaded message carries;
/// returns 0 when absent or garbled (hints are advisory — the retrying
/// client falls back to its own backoff schedule).
uint32_t ParseRetryAfterMs(std::string_view message);

}  // namespace dpgrid

#endif  // DPGRID_SERVER_WIRE_H_
