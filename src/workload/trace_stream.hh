/**
 * @file
 * Binary reference traces: a compact, delta-encoded on-disk copy of
 * a Workload, for sharing reproducible inputs and
 * regression-testing protocol changes. This is the repository's only
 * trace format:
 *
 *  - header: magic "RNUMAST1", format version, cpu count, an unused
 *    8-byte slot (written 0, skipped on read), the address-space
 *    high-water mark (addrLimit, 0 = unknown), workload name;
 *  - body: a sequence of chunks `[varint cpu][varint len][records]`,
 *    written round-robin across CPUs in runs of about 64 KB;
 *  - records: one control byte (kind + write flag), then for memory
 *    references a zigzag-varint address delta against the CPU's
 *    previous address and a varint think time. Barriers are a single
 *    byte; End is implicit at stream exhaustion.
 *
 * Limits: a decoded think time must be at most Ref::maxThink (65535
 * cycles, the 16-bit think field) and every decoded address below
 * Ref::addrEnd (2^44, the 44-bit address field, which covers maxPages
 * pages of the largest legal page). The varints can encode more; the
 * loader rejects such a record with a diagnostic naming the file, cpu
 * and record instead of truncating it. A recorded workload always
 * fits, since its Refs hold the same fields.
 *
 * A loaded trace is a sealed Workload like a generated one, so a
 * Machine reads it in place the same way and replays it
 * bit-identically to the recorded source.
 */

#ifndef RNUMA_WORKLOAD_TRACE_STREAM_HH
#define RNUMA_WORKLOAD_TRACE_STREAM_HH

#include <cstdint>
#include <memory>
#include <string>

#include "workload/workload.hh"

namespace rnuma
{

/** Stream-trace format magic ("RNUMAST1") and current version. */
constexpr std::uint64_t streamTraceMagic = 0x524e554d41535431ULL;
constexpr std::uint32_t streamTraceVersion = 1;

/**
 * Write @p wl to a stream trace at @p path, with its addrLimit in the
 * header. Fatal on I/O errors.
 */
void recordStreamTrace(const Workload &wl, const std::string &path);

/**
 * Read the stream trace at @p path into a sealed Workload. A
 * non-zero header addrLimit is applied through setAddrLimit(), so an
 * address outside it is rejected here. Fatal (throwing under tests)
 * on a missing file, bad magic, unsupported version, implausible
 * header, a chunk or record that runs off the file, an oversized
 * varint, an unknown record kind, or a think time or address a Ref
 * cannot hold.
 */
std::unique_ptr<Workload> loadStreamTrace(const std::string &path);

} // namespace rnuma

#endif // RNUMA_WORKLOAD_TRACE_STREAM_HH
