#include "workload/trace_stream.hh"

#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/logging.hh"

namespace rnuma
{

namespace
{

/** Flush threshold for one chunk's worth of encoded records. */
constexpr std::size_t chunkTarget = 64 * 1024;

/** Record control byte: bits 0-1 kind, bit 2 write flag. */
constexpr std::uint8_t kindMem = 0;
constexpr std::uint8_t kindBarrier = 1;
constexpr std::uint8_t kindInitTouch = 2;
constexpr std::uint8_t writeBit = 4;

/** 8 magic + 4 version + 4 ncpus + 8 unused + 8 addrLimit + 8 nameLen */
constexpr std::size_t fixedHeader = 40;

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Decode a varint from [p, end); fatal on overrun or overflow. */
std::uint64_t
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          const std::string &path, const char *what)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
        if (p >= end) {
            RNUMA_FATAL("truncated stream trace '", path,
                        "': varint runs off ", what);
        }
        if (shift >= 64) {
            RNUMA_FATAL("corrupt stream trace '", path,
                        "': oversized varint in ", what);
        }
        std::uint8_t byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

void
putU32(std::ofstream &os, std::uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putU64(std::ofstream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
T
readField(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Per-CPU encoder state for the recorder. */
struct EncodeState
{
    std::vector<std::uint8_t> buf;
    Addr prev = 0;
    std::size_t next = 0; ///< index of the next entry to encode
};

void
encodeRef(EncodeState &st, const Ref &r)
{
    switch (r.kind) {
      case RefKind::Mem:
        st.buf.push_back(kindMem | (r.write ? writeBit : 0));
        putVarint(st.buf, zigzag(static_cast<std::int64_t>(r.addr -
                                                           st.prev)));
        putVarint(st.buf, r.think);
        st.prev = r.addr;
        break;
      case RefKind::Barrier:
        st.buf.push_back(kindBarrier);
        break;
      case RefKind::InitTouch:
        st.buf.push_back(kindInitTouch);
        putVarint(st.buf, zigzag(static_cast<std::int64_t>(r.addr -
                                                           st.prev)));
        st.prev = r.addr;
        break;
      case RefKind::End:
        break; // implicit in the format
    }
}

void
flushChunk(std::ofstream &os, CpuId cpu, EncodeState &st)
{
    if (st.buf.empty())
        return;
    std::vector<std::uint8_t> hdr;
    putVarint(hdr, cpu);
    putVarint(hdr, st.buf.size());
    os.write(reinterpret_cast<const char *>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
    os.write(reinterpret_cast<const char *>(st.buf.data()),
             static_cast<std::streamsize>(st.buf.size()));
    st.buf.clear();
}

} // namespace

void
recordStreamTrace(const Workload &wl, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        RNUMA_FATAL("cannot open '", path, "' for writing");

    putU64(os, streamTraceMagic);
    putU32(os, streamTraceVersion);
    putU32(os, static_cast<std::uint32_t>(wl.numCpus()));
    putU64(os, 0); // unused slot
    putU64(os, wl.addrLimit());
    const std::string &name = wl.name();
    putU64(os, name.size());
    os.write(name.data(),
             static_cast<std::streamsize>(name.size()));

    // Round-robin chunk-sized runs are the format's layout; keeping
    // it makes every recording of a workload the same bytes.
    std::vector<EncodeState> state(wl.numCpus());
    bool anyLive = true;
    while (anyLive) {
        anyLive = false;
        for (CpuId c = 0; c < wl.numCpus(); ++c) {
            EncodeState &st = state[c];
            while (st.next < wl.size(c) && st.buf.size() < chunkTarget)
                encodeRef(st, wl.at(c, st.next++));
            flushChunk(os, c, st);
            anyLive = anyLive || st.next < wl.size(c);
        }
    }
    os.flush();
    if (!os)
        RNUMA_FATAL("write to '", path, "' failed");
}

std::unique_ptr<Workload>
loadStreamTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        RNUMA_FATAL("cannot open stream trace '", path, "'");
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    const auto *base = reinterpret_cast<const std::uint8_t *>(bytes.data());
    const std::uint8_t *end = base + bytes.size();

    if (bytes.size() < fixedHeader) {
        RNUMA_FATAL("truncated stream trace '", path,
                    "': shorter than the header");
    }
    if (readField<std::uint64_t>(base) != streamTraceMagic) {
        RNUMA_FATAL("stream trace '", path,
                    "': bad magic (not a stream trace file)");
    }
    const auto version = readField<std::uint32_t>(base + 8);
    if (version != streamTraceVersion) {
        RNUMA_FATAL("stream trace '", path,
                    "': unsupported format version ", version,
                    " (expected ", streamTraceVersion, ")");
    }
    const auto ncpus = readField<std::uint32_t>(base + 12);
    if (ncpus == 0 || ncpus > 4096) {
        RNUMA_FATAL("stream trace '", path, "': implausible cpu count ",
                    ncpus);
    }
    const auto addrLimit = readField<std::uint64_t>(base + 24);
    const auto nameLen = readField<std::uint64_t>(base + 32);
    if (nameLen > 4096 || fixedHeader + nameLen > bytes.size()) {
        RNUMA_FATAL("stream trace '", path,
                    "': implausible name length ", nameLen);
    }
    auto wl = std::make_unique<Workload>(
        bytes.substr(fixedHeader, nameLen), ncpus);

    std::vector<Addr> prev(ncpus, 0);
    const std::uint8_t *p = base + fixedHeader + nameLen;
    while (p < end) {
        const std::uint64_t cpu = getVarint(p, end, path, "a chunk header");
        const std::uint64_t len = getVarint(p, end, path, "a chunk header");
        if (cpu >= ncpus) {
            RNUMA_FATAL("stream trace '", path,
                        "': chunk for out-of-range cpu ", cpu);
        }
        if (static_cast<std::uint64_t>(end - p) < len) {
            RNUMA_FATAL("truncated stream trace '", path,
                        "': chunk payload runs off the file");
        }
        const std::uint8_t *chunkEnd = p + len;
        const auto c = static_cast<CpuId>(cpu);
        Addr &addr = prev[c];
        // A decoded field a Ref cannot hold names the file, cpu and
        // record (the entry's index in that cpu's stream).
        auto nextAddr = [&] {
            addr += static_cast<Addr>(
                unzigzag(getVarint(p, chunkEnd, path, "a record")));
            if (addr >= Ref::addrEnd) {
                RNUMA_FATAL("stream trace '", path, "': cpu ", c,
                            " record ", wl->size(c), " has address ",
                            addr, ", past the ", addrBits,
                            "-bit reference address limit ",
                            Ref::addrEnd);
            }
            return addr;
        };
        while (p < chunkEnd) {
            const std::uint8_t ctrl = *p++;
            switch (ctrl & 3) {
              case kindMem: {
                const Addr a = nextAddr();
                const std::uint64_t think =
                    getVarint(p, chunkEnd, path, "a record");
                if (think > Ref::maxThink) {
                    RNUMA_FATAL("stream trace '", path, "': cpu ", c,
                                " record ", wl->size(c),
                                " has think time ", think,
                                ", past the ", Ref::thinkBits,
                                "-bit reference limit ", Ref::maxThink);
                }
                wl->push(c, Ref::mem(a, (ctrl & writeBit) != 0, think));
                break;
              }
              case kindBarrier:
                wl->push(c, Ref::barrier());
                break;
              case kindInitTouch:
                wl->push(c, Ref::touchOf(nextAddr()));
                break;
              default:
                RNUMA_FATAL("corrupt stream trace '", path,
                            "': unknown record kind ", ctrl & 3);
            }
        }
    }
    wl->seal();
    if (addrLimit != 0)
        wl->setAddrLimit(addrLimit);
    return wl;
}

} // namespace rnuma
