#include "workload/trace_stream.hh"

#include <cstring>
#include <fstream>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

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
          const char *what)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
        if (p >= end) {
            RNUMA_FATAL("truncated stream trace: varint runs off ",
                        what);
        }
        if (shift >= 64) {
            RNUMA_FATAL("corrupt stream trace: oversized varint in ",
                        what);
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

/** Per-CPU encoder state for the recorder. */
struct EncodeState
{
    std::vector<std::uint8_t> buf;
    Addr prev = 0;
    bool done = false;
};

void
encodeRef(EncodeState &st, const Ref &r)
{
    switch (r.kind) {
      case RefKind::Mem: {
        st.buf.push_back(kindMem | (r.write ? writeBit : 0));
        putVarint(st.buf,
                  zigzag(static_cast<std::int64_t>(r.addr) -
                         static_cast<std::int64_t>(st.prev)));
        putVarint(st.buf, r.think);
        st.prev = r.addr;
        break;
      }
      case RefKind::Barrier:
        st.buf.push_back(kindBarrier);
        break;
      case RefKind::InitTouch: {
        st.buf.push_back(kindInitTouch);
        putVarint(st.buf,
                  zigzag(static_cast<std::int64_t>(r.addr) -
                         static_cast<std::int64_t>(st.prev)));
        st.prev = r.addr;
        break;
      }
      case RefKind::End:
        st.done = true; // implicit in the format
        break;
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

std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint32_t
readU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace

void
recordStreamTrace(Workload &wl, const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        RNUMA_FATAL("cannot open '", path, "' for writing");

    Addr addrLimit = 0;
    if (auto *vec = dynamic_cast<const VectorWorkload *>(&wl))
        addrLimit = vec->addrLimit();

    putU64(os, streamTraceMagic);
    putU32(os, streamTraceVersion);
    putU32(os, static_cast<std::uint32_t>(wl.numCpus()));
    putU64(os, 0); // unused slot
    putU64(os, addrLimit);
    const std::string &name = wl.name();
    putU64(os, name.size());
    os.write(name.data(),
             static_cast<std::streamsize>(name.size()));

    // Drain round-robin in chunk-sized runs: the file's chunk order
    // then approximates replay order, so a replaying simulation
    // consumes the mapping roughly front to back.
    std::vector<EncodeState> state(wl.numCpus());
    bool anyLive = true;
    while (anyLive) {
        anyLive = false;
        for (CpuId c = 0; c < wl.numCpus(); ++c) {
            EncodeState &st = state[c];
            if (st.done)
                continue;
            while (!st.done && st.buf.size() < chunkTarget)
                encodeRef(st, wl.next(c));
            flushChunk(os, c, st);
            anyLive = anyLive || !st.done;
        }
    }
    os.flush();
    if (!os)
        RNUMA_FATAL("write to '", path, "' failed");
    wl.reset();
}

StreamTraceWorkload::StreamTraceWorkload(const std::string &path)
{
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        RNUMA_FATAL("cannot open stream trace '", path, "'");
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
        ::close(fd_);
        fd_ = -1;
        RNUMA_FATAL("cannot stat stream trace '", path, "'");
    }
    file_size_ = static_cast<std::size_t>(st.st_size);

    // 8 magic + 4 version + 4 ncpus + 8 unused + 8 addrLimit
    // + 8 nameLen
    constexpr std::size_t fixedHeader = 40;
    if (file_size_ < fixedHeader) {
        ::close(fd_);
        fd_ = -1;
        RNUMA_FATAL("truncated stream trace '", path,
                    "': shorter than the header");
    }
    void *m = ::mmap(nullptr, file_size_, PROT_READ, MAP_PRIVATE,
                     fd_, 0);
    if (m == MAP_FAILED) {
        ::close(fd_);
        fd_ = -1;
        RNUMA_FATAL("cannot mmap stream trace '", path, "'");
    }
    map_ = static_cast<const std::uint8_t *>(m);
    ::madvise(const_cast<std::uint8_t *>(map_), file_size_,
              MADV_SEQUENTIAL);

    auto bail = [&](const std::string &msg) {
        ::munmap(const_cast<std::uint8_t *>(map_), file_size_);
        ::close(fd_);
        map_ = nullptr;
        fd_ = -1;
        RNUMA_FATAL("stream trace '", path, "': ", msg);
    };
    if (readU64(map_) != streamTraceMagic)
        bail("bad magic (not a stream trace file)");
    std::uint32_t version = readU32(map_ + 8);
    if (version != streamTraceVersion) {
        bail(detail::concat("unsupported format version ", version,
                            " (expected ", streamTraceVersion, ")"));
    }
    std::uint32_t ncpus = readU32(map_ + 12);
    if (ncpus == 0 || ncpus > 4096)
        bail(detail::concat("implausible cpu count ", ncpus));
    addr_limit_ = readU64(map_ + 24);
    std::uint64_t nameLen = readU64(map_ + 32);
    if (nameLen > 4096 || fixedHeader + nameLen > file_size_)
        bail(detail::concat("implausible name length ", nameLen));
    name_.assign(reinterpret_cast<const char *>(map_) + fixedHeader,
                 nameLen);
    body_off_ = fixedHeader + static_cast<std::size_t>(nameLen);

    // Index every chunk in one forward pass. Replay then jumps
    // between a cpu's chunks directly instead of rescanning the body
    // — a rescan would touch the header page of every chunk it skips
    // and re-fault pages dropChunk() already returned to the OS (the
    // kernel maps multi-page folios per fault, so one touched header
    // re-residents a large slice of its dropped chunk).
    chunks_.assign(ncpus, {});
    {
        const std::uint8_t *end = map_ + file_size_;
        const std::uint8_t *p = map_ + body_off_;
        auto takeVarint = [&](const std::uint8_t *&q,
                              std::uint64_t &out) {
            out = 0;
            unsigned shift = 0;
            while (q < end && shift < 64) {
                std::uint8_t b = *q++;
                out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
                if (!(b & 0x80))
                    return true;
                shift += 7;
            }
            return false;
        };
        while (p < end) {
            std::uint64_t cpu = 0, len = 0;
            if (!takeVarint(p, cpu) || !takeVarint(p, len))
                bail("truncated chunk header");
            if (cpu >= ncpus)
                bail(detail::concat("chunk for out-of-range cpu ",
                                    cpu));
            if (static_cast<std::uint64_t>(end - p) < len)
                bail("truncated stream trace: chunk payload runs "
                     "off the file");
            chunks_[cpu].push_back(
                {static_cast<std::size_t>(p - map_),
                 static_cast<std::size_t>(len)});
            p += len;
        }
    }

    cursors_.resize(ncpus);
    initCursors();
}

StreamTraceWorkload::~StreamTraceWorkload()
{
    if (map_)
        ::munmap(const_cast<std::uint8_t *>(map_), file_size_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
StreamTraceWorkload::initCursors()
{
    drop_lo_ = 0;
    for (Cursor &cur : cursors_)
        cur = Cursor();
    for (CpuId c = 0; c < cursors_.size(); ++c)
        decodePending(cursors_[c]);
}

void
StreamTraceWorkload::reclaimBehind()
{
    // Return everything behind the slowest cursor to the OS so
    // resident memory stays bounded however long the trace is.
    // Per-chunk drops are NOT enough: the kernel maps multi-page
    // folios per fault, so decoding chunk N+1 can re-resident the
    // tail of an already-dropped chunk N, and that residue is O(file
    // size). Instead drop monotonically behind the minimum cursor
    // position, aligned down to the largest pagecache folio (PMD
    // size, 2 MB): folios are size-aligned in file offset, so no
    // future fault at or above the watermark can map pages below the
    // dropped boundary. Cursors never rescan (the chunk index was
    // built up front), so dropped pages stay dropped. Best-effort: a
    // failure just leaves pages resident.
    std::size_t watermark = file_size_;
    for (std::size_t c = 0; c < cursors_.size(); ++c) {
        const Cursor &cur = cursors_[c];
        std::size_t at;
        if (cur.payload)
            at = static_cast<std::size_t>(cur.payload - map_);
        else if (cur.chunk < chunks_[c].size())
            at = chunks_[c][cur.chunk].off;
        else
            at = file_size_;
        watermark = std::min(watermark, at);
    }
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    constexpr std::size_t pmd = std::size_t(2) << 20;
    const std::size_t align = page > pmd ? page : pmd;
    std::size_t boundary = watermark >= file_size_
                               ? file_size_
                               : (watermark & ~(align - 1));
    if (boundary <= drop_lo_)
        return;
    ::madvise(const_cast<std::uint8_t *>(map_) + drop_lo_,
              boundary - drop_lo_, MADV_DONTNEED);
    drop_lo_ = boundary;
}

bool
StreamTraceWorkload::nextChunk(Cursor &cur)
{
    std::size_t mine = static_cast<std::size_t>(&cur - cursors_.data());
    const std::vector<ChunkLoc> &mineChunks = chunks_[mine];
    if (cur.chunk >= mineChunks.size()) {
        cur.payload = nullptr;
        cur.len = cur.pos = 0;
        reclaimBehind();
        return false;
    }
    const ChunkLoc &loc = mineChunks[cur.chunk++];
    cur.payload = map_ + loc.off;
    cur.pos = 0;
    cur.len = loc.len;
    reclaimBehind();
    return true;
}

void
StreamTraceWorkload::decodePending(Cursor &cur)
{
    if (cur.pos >= cur.len && !nextChunk(cur)) {
        cur.hasPending = false;
        return;
    }
    const std::uint8_t *p = cur.payload + cur.pos;
    const std::uint8_t *end = cur.payload + cur.len;
    std::uint8_t ctrl = *p++;
    std::uint8_t kind = ctrl & 3;
    switch (kind) {
      case kindMem: {
        std::int64_t delta = unzigzag(getVarint(p, end, "a record"));
        std::uint64_t think = getVarint(p, end, "a record");
        cur.prev = static_cast<Addr>(
            static_cast<std::int64_t>(cur.prev) + delta);
        cur.pending = Ref::mem(cur.prev, (ctrl & writeBit) != 0,
                               static_cast<std::uint32_t>(think));
        break;
      }
      case kindBarrier:
        cur.pending = Ref::barrier();
        break;
      case kindInitTouch: {
        std::int64_t delta = unzigzag(getVarint(p, end, "a record"));
        cur.prev = static_cast<Addr>(
            static_cast<std::int64_t>(cur.prev) + delta);
        cur.pending = Ref::touchOf(cur.prev);
        break;
      }
      default:
        RNUMA_FATAL("corrupt stream trace: unknown record kind ",
                    static_cast<int>(kind));
    }
    cur.pos = static_cast<std::size_t>(p - cur.payload);
    cur.hasPending = true;
}

const Ref &
StreamTraceWorkload::next(CpuId cpu)
{
    RNUMA_ASSERT(cpu < cursors_.size(), "cpu ", cpu,
                 " out of range for trace '", name_, "'");
    Cursor &cur = cursors_[cpu];
    if (!cur.hasPending) {
        cur.current = Ref::end();
        return cur.current;
    }
    cur.current = cur.pending;
    decodePending(cur);
    return cur.current;
}

void
StreamTraceWorkload::reset()
{
    initCursors();
}

} // namespace rnuma
