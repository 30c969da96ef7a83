/**
 * @file
 * Tests for the binary trace format (workload/trace_stream.hh):
 * record -> load bit-identity against the generated source, header
 * metadata preservation, rejection of corrupt/truncated/wrong-magic
 * files, of addresses past the recorded addrLimit and of think times
 * or addresses a Ref cannot hold, and a truncation and byte-flip fuzz
 * of the loader.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "workload/micro.hh"
#include "workload/registry.hh"
#include "workload/trace_stream.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Assert @p got holds exactly @p want's entries, name and addrLimit. */
void
expectSameWorkload(const Workload &want, const Workload &got)
{
    EXPECT_EQ(got.name(), want.name());
    EXPECT_EQ(got.addrLimit(), want.addrLimit());
    ASSERT_EQ(got.numCpus(), want.numCpus());
    for (CpuId c = 0; c < want.numCpus(); ++c) {
        ASSERT_EQ(got.size(c), want.size(c)) << "cpu " << c;
        for (std::size_t i = 0; i < want.size(c); ++i) {
            const Ref &a = want.at(c, i);
            const Ref &b = got.at(c, i);
            ASSERT_EQ(a.kind, b.kind) << "cpu " << c << " entry " << i;
            ASSERT_EQ(a.addr, b.addr) << "cpu " << c << " entry " << i;
            ASSERT_EQ(a.write, b.write) << "cpu " << c << " entry " << i;
            ASSERT_EQ(a.think, b.think) << "cpu " << c << " entry " << i;
        }
    }
}

void
putVarint(std::string &out, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    out.push_back(static_cast<char>(v));
}

/** One Mem record: control byte, zigzag address delta, think. */
std::string
memRecord(std::int64_t delta, std::uint64_t think)
{
    std::string r(1, '\0');
    putVarint(r, (static_cast<std::uint64_t>(delta) << 1) ^
                     static_cast<std::uint64_t>(delta >> 63));
    putVarint(r, think);
    return r;
}

/**
 * Write a trace of @p ncpus cpus, no addrLimit and the hand-built
 * chunk @p records for @p cpu to @p path; return the load's fatal
 * message ("" when it loads).
 */
std::string
loadHandBuilt(const std::string &path, std::uint32_t ncpus, CpuId cpu,
              const std::string &records)
{
    Workload empty("h", ncpus);
    empty.seal();
    recordStreamTrace(empty, path);
    std::string bytes = readBytes(path);
    putVarint(bytes, cpu);
    putVarint(bytes, records.size());
    writeBytes(path, bytes + records);
    try {
        (void)loadStreamTrace(path);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** Record @p src, load the file, and assert bit-identity. */
void
roundTrip(const Workload &src, const char *file)
{
    std::string path = tempPath(file);
    recordStreamTrace(src, path);
    expectSameWorkload(src, *loadStreamTrace(path));
    std::remove(path.c_str());
}

} // namespace

TEST(TraceStream, RoundTripMicroWorkloads)
{
    Params p = test::smallParams();
    roundTrip(*makeProducerConsumer(p, 2, 2), "pc.strace");
    roundTrip(*makeRwSharing(p, 3), "rw.strace");
}

TEST(TraceStream, RoundTripAppAndServingWorkloads)
{
    Params p = test::smallParams();
    for (const char *id :
         {"radix", "barnes", "zipf-serve", "phase-shift",
          "database-scan"}) {
        SCOPED_TRACE(id);
        roundTrip(*makeWorkload(id, p, 0.1, 3), "wl.strace");
    }
}

TEST(TraceStream, MissingFileIsFatal)
{
    EXPECT_THROW(loadStreamTrace("/nonexistent/missing.strace"),
                 std::runtime_error);
}

TEST(TraceStream, WrongMagicIsFatal)
{
    std::string path = tempPath("junk.strace");
    writeBytes(path, std::string("this is not a stream trace at all") +
                         std::string(31, '\0'));
    EXPECT_THROW(loadStreamTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceStream, CorruptVersionIsFatal)
{
    Params p = test::smallParams();
    std::string path = tempPath("badver.strace");
    recordStreamTrace(*makeProducerConsumer(p, 2, 2), path);
    std::string bytes = readBytes(path);
    bytes[8] = '\xff'; // the u32 version field follows the u64 magic
    writeBytes(path, bytes);
    EXPECT_THROW(loadStreamTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceStream, UnusedHeaderSlotIsWrittenZeroAndSkippedOnRead)
{
    // Bytes 16..23 once held the max think time. The writer now
    // writes 0 there and the reader ignores the slot, so traces
    // recorded with a value in it still load unchanged.
    Params p = test::smallParams();
    auto src = makeProducerConsumer(p, 2, 2);
    std::string path = tempPath("slot.strace");
    recordStreamTrace(*src, path);
    std::string bytes = readBytes(path);
    EXPECT_EQ(bytes.substr(16, 8), std::string(8, '\0'));
    bytes[16] = 4;
    writeBytes(path, bytes);
    expectSameWorkload(*src, *loadStreamTrace(path));
    std::remove(path.c_str());
}

TEST(TraceStream, AddressDeltaPastAddrLimitIsFatal)
{
    // One cpu, one read of 0x40 under a 0x1000-byte limit. Layout:
    // 40-byte fixed header, name "t", chunk header [cpu 0][len 4],
    // then the record: ctrl 0, delta varint {0x80, 0x01} (zigzag of
    // +0x40), think 0.
    Workload src("t", 1);
    src.push(0, Ref::mem(0x40, false, 0));
    src.seal();
    src.setAddrLimit(0x1000);
    std::string path = tempPath("delta.strace");
    recordStreamTrace(src, path);
    std::string bytes = readBytes(path);
    ASSERT_EQ(bytes.size(), 47u);
    ASSERT_EQ(bytes[45], '\x01');
    expectSameWorkload(src, *loadStreamTrace(path));

    bytes[45] = '\x7f'; // delta +0x1fc0: past the limit
    writeBytes(path, bytes);
    EXPECT_THROW(loadStreamTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceStream, RoundTripAtTheRefFieldLimits)
{
    Workload src("limits", 2);
    src.push(0, Ref::touchOf(Ref::addrEnd - 1));
    src.push(0, Ref::mem(Ref::addrEnd - 1, true, Ref::maxThink));
    src.push(1, Ref::mem(0, false, Ref::maxThink));
    src.push(1, Ref::mem(Ref::addrEnd - 1, false, 0));
    src.push(1, Ref::mem(0, true, 1)); // the largest backward delta
    src.seal();
    src.setAddrLimit(Ref::addrEnd);
    roundTrip(src, "limits.strace");
}

TEST(TraceStream, ThinkPastTheRefFieldIsFatalAndNamed)
{
    // The varint holds any 64-bit think time; a Ref holds 16 bits.
    const std::string path = tempPath("think.strace");
    EXPECT_EQ(loadHandBuilt(path, 2, 1, memRecord(64, 65535)), "");
    const std::string msg = loadHandBuilt(
        path, 2, 1, memRecord(64, 1) + memRecord(0, 65536));
    EXPECT_NE(msg.find("stream trace '" + path + "': cpu 1 record 1 "
                       "has think time 65536, past the 16-bit"),
              std::string::npos)
        << msg;
    // The old loader cast a think above 2^32 - 1 to 32 bits.
    EXPECT_NE(loadHandBuilt(path, 1, 0, memRecord(64, 1ull << 32))
                  .find("think time 4294967296"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceStream, AddressPastTheRefFieldIsFatalAndNamed)
{
    const std::string path = tempPath("addr.strace");
    const std::int64_t end = static_cast<std::int64_t>(Ref::addrEnd);
    EXPECT_EQ(loadHandBuilt(path, 2, 1, memRecord(end - 1, 0)), "");
    const std::string msg = loadHandBuilt(
        path, 2, 1, memRecord(64, 0) + memRecord(end - 64, 0));
    EXPECT_NE(msg.find("stream trace '" + path + "': cpu 1 record 1 "
                       "has address 17592186044416, past the 44-bit"),
              std::string::npos)
        << msg;
    // A delta below address 0 wraps past the field too.
    EXPECT_NE(loadHandBuilt(path, 1, 0, memRecord(64, 0) +
                                            memRecord(-128, 0))
                  .find("cpu 0 record 1 has address"),
              std::string::npos);
    // So does an init touch (control byte 2, delta only).
    std::string touch(1, '\x02');
    putVarint(touch, static_cast<std::uint64_t>(end) << 1);
    EXPECT_NE(loadHandBuilt(path, 1, 0, touch)
                  .find("cpu 0 record 0 has address 17592186044416"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceStream, EveryTruncationAndByteFlipLoadsOrIsRejected)
{
    // Every prefix of a small trace, and every single-byte XOR with
    // 0x01, 0x80 and 0xff, must either load or be rejected as a
    // fatal error (std::runtime_error under tests). A panic, crash,
    // out-of-bounds read (ASan) or UB (UBSan) fails the test.
    Params p = test::smallParams();
    std::string path = tempPath("fuzz.strace");
    recordStreamTrace(*makeProducerConsumer(p, 2, 2), path);
    const std::string good = readBytes(path);
    std::size_t rejected = 0;
    auto tryLoad = [&](const std::string &bytes) {
        writeBytes(path, bytes);
        try {
            (void)loadStreamTrace(path);
        } catch (const std::runtime_error &) {
            ++rejected;
        }
    };
    for (std::size_t n = 0; n < good.size(); ++n)
        tryLoad(good.substr(0, n));
    // Every truncated header or body is rejected at load. The trace
    // is one chunk per cpu, so the only prefixes that are themselves
    // valid traces end at a chunk boundary: after the header or
    // after one of the first numCpus() - 1 chunks.
    EXPECT_EQ(rejected, good.size() - p.numCpus());
    for (std::size_t i = 0; i < good.size(); ++i) {
        for (char mask : {'\x01', '\x80', '\xff'}) {
            std::string bad = good;
            bad[i] = static_cast<char>(bad[i] ^ mask);
            tryLoad(bad);
        }
    }
    std::remove(path.c_str());
}

} // namespace rnuma
