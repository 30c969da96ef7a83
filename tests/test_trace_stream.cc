/**
 * @file
 * Tests for the streaming binary trace format
 * (workload/trace_stream.hh): record -> replay bit-identity against
 * the materialized source (in-order and under randomized per-CPU
 * interleaving), header metadata preservation, reset semantics,
 * rejection of corrupt/truncated/wrong-magic files, and the O(1)
 * resident-memory guarantee of mmap replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "workload/micro.hh"
#include "workload/registry.hh"
#include "workload/serving.hh"
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

void
expectSameRef(const Ref &a, const Ref &b, CpuId cpu, std::size_t i)
{
    ASSERT_EQ(a.kind, b.kind) << "cpu " << cpu << " entry " << i;
    ASSERT_EQ(a.addr, b.addr) << "cpu " << cpu << " entry " << i;
    ASSERT_EQ(a.write, b.write) << "cpu " << cpu << " entry " << i;
    ASSERT_EQ(a.think, b.think) << "cpu " << cpu << " entry " << i;
}

/** Record @p src, replay the file, and assert per-CPU in-order
 * bit-identity (plus End-forever). */
void
roundTrip(VectorWorkload &src, const char *file)
{
    std::string path = tempPath(file);
    recordStreamTrace(src, path);
    StreamTraceWorkload replay(path);

    EXPECT_EQ(replay.name(), src.name());
    EXPECT_EQ(replay.addrLimit(), src.addrLimit());
    ASSERT_EQ(replay.numCpus(), src.numCpus());
    for (CpuId c = 0; c < src.numCpus(); ++c) {
        for (std::size_t i = 0; i < src.size(c) + 3; ++i) {
            const Ref &got = replay.next(c);
            if (i < src.size(c))
                expectSameRef(src.at(c, i), got, c, i);
            else
                ASSERT_EQ(got.kind, RefKind::End);
        }
    }
    std::remove(path.c_str());
}

} // namespace

TEST(TraceStream, RoundTripMicroWorkloads)
{
    Params p = test::smallParams();
    auto pc = makeProducerConsumer(p, 2, 2);
    roundTrip(*pc, "pc.strace");
    auto rw = makeRwSharing(p, 3);
    roundTrip(*rw, "rw.strace");
}

TEST(TraceStream, RoundTripAppAndServingWorkloads)
{
    Params p = test::smallParams();
    for (const char *id :
         {"radix", "barnes", "zipf-serve", "tenants",
          "database-scan"}) {
        SCOPED_TRACE(id);
        roundTrip(*makeWorkload(id, p, 0.1, 3), "wl.strace");
    }
}

TEST(TraceStream, InterleavedConsumptionMatchesSource)
{
    // The simulator consumes CPU streams in arbitrary interleavings;
    // fuzz the cursor independence with a deterministic scramble.
    Params p = test::smallParams();
    auto src = makeZipfServe(p, 1.0, 17, "pages=24,requests=200");
    std::string path = tempPath("interleave.strace");
    recordStreamTrace(*src, path);
    StreamTraceWorkload replay(path);

    ASSERT_EQ(replay.numCpus(), src->numCpus());
    std::vector<std::size_t> pos(src->numCpus(), 0);
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    std::size_t done = 0;
    while (done < src->numCpus()) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        CpuId c = static_cast<CpuId>((lcg >> 33) % src->numCpus());
        // Bursts of 1-8 references per pick, like the event loop.
        std::size_t burst = 1 + ((lcg >> 20) & 7);
        for (std::size_t k = 0; k < burst; ++k) {
            const Ref &got = replay.next(c);
            if (pos[c] < src->size(c)) {
                expectSameRef(src->at(c, pos[c]), got, c, pos[c]);
                if (++pos[c] == src->size(c))
                    ++done;
            } else {
                ASSERT_EQ(got.kind, RefKind::End);
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceStream, ResetRewindsToTheBeginning)
{
    Params p = test::smallParams();
    auto src = makeProducerConsumer(p, 2, 3);
    std::string path = tempPath("reset.strace");
    recordStreamTrace(*src, path);
    StreamTraceWorkload replay(path);

    // Consume an uneven prefix, then rewind.
    for (int i = 0; i < 7; ++i)
        (void)replay.next(0);
    (void)replay.next(1);
    replay.reset();
    for (CpuId c = 0; c < src->numCpus(); ++c)
        for (std::size_t i = 0; i < src->size(c); ++i)
            expectSameRef(src->at(c, i), replay.next(c), c, i);
    std::remove(path.c_str());
}

TEST(TraceStream, RecordResetsTheSource)
{
    // recordStreamTrace drains the source; it must hand it back
    // rewound so the caller can run it immediately afterwards.
    Params p = test::smallParams();
    auto src = makeRwSharing(p, 2);
    std::string path = tempPath("rewind.strace");
    const Ref first = src->at(0, 0);
    recordStreamTrace(*src, path);
    expectSameRef(first, src->next(0), 0, 0);
    std::remove(path.c_str());
}

TEST(TraceStream, MissingFileIsFatal)
{
    EXPECT_THROW(
        StreamTraceWorkload("/nonexistent/missing.strace"),
        std::runtime_error);
}

TEST(TraceStream, WrongMagicIsFatal)
{
    std::string path = tempPath("junk.strace");
    std::ofstream out(path, std::ios::binary);
    const char junk[64] = "this is not a stream trace at all";
    out.write(junk, sizeof(junk));
    out.close();
    EXPECT_THROW(StreamTraceWorkload{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceStream, TruncatedHeaderIsFatal)
{
    Params p = test::smallParams();
    auto src = makeProducerConsumer(p, 2, 2);
    std::string path = tempPath("trunchdr.strace");
    recordStreamTrace(*src, path);
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes(16);
    in.read(bytes.data(), 16);
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 16);
    out.close();
    EXPECT_THROW(StreamTraceWorkload{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceStream, TruncatedBodyIsFatalAtDecodeTime)
{
    Params p = test::smallParams();
    auto src = makeZipfServe(p, 1.0, 1, "pages=16,requests=400");
    std::string path = tempPath("truncbody.strace");
    recordStreamTrace(*src, path);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::size_t full = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<char> bytes(full / 2);
    in.read(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    // Construction may succeed (the header is intact); walking the
    // body must hit the truncation fatally, never read junk.
    EXPECT_THROW(
        {
            StreamTraceWorkload replay(path);
            for (CpuId c = 0; c < replay.numCpus(); ++c) {
                for (std::size_t i = 0; i < src->size(c) + 1; ++i)
                    (void)replay.next(c);
            }
        },
        std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceStream, CorruptVersionIsFatal)
{
    Params p = test::smallParams();
    auto src = makeProducerConsumer(p, 2, 2);
    std::string path = tempPath("badver.strace");
    recordStreamTrace(*src, path);
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8); // the u32 version field follows the u64 magic
    const char ff = '\xff';
    f.write(&ff, 1);
    f.close();
    EXPECT_THROW(StreamTraceWorkload{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceStream, UnusedHeaderSlotIsWrittenZeroAndSkippedOnRead)
{
    // Bytes 16..23 once held the max think time. The writer now
    // writes 0 there and the reader ignores the slot, so traces
    // recorded with a value in it still load and replay unchanged.
    Params p = test::smallParams();
    auto src = makeProducerConsumer(p, 2, 2);
    std::string path = tempPath("slot.strace");
    recordStreamTrace(*src, path);
    {
        std::ifstream in(path, std::ios::binary);
        char slot[8];
        in.seekg(16);
        in.read(slot, sizeof slot);
        for (char c : slot)
            EXPECT_EQ(c, 0);
    }
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(16);
        const char old[8] = {4, 0, 0, 0, 0, 0, 0, 0};
        f.write(old, sizeof old);
    }
    StreamTraceWorkload replay(path);
    ASSERT_EQ(replay.numCpus(), src->numCpus());
    for (CpuId c = 0; c < src->numCpus(); ++c)
        for (std::size_t i = 0; i < src->size(c); ++i)
            expectSameRef(src->at(c, i), replay.next(c), c, i);
    std::remove(path.c_str());
}

namespace
{

/**
 * An on-the-fly generator that never materializes its stream: @p n
 * memory references per CPU with a pseudo-random walk over a 64 MB
 * span, plus periodic barriers. Used to record traces far larger
 * than the test's memory budget.
 */
class SyntheticFirehose : public Workload
{
  public:
    SyntheticFirehose(std::size_t ncpus, std::size_t n)
        : total_(n), pos_(ncpus, 0), state_(ncpus), pending_(ncpus)
    {
        for (std::size_t c = 0; c < ncpus; ++c)
            state_[c] = 0x1234 + c * 0x9e3779b9ULL;
        for (std::size_t c = 0; c < ncpus; ++c)
            advance(static_cast<CpuId>(c));
    }

    std::size_t numCpus() const override { return pos_.size(); }
    const Ref &
    next(CpuId cpu) override
    {
        current_ = pending_[cpu];
        advance(cpu);
        return current_;
    }
    void
    reset() override
    {
        for (std::size_t c = 0; c < pos_.size(); ++c) {
            pos_[c] = 0;
            state_[c] = 0x1234 + c * 0x9e3779b9ULL;
            advance(static_cast<CpuId>(c));
        }
    }
    const std::string &name() const override { return name_; }

  private:
    void
    advance(CpuId cpu)
    {
        if (pos_[cpu] > total_) {
            pending_[cpu] = Ref::end();
            return;
        }
        std::size_t i = pos_[cpu]++;
        if (i == total_) {
            pending_[cpu] = Ref::end();
            return;
        }
        std::uint64_t &s = state_[cpu];
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        if (i % 10000 == 9999) {
            pending_[cpu] = Ref::barrier();
            return;
        }
        Addr a = (s >> 17) % (64ULL << 20);
        pending_[cpu] =
            Ref::mem(a, (s & 15) == 0, 1 + ((s >> 8) & 3));
    }

    std::string name_ = "firehose";
    std::size_t total_;
    std::vector<std::size_t> pos_;
    std::vector<std::uint64_t> state_;
    std::vector<Ref> pending_;
    Ref current_;
};

/** Current resident set size, in bytes, from /proc/self/statm. */
std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t vm_pages = 0, rss_pages = 0;
    statm >> vm_pages >> rss_pages;
    return rss_pages * 4096;
}

} // namespace

TEST(TraceStream, ReplayResidentMemoryIsIndependentOfTraceLength)
{
    // Record a trace much larger than the decode working set (4 CPUs
    // x 1M refs; RNUMA_STREAM_SOAK scales it up for the manual
    // billions-scale soak), then replay it and assert RSS grows by a
    // small constant, not by anything proportional to the file.
    std::size_t per_cpu = 1000000;
    if (const char *soak = std::getenv("RNUMA_STREAM_SOAK"))
        per_cpu = static_cast<std::size_t>(std::atoll(soak));
    std::string path = tempPath("firehose.strace");
    {
        SyntheticFirehose src(4, per_cpu);
        recordStreamTrace(src, path);
    }
    std::size_t file_size = 0;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        file_size = static_cast<std::size_t>(in.tellg());
    }
    ASSERT_GT(file_size, 4u << 20); // big enough to mean something

    SyntheticFirehose expect(4, per_cpu);
    std::size_t rss_before = residentBytes();
    StreamTraceWorkload replay(path);
    std::uint64_t checked = 0;
    bool live = true;
    while (live) {
        live = false;
        for (CpuId c = 0; c < 4; ++c) {
            const Ref &got = replay.next(c);
            const Ref &want = expect.next(c);
            ASSERT_EQ(got.kind, want.kind) << "entry " << checked;
            ASSERT_EQ(got.addr, want.addr);
            ASSERT_EQ(got.write, want.write);
            ASSERT_EQ(got.think, want.think);
            if (got.kind != RefKind::End)
                live = true;
            ++checked;
        }
    }
    std::size_t rss_after = residentBytes();
    EXPECT_GE(checked, 4 * per_cpu);
    // The decode working set is ~one 64 KB chunk per CPU; allow
    // generous allocator slack but stay far below the file size.
    std::size_t growth =
        rss_after > rss_before ? rss_after - rss_before : 0;
    EXPECT_LT(growth, file_size / 2)
        << "replay RSS grew by " << growth << " of a " << file_size
        << "-byte trace";
    EXPECT_LT(growth, 8u << 20);
    std::remove(path.c_str());
}

} // namespace rnuma
