/** @file Unit tests for the workload framework and stream builder. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "workload/address_space.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** The message of the fatal error @p f raises; "" when it returns. */
template <class F>
std::string
fatalMessage(F &&f)
{
    try {
        f();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(AddressSpace, PageAlignedBumpAllocation)
{
    AddressSpace as(4096);
    Addr a = as.allocBytes(10);
    Addr b = as.allocBytes(4097);
    Addr c = as.allocPages(2);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 4096u);
    EXPECT_EQ(c, 3 * 4096u); // 4097 bytes rounded to two pages
    EXPECT_EQ(as.bytesAllocated(), 5 * 4096u);
}

TEST(Workload, NextAdvancesAndEndsForever)
{
    Workload wl("t", 2);
    wl.push(0, Ref::mem(64, false, 3));
    wl.push(0, Ref::mem(128, true, 0));
    wl.seal();
    EXPECT_EQ(wl.next(0).addr, 64u);
    EXPECT_EQ(wl.next(0).addr, 128u);
    EXPECT_EQ(wl.next(0).kind, RefKind::End);
    EXPECT_EQ(wl.next(0).kind, RefKind::End); // forever
    EXPECT_EQ(wl.next(1).kind, RefKind::End); // empty stream
}

TEST(Workload, ResetRewinds)
{
    Workload wl("t", 1);
    wl.push(0, Ref::mem(64, false, 0));
    wl.seal();
    EXPECT_EQ(wl.next(0).kind, RefKind::Mem);
    EXPECT_EQ(wl.next(0).kind, RefKind::End);
    wl.reset();
    EXPECT_EQ(wl.next(0).kind, RefKind::Mem);
}

TEST(Workload, BarrierGoesToEveryCpu)
{
    Workload wl("t", 3);
    wl.pushBarrierAll();
    wl.seal();
    for (CpuId c = 0; c < 3; ++c)
        EXPECT_EQ(wl.next(c).kind, RefKind::Barrier);
}

TEST(Workload, PushAfterSealPanics)
{
    Workload wl("t", 1);
    wl.seal();
    EXPECT_THROW(wl.push(0, Ref::barrier()), std::logic_error);
    EXPECT_THROW(wl.seal(), std::logic_error);
}

TEST(Workload, SizeAndAtIntrospection)
{
    Workload wl("t", 1);
    wl.push(0, Ref::touchOf(4096));
    wl.seal();
    EXPECT_EQ(wl.size(0), 2u); // touch + end marker
    EXPECT_EQ(wl.at(0, 0).kind, RefKind::InitTouch);
    EXPECT_EQ(wl.at(0, 1).kind, RefKind::End);
    EXPECT_EQ(wl.totalRefs(), 2u);
}

TEST(StreamBuilder, TouchRangeCoversEveryPage)
{
    Params p = test::smallParams();
    StreamBuilder b("t", p, 1);
    Addr base = b.allocPages(3);
    b.touchRange(0, base, 3 * p.pageSize);
    auto wl = b.finish();
    // 3 init touches + end.
    EXPECT_EQ(wl->size(0), 4u);
    EXPECT_EQ(wl->at(0, 0).kind, RefKind::InitTouch);
    EXPECT_EQ(wl->at(0, 2).addr, base + 2 * p.pageSize);
}

TEST(StreamBuilder, TouchRangeOfNoBytesTouchesNothing)
{
    Params p = test::smallParams();
    StreamBuilder b("t", p, 1);
    Addr base = b.allocPages(2);
    ASSERT_EQ(base, 0u);
    // At address 0, base + bytes - 1 would wrap to the top of the
    // address space; at an unaligned base, it would name the page
    // before the range.
    b.touchRange(0, base, 0);
    b.touchRange(1, base + p.pageSize + 100, 0);
    auto wl = b.finish();
    EXPECT_EQ(wl->size(0), 1u); // the End marker alone
    EXPECT_EQ(wl->size(1), 1u);
}

TEST(StreamBuilder, TopologyHelpers)
{
    Params p = test::smallParams();
    StreamBuilder b("t", p, 1);
    EXPECT_EQ(b.ncpus(), 4u);
    EXPECT_EQ(b.nnodes(), 2u);
    EXPECT_EQ(b.nodeOf(0), 0u);
    EXPECT_EQ(b.nodeOf(3), 1u);
}

TEST(ReserveBound, OverflowingOrOverCapBoundReservesNothing)
{
    EXPECT_EQ(reserveBound({10, 3}, 2), std::optional<std::size_t>(32));
    EXPECT_EQ(reserveBound({maxReserveEntries}, 0),
              std::optional<std::size_t>(maxReserveEntries));
    // The product overflows, the sum overflows, or the bound is one
    // past the cap: the streams are left to grow on demand.
    EXPECT_EQ(reserveBound({SIZE_MAX / 2, 3}, 1), std::nullopt);
    EXPECT_EQ(reserveBound({SIZE_MAX}, 1), std::nullopt);
    EXPECT_EQ(reserveBound({maxReserveEntries, 1}, 1), std::nullopt);
}

TEST(StreamBuilder, AppendingPastTheReservationPanicsInFinish)
{
    Params p = test::smallParams();
    auto finishMessage = [](StreamBuilder &b) -> std::string {
        try {
            b.finish();
        } catch (const std::logic_error &e) {
            return e.what();
        }
        return "";
    };

    // Room for one read and the End marker on every CPU; CPU 2
    // appends a second read.
    StreamBuilder over("short-bound", p, 1);
    Addr a = over.allocPages(1);
    over.reserveEach({1, 1}, 1);
    for (CpuId c = 0; c < over.ncpus(); ++c)
        over.read(c, a);
    over.read(2, a);
    EXPECT_NE(finishMessage(over).find(
                  "generator 'short-bound': cpu 2 holds 3 entries, "
                  "past the 2 it reserved"),
              std::string::npos);

    // A per-CPU bound counts from the stream's length when it is
    // made, and a stream that fills it exactly passes.
    StreamBuilder exact("exact", p, 1);
    a = exact.allocPages(1);
    exact.touch(1, a);
    exact.reserve(1, {2}, 1);
    exact.read(1, a);
    exact.write(1, a);
    EXPECT_EQ(finishMessage(exact), "");
}

TEST(StreamBuilder, RejectedBoundReservesAndChecksNothing)
{
    Params p = test::smallParams();
    StreamBuilder b("over-cap", p, 1);
    Addr a = b.allocPages(1);
    // The first bound would be exceeded, but the second replaces it
    // and is past maxReserveEntries: CPU 0 grows on demand, unchecked.
    b.reserve(0, {0}, 1);
    b.reserve(0, {maxReserveEntries, 1}, 1);
    for (int i = 0; i < 3; ++i)
        b.read(0, a);
    std::unique_ptr<Workload> wl;
    EXPECT_NO_THROW(wl = b.finish());
    EXPECT_EQ(wl->size(0), 4u);
}

TEST(StreamBuilder, PlacementCountsMatchTheTouches)
{
    Params p = test::smallParams();
    p.numNodes = 8;
    p.validate();
    for (std::size_t pages : {0, 1, 3, 7, 8, 13, 30}) {
        StreamBuilder b("t", p, 1);
        Addr base = b.allocPages(pages + 1);
        b.homeSliced(base, pages);
        b.homeRoundRobin(base, pages);
        b.touchRange(1, base + 100, pages * p.pageSize);
        auto wl = b.finish();
        std::size_t sliced_total = 0;
        for (NodeId n = 0; n < b.nnodes(); ++n) {
            CpuId lead = static_cast<CpuId>(n * p.cpusPerNode);
            std::size_t sliced = b.slicedPages(n, pages);
            sliced_total += sliced;
            EXPECT_EQ(wl->size(lead),
                      sliced + b.roundRobinPages(n, pages) + 1)
                << pages << " pages, node " << n;
            // Slices are contiguous and ascend node by node; the last
            // node takes the remainder.
            for (std::size_t i = 1; i < sliced; ++i)
                EXPECT_EQ(wl->at(lead, i).addr,
                          wl->at(lead, i - 1).addr + p.pageSize);
        }
        EXPECT_EQ(sliced_total, pages);
        // An unaligned range spans one page more than its length.
        EXPECT_EQ(wl->size(1), (pages ? pages + 1 : 0) + 1);
        EXPECT_EQ(b.pagesIn(base + 100, pages * p.pageSize),
                  pages ? pages + 1 : 0);
    }
}

TEST(StreamBuilder, ScaledHelper)
{
    EXPECT_EQ(scaled(100, 1.0), 100u);
    EXPECT_EQ(scaled(100, 0.25), 25u);
    EXPECT_EQ(scaled(3, 0.01), 1u); // never below one
}

TEST(StreamBuilder, ScaledClampsToStructuralMinimum)
{
    // Generators pass the smallest structure their loops need (for
    // example lu's 2x2 block grid), which wins over the scale...
    EXPECT_EQ(scaled(16, 0.01, 2), 2u);
    EXPECT_EQ(scaled(256, 0.001, 32), 32u);
    // ...but never shrinks a large enough value.
    EXPECT_EQ(scaled(16, 1.0, 2), 16u);
    EXPECT_EQ(scaled(16, 0.5, 0), 8u); // min 0 behaves as 1
    // Non-positive scales are configuration errors (fatal), not
    // clamps.
    EXPECT_THROW(scaled(16, 0.0), std::runtime_error);
    EXPECT_THROW(scaled(16, -1.0), std::runtime_error);
    // So are non-finite scales and products no count can hold: they
    // used to reach llround and come back as ~2^63-entry loops.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(scaled(16, std::nan("")), std::runtime_error);
    EXPECT_THROW(scaled(16, inf), std::runtime_error);
    EXPECT_THROW(scaled(16, -inf), std::runtime_error);
    EXPECT_THROW(scaled(16, 1e300), std::runtime_error);
    // A large but representable product still scales.
    EXPECT_EQ(scaled(16, 1e6), 16000000u);
}

TEST(Workload, MemRefCountCountsOnlyLoadsAndStores)
{
    Workload wl("w", 2);
    EXPECT_EQ(wl.memRefCount(), 0u);
    wl.push(0, Ref::touchOf(0));
    wl.pushBarrierAll();
    EXPECT_EQ(wl.memRefCount(), 0u);
    wl.push(0, Ref::mem(0, false, 1));
    wl.push(1, Ref::mem(64, true, 1));
    wl.seal();
    EXPECT_EQ(wl.memRefCount(), 2u);
}

TEST(Ref, PacksIntoOneWordAndRoundTripsAtTheFieldLimits)
{
    static_assert(sizeof(Ref) == 8);
    const Addr top = Ref::addrEnd - 1;
    const Ref m = Ref::mem(top, true, Ref::maxThink);
    EXPECT_EQ(m.kind, RefKind::Mem);
    EXPECT_TRUE(m.write);
    EXPECT_EQ(m.think, 65535u);
    EXPECT_EQ(m.addr, (Addr{1} << 44) - 1);
    // Bit 63 is the declared zero field.
    std::uint64_t word;
    std::memcpy(&word, &m, sizeof word);
    EXPECT_EQ(word >> 63, 0u);
    EXPECT_EQ(m.zero, 0u);
    const Ref r = Ref::mem(0, false, 0);
    EXPECT_EQ(r.kind, RefKind::Mem);
    EXPECT_FALSE(r.write);
    EXPECT_EQ(r.think, 0u);
    EXPECT_EQ(r.addr, 0u);
    const Ref t = Ref::touchOf(top);
    EXPECT_EQ(t.kind, RefKind::InitTouch);
    EXPECT_EQ(t.addr, top);
    EXPECT_EQ(Ref{}.kind, RefKind::End);
    EXPECT_EQ(Ref::barrier().kind, RefKind::Barrier);
}

TEST(Ref, ValuePastEachFieldIsFatalAndNamed)
{
    const std::string addr =
        fatalMessage([] { Ref::mem(Ref::addrEnd, false, 0); });
    EXPECT_NE(addr.find("44-bit address field"), std::string::npos)
        << addr;
    EXPECT_NE(addr.find("17592186044416"), std::string::npos) << addr;
    const std::string touch =
        fatalMessage([] { Ref::touchOf(Addr{1} << 50); });
    EXPECT_NE(touch.find("44-bit address field"), std::string::npos)
        << touch;
    const std::string think =
        fatalMessage([] { Ref::mem(0, false, Ref::maxThink + 1); });
    EXPECT_NE(think.find("think time 65536"), std::string::npos) << think;
    EXPECT_NE(think.find("16-bit think field"), std::string::npos)
        << think;
}

TEST(StreamBuilder, ThinkOrAddressPastTheRefFieldIsFatal)
{
    Params p = test::smallParams();
    StreamBuilder b("t", p, 1);
    const Addr base = b.allocPages(1);
    b.read(0, base, 65535);
    b.write(1, base + p.blockSize, 65535);
    EXPECT_NE(fatalMessage([&] { b.read(0, 0, 65536); })
                  .find("16-bit think field"),
              std::string::npos);
    EXPECT_NE(fatalMessage([&] { b.write(0, Ref::addrEnd, 1); })
                  .find("44-bit address field"),
              std::string::npos);
    EXPECT_NE(fatalMessage([&] { b.touch(0, Ref::addrEnd); })
                  .find("44-bit address field"),
              std::string::npos);
    auto wl = b.finish();
    EXPECT_EQ(wl->at(0, 0).think, 65535u);
    EXPECT_EQ(wl->at(1, 0).addr, base + p.blockSize);
    EXPECT_EQ(wl->size(0), 2u); // the rejected entries were not pushed
}

TEST(Workload, AddrLimitAuditNamesTheFirstOffender)
{
    auto build = [] {
        Workload wl("w", 3);
        wl.push(0, Ref::touchOf(0));
        wl.push(0, Ref::mem(100, false, 1));
        wl.pushBarrierAll();
        wl.push(1, Ref::mem(64, false, 1));
        wl.push(1, Ref::mem(4096, true, 1)); // cpu 1 entry 2
        wl.push(1, Ref::mem(8192, true, 1));
        wl.push(2, Ref::touchOf(5000)); // a later cpu's offender
        wl.seal();
        return wl;
    };
    // One past the highest address passes; the highest itself fails.
    Workload ok = build();
    ok.setAddrLimit(8193);
    EXPECT_EQ(ok.addrLimit(), 8193u);
    Workload bad = build();
    const std::string msg = fatalMessage([&] { bad.setAddrLimit(4096); });
    EXPECT_NE(msg.find("workload 'w': cpu 1 entry 2 touches 4096 beyond "
                       "its 4096-byte address limit"),
              std::string::npos)
        << msg;
    EXPECT_EQ(bad.addrLimit(), 0u);
}

TEST(Workload, AddrLimitAuditEdges)
{
    // Barriers and End markers carry no address: any limit passes.
    Workload none("n", 2);
    none.pushBarrierAll();
    none.seal();
    none.setAddrLimit(0);
    // Address 0 still counts: a zero limit rejects it.
    Workload zero("z", 1);
    zero.push(0, Ref::mem(0, false, 1));
    zero.seal();
    EXPECT_NE(fatalMessage([&] { zero.setAddrLimit(0); })
                  .find("cpu 0 entry 0 touches 0"),
              std::string::npos);
    // The highest representable address: its +1 is Ref::addrEnd.
    Workload top("t", 1);
    top.push(0, Ref::touchOf(Ref::addrEnd - 1));
    top.seal();
    EXPECT_NE(fatalMessage([&] { top.setAddrLimit(Ref::addrEnd - 1); })
                  .find("cpu 0 entry 0"),
              std::string::npos);
    top.setAddrLimit(Ref::addrEnd);
    EXPECT_EQ(top.addrLimit(), Ref::addrEnd);
}

} // namespace rnuma
