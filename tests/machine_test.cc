/**
 * @file
 * Machine model tests: latencies, the dependence-delay rules of
 * Section 2 (WAR shortening, register-pair skew, asymmetric bypass,
 * store bypass, WAW write ordering), and function-unit occupancy.
 */

#include <gtest/gtest.h>

#include "ir/parser.hh"
#include "machine/function_unit.hh"
#include "machine/presets.hh"
#include "support/logging.hh"

namespace sched91
{
namespace
{

TEST(Machine, Figure1Latencies)
{
    MachineModel m = figure1Machine();
    EXPECT_EQ(m.latency(InstClass::FpDiv), 20); // DIVF
    EXPECT_EQ(m.latency(InstClass::FpAdd), 4);  // ADDF
    EXPECT_EQ(m.warDelay, 1);
}

TEST(Machine, RawDelayIsParentLatency)
{
    MachineModel m = sparcstation2();
    Program p = parseAssembly("fdivd %f0, %f2, %f4\nfaddd %f4, %f6, %f8\n");
    EXPECT_EQ(m.depDelay(p[0], p[1], DepKind::RAW, Resource::fpReg(4)), 20);
}

TEST(Machine, WarDelayIsShort)
{
    MachineModel m = sparcstation2();
    Program p = parseAssembly("fdivd %f0, %f2, %f4\nfaddd %f6, %f8, %f0\n");
    EXPECT_EQ(m.depDelay(p[0], p[1], DepKind::WAR, Resource::fpReg(0)), 1);
}

TEST(Machine, WawEnforcesWriteOrder)
{
    MachineModel m = sparcstation2();
    Program p = parseAssembly("fdivd %f0, %f2, %f4\nfmovs %f6, %f4\n");
    // 20-cycle producer followed by a 1-cycle producer of the same
    // register: the second write must wait 20 - 1 + 1 cycles.
    EXPECT_EQ(m.depDelay(p[0], p[1], DepKind::WAW, Resource::fpReg(4)), 20);
    // Reversed latencies clamp at 1.
    EXPECT_EQ(m.depDelay(p[1], p[0], DepKind::WAW, Resource::fpReg(4)), 1);
}

TEST(Machine, PairSkewDelaysOddHalf)
{
    MachineModel m = rs6000Like();
    ASSERT_TRUE(m.pairSkew);
    Program p = parseAssembly("lddf [%o0], %f4\nfadds %f5, %f6, %f8\n");
    int even = m.depDelay(p[0], p[1], DepKind::RAW, Resource::fpReg(4));
    int odd = m.depDelay(p[0], p[1], DepKind::RAW, Resource::fpReg(5));
    EXPECT_EQ(odd, even + 1);
}

TEST(Machine, AsymmetricBypassPenalizesSecondOperand)
{
    MachineModel m = rs6000Like();
    Program p = parseAssembly(
        "fmuls %f0, %f1, %f2\n"
        "fadds %f2, %f3, %f4\n"  // %f2 as first source
        "fadds %f3, %f2, %f5\n"); // %f2 as second source
    int first = m.depDelay(p[0], p[1], DepKind::RAW, Resource::fpReg(2));
    int second = m.depDelay(p[0], p[2], DepKind::RAW, Resource::fpReg(2));
    EXPECT_EQ(second, first + 1);
}

TEST(Machine, StoreBypassShortensRaw)
{
    MachineModel m = rs6000Like();
    ASSERT_GT(m.storeBypassSaving, 0);
    Program p = parseAssembly(
        "fmuld %f0, %f2, %f4\n"
        "faddd %f4, %f6, %f8\n"
        "stdf %f4, [%o0]\n");
    int to_arith = m.depDelay(p[0], p[1], DepKind::RAW, Resource::fpReg(4));
    int to_store = m.depDelay(p[0], p[2], DepKind::RAW, Resource::fpReg(4));
    EXPECT_LT(to_store, to_arith);
}

TEST(Machine, DelayNeverBelowOne)
{
    MachineModel m = sparcstation2();
    Program p = parseAssembly("add %g1, %g2, %g3\nadd %g3, %g4, %g5\n");
    EXPECT_GE(m.depDelay(p[0], p[1], DepKind::RAW, Resource::intReg(3)), 1);
    EXPECT_GE(m.depDelay(p[0], p[1], DepKind::CTRL, Resource()), 1);
}

TEST(Machine, FuMapping)
{
    MachineModel m = sparcstation2();
    EXPECT_EQ(m.fuFor(InstClass::FpDiv), FuKind::FpDivSqrt);
    EXPECT_EQ(m.fuFor(InstClass::FpSqrt), FuKind::FpDivSqrt);
    EXPECT_EQ(m.fuFor(InstClass::Load), FuKind::MemPort);
    EXPECT_EQ(m.fuFor(InstClass::IntAlu), FuKind::IntAlu);
}

TEST(Machine, NonPipelinedUnitsBusyFullLatency)
{
    MachineModel m = sparcstation2();
    EXPECT_EQ(m.fuBusyCycles(InstClass::FpDiv), m.latency(InstClass::FpDiv));
    EXPECT_EQ(m.fuBusyCycles(InstClass::FpAdd), 1); // pipelined
}

TEST(FuState, OccupancyBlocksReuse)
{
    MachineModel m = sparcstation2();
    FuState fus(m);
    EXPECT_EQ(fus.earliestFree(FuKind::FpDivSqrt, 0), 0);
    fus.occupy(InstClass::FpDiv, 0);
    EXPECT_EQ(fus.earliestFree(FuKind::FpDivSqrt, 0), 20);
    EXPECT_EQ(fus.earliestFree(FuKind::FpAdd, 0), 0);
}

TEST(FuState, PooledUnits)
{
    MachineModel m = sparcstation2();
    m.fuDesc(FuKind::FpDivSqrt).count = 2;
    FuState fus(m);
    fus.occupy(InstClass::FpDiv, 0);
    EXPECT_EQ(fus.earliestFree(FuKind::FpDivSqrt, 0), 0); // second unit
    fus.occupy(InstClass::FpDiv, 0);
    EXPECT_EQ(fus.earliestFree(FuKind::FpDivSqrt, 0), 20);
}

TEST(FuState, ResetClears)
{
    MachineModel m = sparcstation2();
    FuState fus(m);
    fus.occupy(InstClass::FpDiv, 5);
    fus.reset();
    EXPECT_EQ(fus.earliestFree(FuKind::FpDivSqrt, 0), 0);
}

TEST(FuState, PoolsBeyondTheInlineUnitsStayIndependent)
{
    // 40 units do not fit inline: the state keeps them on the heap,
    // and a copy (a search-state snapshot) owns its own.
    MachineModel m = sparcstation2();
    m.fuDesc(FuKind::IntAlu).count = 32;
    m.fuDesc(FuKind::FpDivSqrt).count = 2;
    FuState fus(m);
    fus.occupy(InstClass::FpDiv, 0);
    FuState snapshot = fus;
    fus.occupy(InstClass::FpDiv, 0);
    EXPECT_EQ(fus.earliestFree(FuKind::FpDivSqrt, 0), 20);
    EXPECT_EQ(snapshot.earliestFree(FuKind::FpDivSqrt, 0), 0);
    EXPECT_EQ(fus.maxBusyUntil(FuKind::IntAlu), 0);
    fus = snapshot;
    EXPECT_EQ(fus.earliestFree(FuKind::FpDivSqrt, 0), 0);
}

TEST(Presets, LookupByName)
{
    EXPECT_EQ(presetByName("sparcstation2").name, "sparcstation2");
    EXPECT_EQ(presetByName("rs6000like").asymmetricBypass, true);
    EXPECT_EQ(presetByName("superscalar2").issueWidth, 2);
    EXPECT_THROW(presetByName("cray"), FatalError);
}

} // namespace
} // namespace sched91
