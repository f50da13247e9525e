/**
 * @file
 * Unit tests for the IR layer: resources, operands, instructions, the
 * assembly parser, and programs.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/instruction.hh"
#include "ir/operand.hh"
#include "ir/parser.hh"
#include "support/logging.hh"
#include "ir/program.hh"
#include "ir/resource.hh"

namespace sched91
{
namespace
{

TEST(Resource, ParseBanks)
{
    EXPECT_EQ(parseRegister("%g3"), Resource::intReg(3));
    EXPECT_EQ(parseRegister("%o2"), Resource::intReg(10));
    EXPECT_EQ(parseRegister("%l7"), Resource::intReg(23));
    EXPECT_EQ(parseRegister("%i0"), Resource::intReg(24));
    EXPECT_EQ(parseRegister("%f12"), Resource::fpReg(12));
    EXPECT_EQ(parseRegister("%sp"), Resource::intReg(14));
    EXPECT_EQ(parseRegister("%fp"), Resource::intReg(30));
    EXPECT_EQ(parseRegister("%y"), Resource::y());
}

TEST(Resource, RejectBadNames)
{
    EXPECT_FALSE(parseRegister("g1").valid());
    EXPECT_FALSE(parseRegister("%q1").valid());
    EXPECT_FALSE(parseRegister("%g9").valid());
    EXPECT_FALSE(parseRegister("%f32").valid());
    EXPECT_FALSE(parseRegister("%").valid());
}

TEST(Resource, SlotRoundTrip)
{
    for (int s = 0; s < Resource::kNumSlots; ++s) {
        Resource r = Resource::fromSlot(s);
        EXPECT_TRUE(r.valid());
        EXPECT_EQ(r.slot(), s);
    }
}

TEST(Resource, ZeroRegisterDetected)
{
    EXPECT_TRUE(Resource::intReg(0).isZeroReg());
    EXPECT_FALSE(Resource::intReg(1).isZeroReg());
    EXPECT_FALSE(Resource::fpReg(0).isZeroReg());
}

TEST(MemOperand, ParseBasePlusOffset)
{
    auto m = MemOperand::parse("[%o0+12]", 4);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->base, 8);
    EXPECT_EQ(m->offset, 12);
    EXPECT_TRUE(m->symbol.empty());
}

TEST(MemOperand, ParseNegativeOffset)
{
    auto m = MemOperand::parse("[%fp-8]", 4);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->base, 30);
    EXPECT_EQ(m->offset, -8);
}

TEST(MemOperand, ParseIndexed)
{
    auto m = MemOperand::parse("[%i1+%l0]", 4);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->base, 25);
    EXPECT_EQ(m->index, 16);
}

TEST(MemOperand, ParseSymbol)
{
    auto m = MemOperand::parse("[counter+4]", 4);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->symbol, "counter");
    EXPECT_EQ(m->offset, 4);
    EXPECT_EQ(m->storageClass(), StorageClass::Static);
}

TEST(MemOperand, StorageClasses)
{
    EXPECT_EQ(MemOperand::parse("[%fp-4]", 4)->storageClass(),
              StorageClass::Stack);
    EXPECT_EQ(MemOperand::parse("[%sp+64]", 4)->storageClass(),
              StorageClass::Stack);
    EXPECT_EQ(MemOperand::parse("[%g2+8]", 4)->storageClass(),
              StorageClass::Unknown);
}

TEST(MemOperand, RejectMalformed)
{
    EXPECT_FALSE(MemOperand::parse("%o0+4", 4).has_value());
    EXPECT_FALSE(MemOperand::parse("[]", 4).has_value());
}

TEST(MemExprTable, InternsByKey)
{
    MemExprTable table;
    auto a = MemOperand::parse("[%o0+4]", 4);
    auto b = MemOperand::parse("[%o0+4]", 4);
    auto c = MemOperand::parse("[%o0+8]", 4);
    EXPECT_EQ(table.intern(*a), table.intern(*b));
    EXPECT_NE(table.intern(*a), table.intern(*c));
    EXPECT_EQ(table.size(), 2u);
}

TEST(Immediate, Forms)
{
    EXPECT_EQ(parseImmediate("42").value(), 42);
    EXPECT_EQ(parseImmediate("-7").value(), -7);
    EXPECT_EQ(parseImmediate("0x10").value(), 16);
    EXPECT_FALSE(parseImmediate("%g1").has_value());
    EXPECT_TRUE(parseImmediate("%hi(sym)").has_value());
}

TEST(Parser, AluDefsAndUses)
{
    Program p = parseAssembly("add %g1, %g2, %g3\n");
    ASSERT_EQ(p.size(), 1u);
    const Instruction &i = p[0];
    EXPECT_EQ(i.op(), Opcode::Add);
    ASSERT_EQ(i.uses().size(), 2u);
    EXPECT_EQ(i.uses()[0], Resource::intReg(1));
    EXPECT_EQ(i.uses()[1], Resource::intReg(2));
    ASSERT_EQ(i.defs().size(), 1u);
    EXPECT_EQ(i.defs()[0], Resource::intReg(3));
}

TEST(Parser, ZeroRegisterCarriesNoDeps)
{
    Program p = parseAssembly("add %g0, %g2, %g0\n");
    EXPECT_EQ(p[0].uses().size(), 1u);
    EXPECT_TRUE(p[0].defs().empty());
}

TEST(Parser, ImmediateOperand)
{
    Program p = parseAssembly("add %g1, 8, %g3\n");
    EXPECT_TRUE(p[0].usesImm());
    EXPECT_EQ(p[0].imm(), 8);
    EXPECT_EQ(p[0].uses().size(), 1u);
}

TEST(Parser, CmpDefinesIcc)
{
    Program p = parseAssembly("cmp %g1, 5\n");
    EXPECT_TRUE(p[0].definesResource(Resource::icc()));
}

TEST(Parser, BranchUsesIcc)
{
    Program p = parseAssembly("cmp %g1, 5\nbne target\n");
    EXPECT_TRUE(p[1].usesResource(Resource::icc()));
    EXPECT_EQ(p[1].target(), "target");
}

TEST(Parser, AnnulledBranch)
{
    Program p = parseAssembly("be,a .L1\n");
    EXPECT_TRUE(p[0].annul());
    EXPECT_EQ(p[0].op(), Opcode::Be);
}

TEST(Parser, LoadIntoFpRegisterRemaps)
{
    Program p = parseAssembly("ld [%o0+4], %f2\nldd [%o0+8], %f4\n");
    EXPECT_EQ(p[0].op(), Opcode::Ldf);
    EXPECT_EQ(p[1].op(), Opcode::Lddf);
}

TEST(Parser, DoubleLoadDefinesPair)
{
    Program p = parseAssembly("lddf [%o0], %f4\n");
    ASSERT_EQ(p[0].defs().size(), 2u);
    EXPECT_EQ(p[0].defs()[0], Resource::fpReg(4));
    EXPECT_EQ(p[0].defs()[1], Resource::fpReg(5));
    EXPECT_EQ(p[0].defPairHalf(Resource::fpReg(5)), 1);
}

TEST(Parser, DoubleFpOpUsesPairs)
{
    Program p = parseAssembly("faddd %f0, %f2, %f4\n");
    const Instruction &i = p[0];
    EXPECT_TRUE(i.usesResource(Resource::fpReg(1)));
    EXPECT_TRUE(i.usesResource(Resource::fpReg(3)));
    EXPECT_TRUE(i.definesResource(Resource::fpReg(5)));
    // Both halves of the second operand sit at source position 1.
    EXPECT_EQ(i.usePosition(Resource::fpReg(2)), 1);
    EXPECT_EQ(i.usePosition(Resource::fpReg(3)), 1);
}

TEST(Parser, StoreUsesDataAndAddress)
{
    Program p = parseAssembly("st %l1, [%i0+4]\n");
    const Instruction &i = p[0];
    EXPECT_EQ(i.usePosition(Resource::intReg(17)), 0);
    EXPECT_EQ(i.usePosition(Resource::intReg(24)), 1);
    EXPECT_TRUE(i.isStore());
    EXPECT_TRUE(i.defs().empty());
}

TEST(Parser, CallDefsClobbers)
{
    Program p = parseAssembly("call printf\n");
    EXPECT_TRUE(p[0].definesResource(Resource::intReg(15))); // %o7
    EXPECT_TRUE(p[0].definesResource(Resource::callState()));
    EXPECT_EQ(p[0].target(), "printf");
}

TEST(Parser, CommentsAndDirectivesIgnored)
{
    Program p = parseAssembly(
        "! full line comment\n"
        ".align 8\n"
        "add %g1, %g2, %g3  ! trailing\n"
        "# hash comment\n");
    EXPECT_EQ(p.size(), 1u);
}

TEST(Parser, LabelsRecorded)
{
    Program p = parseAssembly("start:\nadd %g1, %g2, %g3\nba start\n");
    EXPECT_EQ(p.labelTarget("start"), 0);
    EXPECT_TRUE(p.hasLabelAt(0));
    EXPECT_FALSE(p.hasLabelAt(1));
}

TEST(Parser, UnknownMnemonicThrows)
{
    EXPECT_THROW(parseAssembly("bogus %g1, %g2\n"), FatalError);
}

TEST(Parser, WrongOperandCountThrows)
{
    EXPECT_THROW(parseAssembly("add %g1, %g2\n"), FatalError);
}

TEST(Parser, SmulTouchesY)
{
    Program p = parseAssembly("smul %g1, %g2, %g3\nsdiv %g3, %g1, %g4\n");
    EXPECT_TRUE(p[0].definesResource(Resource::y()));
    EXPECT_TRUE(p[1].usesResource(Resource::y()));
}

TEST(Program, LabelsRenderInDefinitionOrderHoweverTheMapGrew)
{
    // Two programs with the same labels: three on instruction 0, forty
    // on instruction 1.  One defines them in index order; the other
    // defines instruction 1's first, so its map has already grown to
    // its full size when instruction 0's labels go in.
    auto node = [](const std::string &name, std::uint32_t idx) {
        std::unordered_map<std::string, std::uint32_t> scratch;
        scratch.emplace(name, idx);
        return scratch.extract(scratch.begin());
    };
    const std::vector<std::string> first = {"top", "label with space",
                                            ".L1"};
    std::vector<std::string> second;
    for (int i = 0; i < 40; ++i)
        second.push_back(std::string("L").append(std::to_string(i)));
    const Program body =
        parseAssembly("add %g1, %g2, %g3\nadd %g3, %g2, %g1\n");

    Program a = body;
    for (const std::string &name : first) {
        Program::LabelNode n = node(name, 0);
        EXPECT_TRUE(a.addLabel(n));
    }
    for (const std::string &name : second) {
        Program::LabelNode n = node(name, 1);
        EXPECT_TRUE(a.addLabel(n));
    }
    Program b = body;
    for (const std::string &name : second) {
        Program::LabelNode n = node(name, 1);
        EXPECT_TRUE(b.addLabel(n));
    }
    for (const std::string &name : first) {
        Program::LabelNode n = node(name, 0);
        EXPECT_TRUE(b.addLabel(n));
    }

    const std::string text = a.toString();
    EXPECT_EQ(text, b.toString());
    EXPECT_TRUE(text.starts_with("top:\nlabel with space:\n.L1:\n    add"))
        << text;
    EXPECT_NE(text.find("L0:\nL1:\nL2:\n"), std::string::npos) << text;
}

TEST(Program, MemExprInterning)
{
    Program p = parseAssembly(
        "ld [%o0+4], %g1\n"
        "ld [%o0+4], %g2\n"
        "ld [%o0+8], %g3\n");
    EXPECT_EQ(p[0].mem()->exprId, p[1].mem()->exprId);
    EXPECT_NE(p[0].mem()->exprId, p[2].mem()->exprId);
    EXPECT_EQ(p.memExprs().size(), 2u);
}

TEST(Instruction, EndsBlockClassification)
{
    Program p = parseAssembly(
        "bne x\ncall y\nsave %sp, -96, %sp\nadd %g1, %g2, %g3\n");
    EXPECT_TRUE(p[0].endsBlock());
    EXPECT_TRUE(p[1].endsBlock());
    EXPECT_TRUE(p[2].endsBlock());
    EXPECT_FALSE(p[3].endsBlock());
}

} // namespace
} // namespace sched91
