/** @file Unit tests for the TraceEngine: per-opcode semantics, control
 *  flow, memory, call/return, fuel, observers. */

#include <gtest/gtest.h>

#include <vector>

#include "program/builder.hh"
#include "tracegen/trace_engine.hh"

namespace loopspec
{
namespace
{

using namespace regs;

/** Collects every DynInstr. */
class Collector : public TraceObserver
{
  public:
    std::vector<DynInstr> all;
    uint64_t endCount = 0;
    uint64_t endTotal = 0;

    void onInstr(const DynInstr &d) override { all.push_back(d); }

    void
    onTraceEnd(uint64_t total) override
    {
        ++endCount;
        endTotal = total;
    }
};

Program
simpleAlu(Opcode op, int64_t a, int64_t b)
{
    ProgramBuilder pb("t", 0);
    pb.beginFunction("main");
    pb.li(r1, a);
    pb.li(r2, b);
    Instr in;
    // emit via public API per op
    switch (op) {
      case Opcode::Add: pb.add(r3, r1, r2); break;
      case Opcode::Sub: pb.sub(r3, r1, r2); break;
      case Opcode::Mul: pb.mul(r3, r1, r2); break;
      case Opcode::Div: pb.div(r3, r1, r2); break;
      case Opcode::Rem: pb.rem(r3, r1, r2); break;
      case Opcode::And: pb.and_(r3, r1, r2); break;
      case Opcode::Or: pb.or_(r3, r1, r2); break;
      case Opcode::Xor: pb.xor_(r3, r1, r2); break;
      case Opcode::Shl: pb.shl(r3, r1, r2); break;
      case Opcode::Shr: pb.shr(r3, r1, r2); break;
      case Opcode::Slt: pb.slt(r3, r1, r2); break;
      case Opcode::Sle: pb.sle(r3, r1, r2); break;
      case Opcode::Seq: pb.seq(r3, r1, r2); break;
      case Opcode::Sne: pb.sne(r3, r1, r2); break;
      default: ADD_FAILURE() << "bad op"; break;
    }
    (void)in;
    pb.halt();
    return pb.build();
}

int64_t
runAlu(Opcode op, int64_t a, int64_t b)
{
    Program p = simpleAlu(op, a, b);
    TraceEngine e(p);
    e.run();
    return e.readReg(r3);
}

struct AluCase
{
    AluCase(Opcode o, int64_t x, int64_t y, int64_t e)
        : op(o), a(x), b(y), expect(e)
    {
    }

    Opcode op;
    // gtest names each case after the raw bytes of its param, so the
    // bytes after `op` are an explicit zeroed member: implicit padding
    // holds whatever the stack did and made the names change per run.
    uint8_t pad[7] = {};
    int64_t a, b, expect;
};
static_assert(sizeof(AluCase) == 32, "AluCase must have no implicit padding");

class AluSemantics : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluSemantics, Computes)
{
    const AluCase &c = GetParam();
    EXPECT_EQ(runAlu(c.op, c.a, c.b), c.expect)
        << mnemonic(c.op) << " " << c.a << "," << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluSemantics,
    ::testing::Values(
        AluCase{Opcode::Add, 5, 7, 12}, AluCase{Opcode::Add, -5, 2, -3},
        AluCase{Opcode::Sub, 5, 7, -2}, AluCase{Opcode::Mul, -3, 4, -12},
        AluCase{Opcode::Div, 20, 6, 3}, AluCase{Opcode::Div, 20, 0, 0},
        AluCase{Opcode::Rem, 20, 6, 2}, AluCase{Opcode::Rem, 20, 0, 0},
        AluCase{Opcode::And, 0b1100, 0b1010, 0b1000},
        AluCase{Opcode::Or, 0b1100, 0b1010, 0b1110},
        AluCase{Opcode::Xor, 0b1100, 0b1010, 0b0110},
        AluCase{Opcode::Shl, 3, 4, 48}, AluCase{Opcode::Shr, 48, 4, 3},
        AluCase{Opcode::Slt, 3, 4, 1}, AluCase{Opcode::Slt, 4, 3, 0},
        AluCase{Opcode::Sle, 4, 4, 1}, AluCase{Opcode::Seq, 4, 4, 1},
        AluCase{Opcode::Sne, 4, 4, 0}, AluCase{Opcode::Sne, 4, 5, 1}));

TEST(Engine, RegisterZeroIsWired)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r0, 99); // write to r0 must be discarded
    b.addi(r1, r0, 5);
    b.halt();
    Program p = b.build();
    TraceEngine e(p);
    e.run();
    EXPECT_EQ(e.readReg(r0), 0);
    EXPECT_EQ(e.readReg(r1), 5);
}

TEST(Engine, ImmediateOps)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 10);
    b.addi(r2, r1, -4);
    b.muli(r3, r1, 3);
    b.andi(r4, r1, 6);
    b.ori(r5, r1, 5);
    b.xori(r6, r1, 3);
    b.shli(r7, r1, 2);
    b.shri(r8, r1, 1);
    b.mov(r9, r1);
    b.halt();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r2), 6);
    EXPECT_EQ(e.readReg(r3), 30);
    EXPECT_EQ(e.readReg(r4), 2);
    EXPECT_EQ(e.readReg(r5), 15);
    EXPECT_EQ(e.readReg(r6), 9);
    EXPECT_EQ(e.readReg(r7), 40);
    EXPECT_EQ(e.readReg(r8), 5);
    EXPECT_EQ(e.readReg(r9), 10);
}

TEST(Engine, LoadStoreRoundTrip)
{
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 10);
    b.li(r2, 1234);
    b.st(r2, r1, 5); // mem[15] = 1234
    b.ld(r3, r1, 5);
    b.halt();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r3), 1234);
    EXPECT_EQ(e.readMem(15), 1234);
}

TEST(Engine, BranchTakenAndNotTaken)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    Label skip = b.newLabel();
    b.li(r1, 1);
    b.li(r2, 2);
    b.blt(r1, r2, skip); // taken
    b.li(r3, 111);       // skipped
    b.bind(skip);
    b.bgt(r1, r2, skip); // not taken
    b.li(r4, 222);
    b.halt();
    TraceEngine e(b.build());
    Collector c;
    e.addObserver(&c);
    e.run();
    EXPECT_EQ(e.readReg(r3), 0);
    EXPECT_EQ(e.readReg(r4), 222);
    // Check taken flags in the stream.
    ASSERT_GE(c.all.size(), 5u);
    EXPECT_TRUE(c.all[2].taken);
    EXPECT_EQ(c.all[2].kind, CtrlKind::Branch);
    EXPECT_FALSE(c.all[3].taken); // the bgt
}

TEST(Engine, CallRetAndDepth)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.call("f");
    b.li(r2, 7);
    b.halt();
    b.beginFunction("f");
    b.li(r1, 3);
    b.ret();
    TraceEngine e(b.build());
    Collector c;
    e.addObserver(&c);
    e.run();
    EXPECT_EQ(e.readReg(r1), 3);
    EXPECT_EQ(e.readReg(r2), 7);
    EXPECT_EQ(e.callDepth(), 0u);
    // The ret must report its resolved target (return address).
    bool saw_ret = false;
    for (const auto &d : c.all) {
        if (d.kind == CtrlKind::Ret) {
            saw_ret = true;
            EXPECT_EQ(d.target, addrOfIndex(1));
            EXPECT_TRUE(d.taken);
        }
    }
    EXPECT_TRUE(saw_ret);
}

TEST(Engine, IndirectJumpAndCall)
{
    ProgramBuilder b("t", 16);
    b.beginFunction("main");
    Label tgt = b.newLabel();
    b.liLabel(r1, tgt);
    b.jmpInd(r1);
    b.li(r2, 111); // skipped
    b.bind(tgt);
    b.liFunc(r3, "f");
    b.callInd(r3);
    b.halt();
    b.beginFunction("f");
    b.li(r4, 5);
    b.ret();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r2), 0);
    EXPECT_EQ(e.readReg(r4), 5);
}

TEST(Engine, RecursionComputesFactorial)
{
    // fact(n): r1 accumulator, r10 n; recursion through the engine RA
    // stack with manual spills.
    ProgramBuilder b("t", 4096);
    b.beginFunction("main");
    b.li(r29, 100); // spill stack pointer
    b.li(r1, 1);
    b.li(r10, 5);
    b.call("fact");
    b.halt();
    b.beginFunction("fact");
    Label base = b.newLabel();
    b.beq(r10, r0, base);
    b.mul(r1, r1, r10);
    b.addi(r10, r10, -1);
    b.call("fact");
    b.bind(base);
    b.ret();
    TraceEngine e(b.build());
    e.run();
    EXPECT_EQ(e.readReg(r1), 120);
}

TEST(Engine, FuelLimitStopsExecution)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    Label head = b.here();
    b.addi(r1, r1, 1);
    b.jmp(head); // infinite loop
    Program p = b.build();
    EngineConfig cfg;
    cfg.maxInstrs = 1000;
    TraceEngine e(p, cfg);
    Collector c;
    e.addObserver(&c);
    uint64_t n = e.run();
    EXPECT_EQ(n, 1000u);
    EXPECT_EQ(c.endCount, 1u);
    EXPECT_EQ(c.endTotal, 1000u);
    EXPECT_TRUE(e.finished());
}

TEST(Engine, StepInterfaceMatchesRun)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 1);
    b.li(r2, 2);
    b.add(r3, r1, r2);
    b.halt();
    Program p = b.build();
    TraceEngine e(p);
    DynInstr d;
    int steps = 0;
    while (e.step(d))
        ++steps;
    EXPECT_EQ(steps, 4);
    EXPECT_EQ(e.readReg(r3), 3);
    EXPECT_FALSE(e.step(d)); // stays finished
}

TEST(Engine, DynInstrCarriesOperandValues)
{
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 6);
    b.li(r2, 7);
    b.mul(r3, r1, r2);
    b.st(r3, r1, 0);
    b.ld(r4, r1, 0);
    b.halt();
    TraceEngine e(b.build());
    Collector c;
    e.addObserver(&c);
    e.run();
    const DynInstr &mul = c.all[2];
    ASSERT_EQ(mul.numSrc, 2);
    EXPECT_EQ(mul.srcVal[0], 6);
    EXPECT_EQ(mul.srcVal[1], 7);
    EXPECT_TRUE(mul.hasDst);
    EXPECT_EQ(mul.dstVal, 42);
    const DynInstr &st = c.all[3];
    EXPECT_TRUE(st.isStore);
    EXPECT_EQ(st.memAddr, 6u);
    EXPECT_EQ(st.memVal, 42);
    const DynInstr &ld = c.all[4];
    EXPECT_TRUE(ld.isLoad);
    EXPECT_EQ(ld.memAddr, 6u);
    EXPECT_EQ(ld.memVal, 42);
}

TEST(Engine, BackwardPredicate)
{
    DynInstr d;
    d.pc = 0x1010;
    d.taken = true;
    d.target = 0x1008;
    EXPECT_TRUE(d.backward());
    d.target = 0x1014;
    EXPECT_FALSE(d.backward());
    d.target = 0x1008;
    d.taken = false;
    EXPECT_FALSE(d.backward());
}

TEST(Engine, StrictMemoryPanicsOutOfRange)
{
    ProgramBuilder b("t", 8);
    b.beginFunction("main");
    b.li(r1, 100);
    b.ld(r2, r1, 0);
    b.halt();
    Program p = b.build();
    TraceEngine e(p);
    EXPECT_DEATH(e.run(), "outside data segment");
}

TEST(Engine, LenientMemoryReadsZero)
{
    ProgramBuilder b("t", 8);
    b.beginFunction("main");
    b.li(r1, 100);
    b.ld(r2, r1, 0);
    b.st(r1, r1, 0); // dropped
    b.halt();
    Program p = b.build();
    EngineConfig cfg;
    cfg.strictMemory = false;
    TraceEngine e(p, cfg);
    e.run();
    EXPECT_EQ(e.readReg(r2), 0);
}

} // namespace
} // namespace loopspec
