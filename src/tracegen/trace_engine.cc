#include "tracegen/trace_engine.hh"

#include <cstdint>
#include <cstring>

#include "util/logging.hh"

namespace loopspec
{

namespace
{

// Architectural integer semantics: two's-complement wraparound on
// add/sub/mul/shl and division edge cases defined (x/0 = x%0 = 0,
// INT64_MIN/-1 = INT64_MIN, x%-1 = 0). Workloads compute with LCG
// constants that overflow int64 by design, so the simulator must be
// UB-clean whatever the program computes; both execution paths share
// these helpers, keeping their streams bit-identical.

inline int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

inline int64_t
wrapShl(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a)
                                << (static_cast<uint64_t>(b) & 63));
}

inline int64_t
wrapDiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0; // synthetic substrate convention
    if (b == -1 && a == INT64_MIN)
        return a; // the one overflowing quotient
    return a / b;
}

inline int64_t
wrapRem(int64_t a, int64_t b)
{
    if (b == 0)
        return 0; // synthetic substrate convention
    if (b == -1)
        return 0; // avoids the INT64_MIN % -1 trap
    return a % b;
}

/** ALU/compare function subcodes shared by the reg-reg and reg-imm
 *  handler tags. */
enum AluFn : uint8_t
{
    FnAdd,
    FnSub,
    FnMul,
    FnDiv,
    FnRem,
    FnAnd,
    FnOr,
    FnXor,
    FnShl,
    FnShr,
    FnSlt,
    FnSle,
    FnSeq,
    FnSne,
};

int64_t
aluCompute(uint8_t fn, int64_t a, int64_t b)
{
    switch (fn) {
      case FnAdd: return wrapAdd(a, b);
      case FnSub: return wrapSub(a, b);
      case FnMul: return wrapMul(a, b);
      case FnDiv: return wrapDiv(a, b);
      case FnRem: return wrapRem(a, b);
      case FnAnd: return a & b;
      case FnOr: return a | b;
      case FnXor: return a ^ b;
      case FnShl: return wrapShl(a, b);
      case FnShr:
        return static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                    (static_cast<uint64_t>(b) & 63));
      case FnSlt: return a < b ? 1 : 0;
      case FnSle: return a <= b ? 1 : 0;
      case FnSeq: return a == b ? 1 : 0;
      case FnSne: return a != b ? 1 : 0;
      default: panic("bad AluFn %d", fn);
    }
}

bool
branchTaken(uint8_t cond, int64_t a, int64_t b)
{
    switch (cond) {
      case 0: return a == b; // Beq
      case 1: return a != b; // Bne
      case 2: return a < b;  // Blt
      case 3: return a >= b; // Bge
      case 4: return a <= b; // Ble
      case 5: return a > b;  // Bgt
      default: panic("bad branch condition %d", cond);
    }
}

} // namespace

/**
 * Dynamic control targets (JmpInd/CallInd/Ret) are the only PCs the
 * validator cannot check statically; everything else (validated direct
 * targets, fall-through) stays in range by construction, so the hot
 * loops only verify these.
 */
void
TraceEngine::checkDynTarget(uint32_t target, uint32_t from_pc) const
{
    if (target < codeBase || (target - codeBase) % instrBytes != 0 ||
        indexOfAddr(target) >= opCore.size())
        panic("%s: dynamic control transfer from pc 0x%x to bad address "
              "0x%x",
              prog.name.c_str(), from_pc, target);
}

TraceEngine::TraceEngine(Program program, EngineConfig config)
    : prog(std::move(program)), cfg(config), memory(prog.dataWords, 0),
      pc(prog.entry)
{
    prog.validate();
    LOOPSPEC_ASSERT(cfg.batchInstrs >= 1, "batchInstrs must be >= 1");
    predecode();
}

void
TraceEngine::predecode()
{
    opCore.reserve(prog.code.size());
    opImm.reserve(prog.code.size());
    opTarget.reserve(prog.code.size());
    recTemplate.reserve(prog.code.size());
    for (const Instr &in : prog.code) {
        PredecodedOp p;
        p.op = in.op;
        p.kind = ctrlKindOf(in.op);
        p.rd = in.rd;
        p.rs1 = in.rs1;
        p.rs2 = in.rs2;
        p.imm = in.imm;
        p.target = in.target;
        p.subop = 0;
        switch (in.op) {
          case Opcode::Nop: p.tag = ExecTag::Nop; break;
          case Opcode::Halt: p.tag = ExecTag::Halt; break;

          case Opcode::Add: p.tag = ExecTag::Alu; p.subop = FnAdd; break;
          case Opcode::Sub: p.tag = ExecTag::Alu; p.subop = FnSub; break;
          case Opcode::Mul: p.tag = ExecTag::Alu; p.subop = FnMul; break;
          case Opcode::Div: p.tag = ExecTag::Alu; p.subop = FnDiv; break;
          case Opcode::Rem: p.tag = ExecTag::Alu; p.subop = FnRem; break;
          case Opcode::And: p.tag = ExecTag::Alu; p.subop = FnAnd; break;
          case Opcode::Or: p.tag = ExecTag::Alu; p.subop = FnOr; break;
          case Opcode::Xor: p.tag = ExecTag::Alu; p.subop = FnXor; break;
          case Opcode::Shl: p.tag = ExecTag::Alu; p.subop = FnShl; break;
          case Opcode::Shr: p.tag = ExecTag::Alu; p.subop = FnShr; break;
          case Opcode::Slt: p.tag = ExecTag::Alu; p.subop = FnSlt; break;
          case Opcode::Sle: p.tag = ExecTag::Alu; p.subop = FnSle; break;
          case Opcode::Seq: p.tag = ExecTag::Alu; p.subop = FnSeq; break;
          case Opcode::Sne: p.tag = ExecTag::Alu; p.subop = FnSne; break;

          case Opcode::Addi:
            p.tag = ExecTag::AluImm; p.subop = FnAdd; break;
          case Opcode::Muli:
            p.tag = ExecTag::AluImm; p.subop = FnMul; break;
          case Opcode::Andi:
            p.tag = ExecTag::AluImm; p.subop = FnAnd; break;
          case Opcode::Ori:
            p.tag = ExecTag::AluImm; p.subop = FnOr; break;
          case Opcode::Xori:
            p.tag = ExecTag::AluImm; p.subop = FnXor; break;
          case Opcode::Shli:
            p.tag = ExecTag::AluImm; p.subop = FnShl; break;
          case Opcode::Shri:
            p.tag = ExecTag::AluImm; p.subop = FnShr; break;

          case Opcode::Li: p.tag = ExecTag::Li; break;
          case Opcode::Mov: p.tag = ExecTag::Mov; break;
          case Opcode::Ld: p.tag = ExecTag::Ld; break;
          case Opcode::St: p.tag = ExecTag::St; break;

          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
          case Opcode::Ble:
          case Opcode::Bgt:
            p.tag = ExecTag::Branch;
            p.subop = static_cast<uint8_t>(
                static_cast<int>(in.op) - static_cast<int>(Opcode::Beq));
            break;

          case Opcode::Jmp: p.tag = ExecTag::Jmp; break;
          case Opcode::JmpInd: p.tag = ExecTag::JmpInd; break;
          case Opcode::Call: p.tag = ExecTag::Call; break;
          case Opcode::CallInd: p.tag = ExecTag::CallInd; break;
          case Opcode::Ret: p.tag = ExecTag::Ret; break;

          default:
            panic("bad opcode %d in predecode", static_cast<int>(in.op));
        }
        // Scatter the staging record into the SoA op planes.
        OpCore core;
        core.tag = static_cast<uint8_t>(p.tag);
        core.subop = p.subop;
        core.rd = p.rd;
        core.rs1 = p.rs1;
        core.rs2 = p.rs2;
        core.kind = static_cast<uint8_t>(p.kind);
        opCore.push_back(core);
        opImm.push_back(p.imm);
        opTarget.push_back(p.target);

        // Record prototype: everything statically known, so a full-
        // record batch stores only the dynamic fields and the static
        // shape comes back through SoaBatch::templates.
        DynInstr t;
        t.pc = addrOfIndex(recTemplate.size());
        t.op = in.op;
        t.kind = p.kind;
        auto src = [&](uint8_t reg) {
            t.srcReg[t.numSrc] = reg;
            ++t.numSrc;
        };
        auto dst = [&] {
            t.hasDst = true;
            t.dstReg = in.rd;
        };
        switch (p.tag) {
          case ExecTag::Nop:
          case ExecTag::Halt:
            break;
          case ExecTag::Alu:
            src(in.rs1);
            src(in.rs2);
            dst();
            break;
          case ExecTag::AluImm:
          case ExecTag::Mov:
            src(in.rs1);
            dst();
            break;
          case ExecTag::Li:
            dst();
            break;
          case ExecTag::Ld:
            src(in.rs1);
            dst();
            t.isLoad = true;
            break;
          case ExecTag::St:
            src(in.rs1);
            src(in.rs2);
            t.isStore = true;
            break;
          case ExecTag::Branch:
            src(in.rs1);
            src(in.rs2);
            t.target = in.target; // taken stays false; patched when taken
            break;
          case ExecTag::Jmp:
          case ExecTag::Call:
            t.taken = true;
            t.target = in.target;
            break;
          case ExecTag::JmpInd:
          case ExecTag::CallInd:
            src(in.rs1);
            t.taken = true; // target patched at execution
            break;
          case ExecTag::Ret:
            t.taken = true; // target patched at execution
            break;
          default:
            break;
        }
        recTemplate.push_back(t);
    }
}

void
TraceEngine::addObserver(TraceObserver *observer)
{
    LOOPSPEC_ASSERT(observer != nullptr);
    observers.push_back(observer);
}

int64_t
TraceEngine::readMem(uint64_t addr) const
{
    LOOPSPEC_ASSERT(addr < memory.size());
    return memory[addr];
}

int64_t
TraceEngine::loadWord(uint64_t addr)
{
    if (addr >= memory.size()) {
        if (cfg.strictMemory)
            panic("%s: load from 0x%llx outside data segment (%zu words)",
                  prog.name.c_str(), static_cast<unsigned long long>(addr),
                  memory.size());
        return 0;
    }
    return memory[addr];
}

void
TraceEngine::storeWord(uint64_t addr, int64_t value)
{
    if (addr >= memory.size()) {
        if (cfg.strictMemory)
            panic("%s: store to 0x%llx outside data segment (%zu words)",
                  prog.name.c_str(), static_cast<unsigned long long>(addr),
                  memory.size());
        return;
    }
    memory[addr] = value;
}

void
TraceEngine::deliverEnd()
{
    if (endDelivered)
        return;
    endDelivered = true;
    for (auto *obs : observers)
        obs->onTraceEnd(seq);
}

bool
TraceEngine::step(DynInstr &out)
{
    if (halted) {
        deliverEnd();
        return false;
    }

    const Instr &in = prog.fetch(pc);
    DynInstr d;
    d.seq = seq;
    d.pc = pc;
    d.op = in.op;
    d.kind = ctrlKindOf(in.op);

    auto src1 = [&]() {
        d.srcReg[d.numSrc] = in.rs1;
        d.srcVal[d.numSrc] = regs[in.rs1];
        ++d.numSrc;
        return regs[in.rs1];
    };
    auto src2 = [&]() {
        d.srcReg[d.numSrc] = in.rs2;
        d.srcVal[d.numSrc] = regs[in.rs2];
        ++d.numSrc;
        return regs[in.rs2];
    };
    auto setDst = [&](int64_t value) {
        d.hasDst = true;
        d.dstReg = in.rd;
        if (in.rd != 0)
            regs[in.rd] = value;
        d.dstVal = regs[in.rd];
    };
    // Records list rs1 before rs2: sequence the reads explicitly.
    auto binOp = [&](auto fn) {
        int64_t a = src1();
        int64_t b = src2();
        setDst(fn(a, b));
    };

    uint32_t next_pc = pc + instrBytes;

    switch (in.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted = true;
        break;

      case Opcode::Add:
        binOp(wrapAdd);
        break;
      case Opcode::Sub:
        binOp(wrapSub);
        break;
      case Opcode::Mul:
        binOp(wrapMul);
        break;
      case Opcode::Div:
        binOp(wrapDiv);
        break;
      case Opcode::Rem:
        binOp(wrapRem);
        break;
      case Opcode::And:
        binOp([](int64_t a, int64_t b) { return a & b; });
        break;
      case Opcode::Or:
        binOp([](int64_t a, int64_t b) { return a | b; });
        break;
      case Opcode::Xor:
        binOp([](int64_t a, int64_t b) { return a ^ b; });
        break;
      case Opcode::Shl:
        binOp(wrapShl);
        break;
      case Opcode::Shr:
        binOp([](int64_t a, int64_t b) {
            return static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                        (static_cast<uint64_t>(b) & 63));
        });
        break;

      case Opcode::Slt:
        binOp([](int64_t a, int64_t b) { return a < b ? 1 : 0; });
        break;
      case Opcode::Sle:
        binOp([](int64_t a, int64_t b) { return a <= b ? 1 : 0; });
        break;
      case Opcode::Seq:
        binOp([](int64_t a, int64_t b) { return a == b ? 1 : 0; });
        break;
      case Opcode::Sne:
        binOp([](int64_t a, int64_t b) { return a != b ? 1 : 0; });
        break;

      case Opcode::Addi: setDst(wrapAdd(src1(), in.imm)); break;
      case Opcode::Muli: setDst(wrapMul(src1(), in.imm)); break;
      case Opcode::Andi: setDst(src1() & in.imm); break;
      case Opcode::Ori: setDst(src1() | in.imm); break;
      case Opcode::Xori: setDst(src1() ^ in.imm); break;
      case Opcode::Shli:
        setDst(wrapShl(src1(), in.imm));
        break;
      case Opcode::Shri:
        setDst(static_cast<int64_t>(static_cast<uint64_t>(src1()) >>
                                    (static_cast<uint64_t>(in.imm) & 63)));
        break;

      case Opcode::Li: setDst(in.imm); break;
      case Opcode::Mov: setDst(src1()); break;

      case Opcode::Ld: {
        uint64_t addr = static_cast<uint64_t>(src1() + in.imm);
        int64_t value = loadWord(addr);
        d.isLoad = true;
        d.memAddr = addr;
        d.memVal = value;
        setDst(value);
        break;
      }
      case Opcode::St: {
        uint64_t addr = static_cast<uint64_t>(src1() + in.imm);
        int64_t value = src2();
        d.isStore = true;
        d.memAddr = addr;
        d.memVal = value;
        storeWord(addr, value);
        break;
      }

      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Ble:
      case Opcode::Bgt: {
        int64_t a = src1(), b = src2();
        bool cond = false;
        switch (in.op) {
          case Opcode::Beq: cond = a == b; break;
          case Opcode::Bne: cond = a != b; break;
          case Opcode::Blt: cond = a < b; break;
          case Opcode::Bge: cond = a >= b; break;
          case Opcode::Ble: cond = a <= b; break;
          case Opcode::Bgt: cond = a > b; break;
          default: break;
        }
        d.taken = cond;
        d.target = in.target;
        if (cond)
            next_pc = in.target;
        break;
      }

      case Opcode::Jmp:
        d.taken = true;
        d.target = in.target;
        next_pc = in.target;
        break;

      case Opcode::JmpInd: {
        uint32_t t = static_cast<uint32_t>(src1());
        d.taken = true;
        d.target = t;
        next_pc = t;
        break;
      }

      case Opcode::Call:
        d.taken = true;
        d.target = in.target;
        if (raStack.size() >= cfg.maxCallDepth)
            panic("%s: call depth limit exceeded at pc 0x%x",
                  prog.name.c_str(), pc);
        raStack.push_back(pc + instrBytes);
        next_pc = in.target;
        break;

      case Opcode::CallInd: {
        uint32_t t = static_cast<uint32_t>(src1());
        d.taken = true;
        d.target = t;
        if (raStack.size() >= cfg.maxCallDepth)
            panic("%s: call depth limit exceeded at pc 0x%x",
                  prog.name.c_str(), pc);
        raStack.push_back(pc + instrBytes);
        next_pc = t;
        break;
      }

      case Opcode::Ret:
        if (raStack.empty())
            panic("%s: ret with empty RA stack at pc 0x%x",
                  prog.name.c_str(), pc);
        d.taken = true;
        d.target = raStack.back();
        raStack.pop_back();
        next_pc = d.target;
        break;

      default:
        panic("bad opcode %d at pc 0x%x", static_cast<int>(in.op), pc);
    }

    pc = next_pc;
    ++seq;
    if (cfg.maxInstrs && seq >= cfg.maxInstrs)
        halted = true;

    for (auto *obs : observers)
        obs->onInstr(d);
    out = d;

    if (halted)
        deliverEnd();
    return true;
}

// Token-threaded dispatch: under GCC/Clang every handler ends by
// jumping straight to the next handler through a computed-goto table
// (labels-as-values), so the CPU's indirect-branch predictor learns
// per-handler successor patterns instead of funnelling every
// instruction through one shared switch branch. Compilers without the
// extension fall back to a dense switch driven by the same macros.
#if defined(__GNUC__) || defined(__clang__)
#define LOOPSPEC_THREADED_DISPATCH 1
#else
#define LOOPSPEC_THREADED_DISPATCH 0
#endif

/*
 * The one hot loop behind every execution mode. The per-instruction
 * work is identical in all modes (same helpers as step(), so the
 * streams stay bit-identical); M selects what gets materialised:
 *
 *  - Unobserved: architectural effects only, no records.
 *  - SoaHot: the hot planes only (pc/kind always; taken/target zeroed
 *    per batch and overwritten at control positions) — ~10 bytes per
 *    instruction instead of 72.
 *  - SoaFull: hot planes + sidx + operand/value cold planes, from
 *    which SoaBatch::materialize rebuilds the exact step() record.
 */
template <TraceEngine::FillMode M>
size_t
TraceEngine::fillCore(const FillBufs &bufs, size_t cap, size_t &num_ctrl)
{
    constexpr bool kRec = M != FillMode::Unobserved;
    constexpr bool kCold = M == FillMode::SoaFull;

    // Hoist the architectural state into locals for the whole batch:
    // going through `this` per retired instruction defeats register
    // allocation (every store to memory[] is an aliasing barrier for
    // the members). Written back before returning; panic aborts, so
    // stale members on that path do not matter.
    uint32_t lpc = pc;
    uint64_t lseq = seq;
    int64_t lregs[numRegs];
    std::memcpy(lregs, regs, sizeof(lregs));
    const OpCore *ops = opCore.data();
    const int64_t *imms = opImm.data();
    const uint32_t *tgts = opTarget.data();
    int64_t *mem = memory.data();
    const uint64_t mem_words = memory.size();
    const uint64_t max_instrs = cfg.maxInstrs;
    const bool strict = cfg.strictMemory;
    bool lhalted = false;
    (void)bufs;

    // Fuel folds into the batch bound so the hot loop tests one limit.
    size_t limit = cap;
    if (max_instrs && max_instrs - lseq < limit)
        limit = static_cast<size_t>(max_instrs - lseq);

    if constexpr (kRec) {
        // Non-control positions keep zeroed taken/target planes (and,
        // in full mode, zeroed value planes) — the same zeros step()
        // leaves in its records; control handlers overwrite their own
        // slots.
        std::memset(bufs.takenP, 0, limit);
        std::memset(bufs.targetP, 0, limit * sizeof(uint32_t));
        if constexpr (kCold) {
            std::memset(bufs.srcVal0P, 0, limit * sizeof(int64_t));
            std::memset(bufs.srcVal1P, 0, limit * sizeof(int64_t));
            std::memset(bufs.dstValP, 0, limit * sizeof(int64_t));
            std::memset(bufs.memAddrP, 0, limit * sizeof(uint64_t));
            std::memset(bufs.memValP, 0, limit * sizeof(int64_t));
        }
    }

    size_t n = 0;
    size_t nc = 0;
    uint64_t idx;
    uint32_t cur_pc;
    uint32_t next_pc;
    const OpCore *op;

// Per-instruction prologue: decode position, then the pc/kind planes
// (and, for full records, the static-instruction index).
#define LS_BEGIN_OP()                                                  \
    cur_pc = lpc;                                                      \
    idx = (cur_pc - codeBase) / instrBytes;                            \
    op = ops + idx;                                                    \
    next_pc = cur_pc + instrBytes;                                     \
    if constexpr (kRec) {                                              \
        bufs.pcP[n] = cur_pc;                                          \
        bufs.kindP[n] = op->kind;                                      \
        if constexpr (kCold)                                           \
            bufs.sidxP[n] = static_cast<uint32_t>(idx);                \
    }

// Dynamic-field writes: SoaFull writes the cold planes; SoaHot and
// Unobserved drop the value.
#define LS_SRC0(v)                                                     \
    if constexpr (kCold)                                               \
        bufs.srcVal0P[n] = (v)
#define LS_SRC1(v)                                                     \
    if constexpr (kCold)                                               \
        bufs.srcVal1P[n] = (v)
#define LS_DST(v)                                                      \
    if constexpr (kCold)                                               \
        bufs.dstValP[n] = (v)
#define LS_MEM(a_, v_)                                                 \
    if constexpr (kCold) {                                             \
        bufs.memAddrP[n] = (a_);                                       \
        bufs.memValP[n] = (v_);                                        \
    }
// Resolved control fields (hot planes, every recording mode).
#define LS_TAKEN(v)                                                    \
    if constexpr (kRec)                                                \
        bufs.takenP[n] = (v) ? 1 : 0
#define LS_TARGET(v)                                                   \
    if constexpr (kRec)                                                \
        bufs.targetP[n] = (v)
// Control-index append: only handlers of control ops reach this, so
// the per-instruction kind test of the old loop is gone entirely.
#define LS_CTRL()                                                      \
    if constexpr (kRec)                                                \
        bufs.ctrl[nc++] = static_cast<uint32_t>(n)

#if LOOPSPEC_THREADED_DISPATCH
    static const void *const jump[] = {
        &&h_Nop,    &&h_Halt, &&h_Alu,     &&h_AluImm, &&h_Li,
        &&h_Mov,    &&h_Ld,   &&h_St,      &&h_Branch, &&h_Jmp,
        &&h_JmpInd, &&h_Call, &&h_CallInd, &&h_Ret,
    };
#define LS_OP(t) h_##t:
#define LS_END_OP()                                                    \
    do {                                                               \
        lpc = next_pc;                                                 \
        ++lseq;                                                        \
        if (++n >= limit)                                              \
            goto fill_done;                                            \
        LS_BEGIN_OP();                                                 \
        goto *jump[op->tag];                                           \
    } while (0)

    if (limit == 0)
        goto fill_done;
    LS_BEGIN_OP();
    goto *jump[op->tag];
#else
#define LS_OP(t) case ExecTag::t:
#define LS_END_OP() goto ls_next_op

    if (limit == 0)
        goto fill_done;
ls_begin_op:
    LS_BEGIN_OP();
    switch (static_cast<ExecTag>(op->tag)) {
#endif

    LS_OP(Nop)
    LS_END_OP();

    LS_OP(Halt)
    lhalted = true;
    lpc = next_pc;
    ++lseq;
    ++n;
    goto fill_done;

    LS_OP(Alu) {
        int64_t a = lregs[op->rs1];
        int64_t b = lregs[op->rs2];
        LS_SRC0(a);
        LS_SRC1(b);
        int64_t v = aluCompute(op->subop, a, b);
        if (op->rd != 0)
            lregs[op->rd] = v;
        LS_DST(lregs[op->rd]);
    }
    LS_END_OP();

    LS_OP(AluImm) {
        int64_t a = lregs[op->rs1];
        LS_SRC0(a);
        int64_t v = aluCompute(op->subop, a, imms[idx]);
        if (op->rd != 0)
            lregs[op->rd] = v;
        LS_DST(lregs[op->rd]);
    }
    LS_END_OP();

    LS_OP(Li)
    if (op->rd != 0)
        lregs[op->rd] = imms[idx];
    LS_DST(lregs[op->rd]);
    LS_END_OP();

    LS_OP(Mov) {
        int64_t a = lregs[op->rs1];
        LS_SRC0(a);
        if (op->rd != 0)
            lregs[op->rd] = a;
        LS_DST(lregs[op->rd]);
    }
    LS_END_OP();

    LS_OP(Ld) {
        int64_t a = lregs[op->rs1];
        LS_SRC0(a);
        uint64_t addr = static_cast<uint64_t>(a + imms[idx]);
        int64_t value;
        if (addr >= mem_words) {
            if (strict)
                panic("%s: load from 0x%llx outside data segment "
                      "(%zu words)",
                      prog.name.c_str(),
                      static_cast<unsigned long long>(addr),
                      memory.size());
            value = 0;
        } else {
            value = mem[addr];
        }
        LS_MEM(addr, value);
        if (op->rd != 0)
            lregs[op->rd] = value;
        LS_DST(lregs[op->rd]);
    }
    LS_END_OP();

    LS_OP(St) {
        int64_t a = lregs[op->rs1];
        int64_t value = lregs[op->rs2];
        LS_SRC0(a);
        LS_SRC1(value);
        uint64_t addr = static_cast<uint64_t>(a + imms[idx]);
        LS_MEM(addr, value);
        if (addr >= mem_words) {
            if (strict)
                panic("%s: store to 0x%llx outside data segment "
                      "(%zu words)",
                      prog.name.c_str(),
                      static_cast<unsigned long long>(addr),
                      memory.size());
        } else {
            mem[addr] = value;
        }
    }
    LS_END_OP();

    LS_OP(Branch) {
        int64_t a = lregs[op->rs1];
        int64_t b = lregs[op->rs2];
        LS_SRC0(a);
        LS_SRC1(b);
        bool cond = branchTaken(op->subop, a, b);
        LS_TAKEN(cond);
        LS_TARGET(tgts[idx]); // not-taken branches keep their target too
        if (cond)
            next_pc = tgts[idx];
        LS_CTRL();
    }
    LS_END_OP();

    LS_OP(Jmp)
    LS_TAKEN(true);
    LS_TARGET(tgts[idx]);
    next_pc = tgts[idx];
    LS_CTRL();
    LS_END_OP();

    LS_OP(JmpInd) {
        int64_t a = lregs[op->rs1];
        LS_SRC0(a);
        uint32_t t = static_cast<uint32_t>(a);
        checkDynTarget(t, cur_pc);
        LS_TAKEN(true);
        LS_TARGET(t);
        next_pc = t;
        LS_CTRL();
    }
    LS_END_OP();

    LS_OP(Call)
    if (raStack.size() >= cfg.maxCallDepth)
        panic("%s: call depth limit exceeded at pc 0x%x",
              prog.name.c_str(), cur_pc);
    raStack.push_back(cur_pc + instrBytes);
    LS_TAKEN(true);
    LS_TARGET(tgts[idx]);
    next_pc = tgts[idx];
    LS_CTRL();
    LS_END_OP();

    LS_OP(CallInd) {
        int64_t a = lregs[op->rs1];
        LS_SRC0(a);
        uint32_t t = static_cast<uint32_t>(a);
        checkDynTarget(t, cur_pc);
        LS_TAKEN(true);
        LS_TARGET(t);
        if (raStack.size() >= cfg.maxCallDepth)
            panic("%s: call depth limit exceeded at pc 0x%x",
                  prog.name.c_str(), cur_pc);
        raStack.push_back(cur_pc + instrBytes);
        next_pc = t;
        LS_CTRL();
    }
    LS_END_OP();

    LS_OP(Ret) {
        if (raStack.empty())
            panic("%s: ret with empty RA stack at pc 0x%x",
                  prog.name.c_str(), cur_pc);
        uint32_t t = raStack.back();
        raStack.pop_back();
        checkDynTarget(t, cur_pc);
        LS_TAKEN(true);
        LS_TARGET(t);
        next_pc = t;
        LS_CTRL();
    }
    LS_END_OP();

#if !LOOPSPEC_THREADED_DISPATCH
      default:
        panic("bad ExecTag at pc 0x%x", cur_pc);
    }
ls_next_op:
    lpc = next_pc;
    ++lseq;
    if (++n < limit)
        goto ls_begin_op;
#endif

fill_done:
    if (!lhalted && max_instrs && lseq >= max_instrs)
        lhalted = true;

    pc = lpc;
    seq = lseq;
    std::memcpy(regs, lregs, sizeof(lregs));
    if (lhalted)
        halted = true;
    num_ctrl = nc;
    return n;

#undef LS_BEGIN_OP
#undef LS_SRC0
#undef LS_SRC1
#undef LS_DST
#undef LS_MEM
#undef LS_TAKEN
#undef LS_TARGET
#undef LS_CTRL
#undef LS_OP
#undef LS_END_OP
}

uint64_t
TraceEngine::run()
{
    if (halted) {
        deliverEnd();
        return seq;
    }

    if (observers.empty()) {
        // Nobody reads the records: execute without materialising them.
        FillBufs none;
        size_t num_ctrl = 0;
        fillCore<FillMode::Unobserved>(none, SIZE_MAX, num_ctrl);
        deliverEnd();
        return seq;
    }

    // The cold operand/value planes are filled only when
    // some observer needs full records (the materializing shim or a §4
    // value consumer); an all-hot observer set costs ~10 B/instr.
    bool cold = false;
    for (auto *obs : observers)
        cold |= obs->batchNeed() == BatchNeed::FullRecords;
    SoaBatchStorage soa;
    soa.ensure(cfg.batchInstrs, cold);
    FillBufs fb;
    fb.ctrl = soa.ctrl.data();
    fb.pcP = soa.pc.data();
    fb.targetP = soa.target.data();
    fb.kindP = soa.kind.data();
    fb.takenP = soa.taken.data();
    if (cold) {
        fb.sidxP = soa.sidx.data();
        fb.srcVal0P = soa.srcVal0.data();
        fb.srcVal1P = soa.srcVal1.data();
        fb.dstValP = soa.dstVal.data();
        fb.memAddrP = soa.memAddr.data();
        fb.memValP = soa.memVal.data();
    }
    while (!halted) {
        size_t num_ctrl = 0;
        const uint64_t seq_base = seq;
        size_t n =
            cold ? fillCore<FillMode::SoaFull>(fb, cfg.batchInstrs,
                                               num_ctrl)
                 : fillCore<FillMode::SoaHot>(fb, cfg.batchInstrs,
                                              num_ctrl);
        SoaBatch batch =
            soa.view(n, num_ctrl, seq_base, recTemplate.data());
        for (auto *obs : observers)
            obs->onInstrBatchSoA(batch);
    }
    deliverEnd();
    return seq;
}

} // namespace loopspec
