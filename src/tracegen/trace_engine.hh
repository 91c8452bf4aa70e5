/**
 * @file
 * Functional mini-RISC simulator: executes a Program and streams DynInstr
 * records to observers. In-order, one instruction at a time — the same
 * observation model as the paper's ATOM instrumentation.
 *
 * Two execution paths share the architectural state:
 *
 *  - step() is the scalar reference interpreter: fetch + a per-opcode
 *    switch, one onInstr observer call per retired instruction. It is the
 *    obviously-correct oracle the equivalence tests compare against.
 *  - run() is the fast path: every static instruction is decoded once at
 *    construction into structure-of-arrays planes (an 8-byte OpCore of
 *    handler tag + operand indices, plus cold immediate/target planes),
 *    the hot loop executes from those flat arrays through a
 *    token-threaded dispatch (computed goto under GCC/Clang, a dense
 *    switch elsewhere), and retired instructions are delivered to
 *    observers as ~4K-instruction SoaBatch views (onInstrBatchSoA) —
 *    one virtual call per batch instead of per instruction. The batch
 *    carries the hot control planes always and the operand/value cold
 *    planes only when some observer asks for full records.
 *
 * Both paths produce bit-identical instruction streams (SoaBatch::
 * materialize rebuilds the step() record) and may be mixed on one
 * engine.
 */

#ifndef LOOPSPEC_TRACEGEN_TRACE_ENGINE_HH
#define LOOPSPEC_TRACEGEN_TRACE_ENGINE_HH

#include <cstdint>
#include <vector>

#include "program/program.hh"
#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** TraceEngine configuration. */
struct EngineConfig
{
    /** Stop after this many retired instructions (0 = unlimited). */
    uint64_t maxInstrs = 0;

    /** Panic on data accesses outside the data segment when true. */
    bool strictMemory = true;

    /** Maximum call depth before panicking (runaway recursion guard). */
    uint32_t maxCallDepth = 1u << 20;

    /** Records per SoaBatch on the run() fast path. Batch boundaries
     *  carry no meaning: every size yields the identical stream. */
    size_t batchInstrs = 4096;
};

/**
 * Executes a validated Program. Architectural state: 32 x int64 registers
 * (r0 wired to zero), a flat word-addressed data segment sized by the
 * program, and an engine-managed return-address stack (see docs/DESIGN.md §2 on
 * why the RA stack is not architectural).
 */
class TraceEngine
{
  public:
    /** The program is copied: the engine owns its code image, so callers
     *  may pass temporaries safely. */
    TraceEngine(Program program, EngineConfig config = {});

    /** Attach an observer; not owned. Must happen before run(). */
    void addObserver(TraceObserver *observer);

    /**
     * Run until Halt or the fuel limit; returns retired instruction
     * count. Calls onTraceEnd on all observers exactly once. Fast path:
     * predecoded execution, batched observer delivery.
     */
    uint64_t run();

    /**
     * Execute one instruction, filling @p out. Returns false (and leaves
     * @p out untouched) once the program has halted. Scalar reference
     * path: per-instruction observer delivery.
     */
    bool step(DynInstr &out);

    /** True once Halt retired or fuel ran out. */
    bool finished() const { return halted; }

    uint64_t retired() const { return seq; }

    /** Architectural register read (for tests/examples). */
    int64_t readReg(Reg r) const { return regs[r.idx]; }

    /** Data memory read (for tests/examples). */
    int64_t readMem(uint64_t addr) const;

    /** Current call depth (RA stack size). */
    size_t callDepth() const { return raStack.size(); }

  private:
    /** Handler selector of a predecoded micro-op. ALU and branch
     *  variants collapse into one handler with a function/condition
     *  subcode, so the hot dispatch is a dozen dense cases. */
    enum class ExecTag : uint8_t
    {
        Nop,
        Halt,
        Alu,    //!< reg-reg ALU/compare; subop = AluFn
        AluImm, //!< reg-imm ALU; subop = AluFn
        Li,
        Mov,
        Ld,
        St,
        Branch, //!< conditional branch; subop = condition
        Jmp,
        JmpInd,
        Call,
        CallInd,
        Ret,
    };

    /**
     * One statically decoded instruction, width-descending so the tail
     * padding is the only padding. The decode *staging* record only:
     * the hot loop reads the split planes below (OpCore + imm + target),
     * not this struct.
     */
    struct PredecodedOp
    {
        int64_t imm;
        uint32_t target;
        ExecTag tag;
        uint8_t subop; //!< AluFn or branch condition index
        Opcode op;     //!< original opcode (copied into records)
        CtrlKind kind; //!< precomputed ctrlKindOf(op)
        uint8_t rd, rs1, rs2;
    };
    static_assert(sizeof(PredecodedOp) == 24,
                  "PredecodedOp must stay 24 bytes (8-byte imm + "
                  "4-byte target + 7 tag/operand bytes, tail-padded)");

    /**
     * Hot plane of one predecoded instruction: the bytes every executed
     * instruction touches (handler tag, subcode, operand indices,
     * control kind). One 8-byte load per dispatch; the immediate and
     * direct-target planes stay cold for the ops that need them.
     */
    struct OpCore
    {
        uint8_t tag;   //!< ExecTag
        uint8_t subop; //!< AluFn or branch condition index
        uint8_t rd, rs1, rs2;
        uint8_t kind; //!< CtrlKind
        uint8_t pad0 = 0, pad1 = 0;
    };
    static_assert(sizeof(OpCore) == 8,
                  "OpCore plane stride must stay 8 bytes");

    /** How fillCore materialises retired-instruction data. */
    enum class FillMode : uint8_t
    {
        Unobserved, //!< no records: architectural effects only
        SoaHot,     //!< hot planes + control index only
        SoaFull,    //!< hot planes + operand/value cold planes
    };

    /** Output planes for fillCore; members for other modes stay null. */
    struct FillBufs
    {
        uint32_t *ctrl = nullptr;
        uint32_t *pcP = nullptr; //!< SoaHot/SoaFull hot planes
        uint32_t *targetP = nullptr;
        uint8_t *kindP = nullptr;
        uint8_t *takenP = nullptr;
        uint32_t *sidxP = nullptr; //!< SoaFull cold planes
        int64_t *srcVal0P = nullptr;
        int64_t *srcVal1P = nullptr;
        int64_t *dstValP = nullptr;
        uint64_t *memAddrP = nullptr;
        int64_t *memValP = nullptr;
    };

    /** Decode the whole code image into the op planes + `recTemplate`
     *  (constructor helper). */
    void predecode();

    /**
     * Execute up to @p cap instructions from the predecoded planes,
     * writing retired-instruction data to @p bufs in the layout chosen
     * by @p M and control-transfer positions to bufs.ctrl; returns the
     * count produced and sets @p num_ctrl. Stops at Halt or the fuel
     * limit (setting halted). Architectural state is hoisted into
     * locals for the whole batch — member traffic per retired
     * instruction is what made the scalar path slow — and dispatch is
     * token-threaded: each handler jumps straight to the next one
     * through a computed-goto table, so the indirect branch predicts
     * per handler pair instead of through one shared switch branch.
     */
    template <FillMode M>
    size_t fillCore(const FillBufs &bufs, size_t cap, size_t &num_ctrl);

    /** Panic unless @p target is an aligned, in-range code address
     *  (dynamic JmpInd/CallInd/Ret targets; static ones are validated
     *  at program build). */
    void checkDynTarget(uint32_t target, uint32_t from_pc) const;

    int64_t loadWord(uint64_t addr);
    void storeWord(uint64_t addr, int64_t value);

    /** Deliver onTraceEnd exactly once. */
    void deliverEnd();

    const Program prog;
    EngineConfig cfg;
    std::vector<TraceObserver *> observers;
    // Predecoded program, split SoA-style: the dispatch loop streams
    // opCore (8 B/instr); imm and direct targets load only on the ops
    // that use them.
    std::vector<OpCore> opCore;    //!< one per static instruction
    std::vector<int64_t> opImm;    //!< immediate plane
    std::vector<uint32_t> opTarget; //!< direct-target plane
    /**
     * Per-static-instruction DynInstr prototype with every statically
     * known field prefilled (pc, opcode, kind, operand indices, direct
     * targets, load/store flags). The hot loop never touches it: full-
     * record batches point SoaBatch::templates here, so materialize()
     * and the cold-plane readers recover an instruction's static shape
     * from its sidx without the engine writing it per retirement.
     */
    std::vector<DynInstr> recTemplate;

    int64_t regs[numRegs] = {};
    std::vector<int64_t> memory;
    std::vector<uint32_t> raStack;
    uint32_t pc;
    uint64_t seq = 0;
    bool halted = false;
    bool endDelivered = false;
};

} // namespace loopspec

#endif // LOOPSPEC_TRACEGEN_TRACE_ENGINE_HH
