/**
 * @file
 * Differential oracle over the three trace-pipeline execution paths.
 *
 * PR 2 left the repo with three independently implemented ways to turn a
 * Program into loop events: the scalar step() interpreter (the reference),
 * the predecoded batch run() path, and the record/replay layer
 * (ControlTrace + LoopEventRecording). DiffChecker runs one program
 * through all of them, at several CLS sizes, and reports the first
 * divergence:
 *
 *  - DynInstr streams of step() and run() must be bit-identical, both
 *    as SoA hot planes and as shim-materialized records;
 *  - the LoopDetector must emit the identical event sequence whether fed
 *    per-instruction, by engine run() batches (default and odd-sized,
 *    hot planes or hot + cold planes), by control-trace replay, or by
 *    chunk-interleaved replay sources (trace_io/replay_source.hh);
 *  - Table-1 statistics must agree across every path;
 *  - detector invariants must hold on the reference stream (conservation,
 *    iteration-count/backedge accounting, event ordering, depth bounds);
 *  - the LET/LIT meters must match independent list-based LRU reference
 *    models (LRU victim validity);
 *  - the branch-predictor baselines (src/predict/) must end in the
 *    identical table state — stateHash plus lookup/hit counts — whether
 *    fed scalar onInstr calls, an odd-batch engine run(), or a
 *    control-trace replay's synthesized batches (predictor-state
 *    invariant, docs/PREDICTORS.md);
 *  - the memory-dependence conflict profiler (docs/DATASPEC.md) must
 *    produce identical conflict sets, violation-event sequences and
 *    state hashes whether its recording came from the scalar-fed
 *    detector, the SoA-batched engine run, or a control-trace replay,
 *    and whether its sidecar was recorded scalar or batched;
 *  - the §4 data-speculation profiler must produce the identical report
 *    and per-iteration live-in flag map whether its detector was fed scalar
 *    records or an engine run() (odd-sized and default batches) whose
 *    SoA spans it reads straight from the cold planes — under the
 *    default caps and under caps small enough to trip.
 *
 * `injectClsOffByOne` deliberately runs the replay detector one CLS entry
 * short, and `injectConflictIterOffByOne` shifts the replay-side conflict
 * profiler's iteration indexing by one — synthetic bugs the harness must
 * catch; the fuzz tests use them to prove the oracle has teeth.
 */

#ifndef LOOPSPEC_SYNTH_DIFF_CHECKER_HH
#define LOOPSPEC_SYNTH_DIFF_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "loop/loop_event.hh"
#include "program/program.hh"

namespace loopspec
{
namespace synth
{

/** One captured loop event, every field comparable across pipelines. */
struct LoggedEvent
{
    enum class Kind : uint8_t
    {
        ExecStart,
        IterStart,
        IterEnd,
        ExecEnd,
        SingleIter,
    };

    Kind kind = Kind::ExecStart;
    uint64_t pos = 0;
    uint64_t execId = 0;
    uint64_t parent = 0;     //!< ExecStart only
    uint32_t loop = 0;
    uint32_t a = 0;          //!< iterIndex / iterCount
    uint32_t depth = 0;
    uint32_t branchAddr = 0; //!< ExecStart / SingleIter
    ExecEndReason reason = ExecEndReason::Close;

    bool operator==(const LoggedEvent &o) const;
    bool operator!=(const LoggedEvent &o) const { return !(*this == o); }
};

/** Compact one-line rendering for failure messages. */
std::string describeEvent(const LoggedEvent &ev);

/** LoopListener capturing the full event stream for comparison. */
class EventLog : public LoopListener
{
  public:
    bool consumesInstrs() const override { return false; }
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterStart(const IterEvent &ev) override;
    void onIterEnd(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onSingleIterExec(const SingleIterExecEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    std::vector<LoggedEvent> events;
    uint64_t totalInstrs = 0;
    bool done = false;
};

/** DiffChecker configuration. */
struct DiffConfig
{
    /** CLS sizes every comparison runs at. */
    std::vector<size_t> clsSizes = {4, 8, 16};

    /** LET/LIT meter sizes (the Fig-4 sweep). */
    std::vector<size_t> meterSizes = {2, 4, 8, 16};

    /** Branch-predictor configurations for the predictor-state
     *  invariant (small tables so generated programs actually alias).
     *  Every implemented scheme is represented — the fuzz campaign
     *  (CI seeds 0..199, asan+ubsan) exercises each one per seed. */
    std::vector<std::string> predictorSpecs = {
        "bimodal:6",
        "gshare:6",
        "local:5/3",
        "let:4",
        "tournament:let:4+local:5/3",
        "tage:3/1-4/5",
    };

    /** Fuel cap: a generator bug cannot hang the harness (equivalence
     *  must hold under truncation too). */
    uint64_t maxInstrs = 150000;

    /** Run the control-replay detector with one CLS entry fewer — a
     *  deliberate off-by-one the harness must detect (self-check). */
    bool injectClsOffByOne = false;

    /** Shift the replay-side conflict profiler's per-iteration
     *  dependence indexing by one (ConflictConfig::injectIterOffByOne,
     *  replay leg only) — the conflict stage must flag the asymmetry
     *  (self-check). */
    bool injectConflictIterOffByOne = false;

    /**
     * Disk round-trip oracle (docs/TRACE_FORMAT.md): encode the
     * ControlTrace as a container image under both encodings, decode it
     * back and require bit-exact recovery; write it to a real file and
     * require the out-of-core streaming replay to reproduce the
     * reference event log; then apply seeded byte-flip / truncation /
     * extension corruptions to every image and require each one to be
     * rejected with a diagnostic — a corrupted container must never
     * decode cleanly or replay wrong-but-clean.
     * Default on; tools/fuzz_loopspec --no-disk-oracle disables it.
     */
    bool diskOracle = true;

    /** Seeded corruption variants per container image (disk oracle). */
    size_t corruptionsPerImage = 6;
};

/** Outcome of one differential check. */
struct DiffResult
{
    bool ok = true;
    std::string failure; //!< first divergence, human readable

    static DiffResult
    fail(std::string why)
    {
        return {false, std::move(why)};
    }
};

/** Run @p prog through every pipeline and compare. */
DiffResult diffProgram(const Program &prog, const DiffConfig &cfg = {});

} // namespace synth
} // namespace loopspec

#endif // LOOPSPEC_SYNTH_DIFF_CHECKER_HH
