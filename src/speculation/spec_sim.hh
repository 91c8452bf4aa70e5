/**
 * @file
 * Event-driven multithreaded thread-unit (TU) simulator implementing the
 * paper's §3.1 control-speculation scheme over a recorded loop-event
 * stream.
 *
 * Machine model (docs/DESIGN.md §5.8-§5.12): N TUs retire one instruction per
 * cycle; one TU is non-speculative (the "front") and always runs; idle
 * TUs are allocated to future iterations of the loop whose iteration the
 * front just started; the allocation count follows the IDLE/STR/STR(i)
 * policy; when the front reaches the start of a speculated iteration the
 * owning TU is verified and becomes the new front, the front jumping over
 * the instructions that TU already executed; when the front reaches the
 * end of a loop execution, outstanding speculative threads on that loop
 * are squashed. Spawn, verification and squash are free (0 cycles).
 */

#ifndef LOOPSPEC_SPECULATION_SPEC_SIM_HH
#define LOOPSPEC_SPECULATION_SPEC_SIM_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "predict/branch_predictor.hh"
#include "predict/sat_counter.hh"
#include "speculation/event_record.hh"
#include "speculation/policy.hh"
#include "tables/iter_predictor.hh"
#include "util/logging.hh"

namespace loopspec
{

/**
 * Read-only per-recording lookup tables shared across simulator
 * configurations: the parent chain resolved from exec ids to indices,
 * a dense id per distinct loop address (so per-loop simulator state is
 * a flat array), and a flattened per-execution iteration-segment table
 * (the boundary list of each execution with its end boundary appended,
 * so a segment lookup is two adjacent loads instead of a branch on the
 * last iteration). Building these costs one pass over the recording; a
 * configuration sweep builds them once and hands the same index to
 * every (policy × TU-count × predictor) simulator instead of rebuilding
 * per instance.
 */
class RecordingIndex
{
  public:
    explicit RecordingIndex(const LoopEventRecording &recording);

    static constexpr uint32_t noParent = UINT32_MAX;

    /** Parent execution index of @p exec_idx, or noParent. */
    uint32_t
    parent(uint32_t exec_idx) const
    {
        return parentIdx[exec_idx];
    }

    /** Dense id of @p exec_idx's loop: distinct loop addresses are
     *  numbered 0..numLoops()-1 in order of first execution. */
    uint32_t
    loopId(uint32_t exec_idx) const
    {
        return loopIds[exec_idx];
    }

    /** Distinct loops in the recording. */
    uint32_t numLoops() const { return loopCount; }

    /** Trace segment of iteration @p j (2-based) of execution
     *  @p exec_idx; the iteration must exist. */
    std::pair<uint64_t, uint64_t>
    segment(uint32_t exec_idx, uint32_t j) const
    {
        size_t off = segOffset[exec_idx];
        LOOPSPEC_ASSERT(j >= 2 &&
                            off + (j - 1) < segOffset[exec_idx + 1],
                        "iteration out of range");
        off += j - 2;
        return {segBounds[off], segBounds[off + 1]};
    }

    /** Heap footprint of the index tables — the recording cache's
     *  accounting hook (src/service/recording_cache.hh). */
    size_t
    memoryBytes() const
    {
        return parentIdx.capacity() * sizeof(uint32_t) +
               loopIds.capacity() * sizeof(uint32_t) +
               segOffset.capacity() * sizeof(size_t) +
               segBounds.capacity() * sizeof(uint64_t);
    }

  private:
    std::vector<uint32_t> parentIdx; //!< execIdx -> parent or noParent
    std::vector<uint32_t> loopIds;   //!< execIdx -> dense loop id
    uint32_t loopCount = 0;
    /** execIdx -> first segBounds slot; one sentinel entry at the end
     *  so segment() can bound-check against the next offset. */
    std::vector<size_t> segOffset;
    std::vector<uint64_t> segBounds; //!< iterBoundaries + endBoundary
};

/**
 * Runs one (policy, TU-count) configuration over a recording. The same
 * recording can be reused across any number of simulator instances;
 * sweeps should additionally share one RecordingIndex across all of
 * them (the two-argument constructor builds a private one).
 */
class ThreadSpecSimulator
{
  public:
    ThreadSpecSimulator(const LoopEventRecording &recording,
                        SpecConfig config);

    /** Sweep form: @p index must outlive the simulator and have been
     *  built from @p recording. */
    ThreadSpecSimulator(const LoopEventRecording &recording,
                        const RecordingIndex &index, SpecConfig config);

    /** Execute the whole recording and return the statistics. */
    SpecStats run();

  private:
    /** Two-argument form: runs on, then adopts, a private index. */
    ThreadSpecSimulator(const LoopEventRecording &recording,
                        std::unique_ptr<RecordingIndex> owned,
                        SpecConfig config);

    /** One outstanding speculative thread (a future loop iteration). */
    struct SpecThread
    {
        uint32_t iterIndex;
        /** Front's iteration at spawn time: iterations < this had
         *  completed when the thread started, so only stores from
         *  iterations >= this can feed it a stale value
         *  (Conflicts/Full data modes). */
        uint32_t spawnFrontIter;
        bool phantom;       //!< beyond the execution's real trip count
        uint64_t segStart;  //!< trace segment (real threads only)
        uint64_t segEnd;
        uint64_t spawnClock;
        uint64_t spawnBoundary;
    };

    /**
     * FIFO of one live execution's outstanding threads, in iteration
     * order: a ring over storage allocated once. idleTUs() keeps every
     * queue shorter than numTUs, so capacity numTUs never overflows.
     */
    class ThreadQueue
    {
      public:
        explicit ThreadQueue(unsigned capacity) : ring(capacity) {}

        bool empty() const { return count == 0; }
        unsigned size() const { return count; }
        const SpecThread &front() const { return ring[head]; }

        void
        push_back(const SpecThread &t)
        {
            LOOPSPEC_ASSERT(count < ring.size(), "thread queue full");
            size_t tail = head + count;
            if (tail >= ring.size())
                tail -= ring.size();
            ring[tail] = t;
            ++count;
        }

        void
        pop_front()
        {
            if (++head == ring.size())
                head = 0;
            --count;
        }

      private:
        std::vector<SpecThread> ring;
        unsigned head = 0;
        unsigned count = 0;
    };

    /** Per-live-execution speculation state: one slot of the live
     *  table, reused once its execution ends. */
    struct ActiveExec
    {
        explicit ActiveExec(unsigned tus) : queue(tus) {}

        uint32_t execIdx = 0; //!< the live execution holding this slot
        uint32_t loopId = 0;  //!< its dense loop id (per-loop state)
        ThreadQueue queue;    //!< outstanding, by iteration order
    };

    void handleIterStart(const SimEvent &ev, bool at_front);
    void handleExecEnd(const SimEvent &ev);

    /** The live slot of @p exec_idx, or nullptr when it is not live. */
    ActiveExec *findActive(uint32_t exec_idx);

    /** The live slot of @p exec_idx, taking a free one if needed. */
    ActiveExec &activate(uint32_t exec_idx);

    /** Free @p ax (its queue must be empty) for a later execution. */
    void retire(ActiveExec &ax);

    /** Trip-predictor key of @p exec_idx: the dense loop id in the
     *  unbounded mode, the loop address in the bounded (LET) mode,
     *  whose LoopTable reserves key 0 for a free slot. */
    uint32_t
    letKey(uint32_t exec_idx) const
    {
        return cfg.letEntries ? rec.execs[exec_idx].loop
                              : idx->loopId(exec_idx);
    }

    /** Instructions thread @p t has retired by the current clock. */
    uint64_t executedSoFar(const SpecThread &t) const;

    /**
     * Policy decision: threads to spawn for @p exec at iteration @p j,
     * with @p idle TUs available. Passing a large @p idle measures
     * *desire* — how many threads the loop would take if TUs were free
     * (the STR(i) rule only charges a nested loop to its speculated
     * ancestors when it wanted threads and got none; this is what keeps
     * trip-2 inner loops, which want nothing at their only observable
     * iteration start, from squashing well-speculated outer loops).
     */
    unsigned spawnCount(const ExecRecord &exec, uint32_t j,
                        const ActiveExec &ax, unsigned idle) const;

    /** Spawn up to policy for @p ax, whose iteration @p j just began. */
    void trySpawn(ActiveExec &ax, uint32_t j, uint64_t boundary);

    /** Squash every outstanding thread of @p ax (stats charged at
     *  @p boundary); frees their TUs. */
    void squashAll(ActiveExec &ax, uint64_t boundary, bool nest_rule);

    /** STR(i): charge the non-speculated execution @p exec_idx to its
     *  speculated ancestors, squashing those over the limit. */
    void applyNestRule(uint32_t exec_idx, uint64_t boundary);

    /** How a thread's verification resolves under the data model. */
    enum class DataVerdict : uint8_t
    {
        Ok,           //!< data correct, the thread's work stands
        LiveInMiss,   //!< live-in register misprediction (LiveIns/Full)
        ConflictMiss, //!< memory-dependence violation (Conflicts/Full)
    };

    /** Conflicts/Full: does @p t's iteration load a value stored by an
     *  iteration at or after its spawn point (ExecRecord::iterDepSrc)? */
    bool conflictViolates(const ExecRecord &exec,
                          const SpecThread &t) const;

    /** LiveIns/Full: was a live-in register of an iteration between
     *  @p t's spawn point and its own not stride-predictable
     *  (ExecRecord::iterLiveInOk)? */
    bool liveInViolates(const ExecRecord &exec,
                        const SpecThread &t) const;

    /** Data check for a control-correct thread: the conflict check,
     *  then the live-in check, each when the mode asks for it. */
    DataVerdict dataVerdict(const ExecRecord &exec,
                            const SpecThread &t) const;

    /** Data-violation recovery: count the verdict, cascade-
     *  squash every younger in-flight thread of @p ax (their inputs
     *  came from the violating thread's wrong state) and charge
     *  SpecConfig::dataSquashCycles once. The violating thread itself
     *  was already popped and counted squashed by the caller. */
    void applyDataViolation(ActiveExec &ax, DataVerdict verdict,
                            uint64_t boundary);

    /** Spawn throttle: is dense loop @p loop_id below the confidence
     *  threshold? Always false with spawnConfidenceBits == 0. */
    bool spawnSuppressed(uint32_t loop_id) const;

    /** Train @p loop_id's spawn-confidence counter: up on a verified
     *  thread (or a correct trip prediction while suppressed), down on
     *  a squash. No-op with spawnConfidenceBits == 0. */
    void trainSpawnConf(uint32_t loop_id, bool good);

    unsigned idleTUs() const;

    const LoopEventRecording &rec;
    SpecConfig cfg;

    std::unique_ptr<RecordingIndex> ownedIndex; //!< two-arg ctor only
    const RecordingIndex *idx;                  //!< never null

    /** Live executions in slots [0, numLive); the rest are free with
     *  their queues allocated. At most one slot per CLS entry is live,
     *  and lookups scan from the most recent activation. Recorded
     *  depths cannot index the table: after a CLS overflow drops the
     *  deepest entry, a new execution reuses the top's depth while the
     *  old top is still live. */
    std::vector<ActiveExec> slots;
    unsigned numLive = 0;
    IterCountPredictor predictor;
    /**
     * PRED policy only (null otherwise): the conventional baseline
     * predictor, trained on the retired outcomes of each loop's closing
     * backward branch as they are observable in the event recording —
     * taken at every iteration start, not-taken at a Close execution
     * end. That is exactly the information the LET stride predictor
     * sees, so the comparison is apples-to-apples
     * (docs/PREDICTORS.md).
     */
    std::unique_ptr<BranchPredictor> branchPred;
    /**
     * §2.3.2 speculation-disable state, indexed by dense loop id (a zero
     * counter is a loop never charged): a loop whose threads keep being
     * squashed by the STR(i) nest rule without intervening verified
     * speculations stops being speculated (the paper's "loops with a
     * poor prediction rate may be good candidates to store in this
     * [disable] table"). Verified threads decay the penalty. Only the
     * nest rule charges it; plain STR/IDLE never disable anything.
     */
    std::vector<SatCounter<2>> squashPenalty;
    /**
     * Per-loop spawn-throttle confidence (spawnConfidenceBits > 0
     * only; empty otherwise), indexed by dense loop id. A runtime-width
     * saturating counter (the SatCounter template is compile-time-width):
     * starts at the threshold, counts up on verified threads, down on
     * squashes; spawning is suppressed while below the threshold. While
     * a loop is suppressed it re-earns confidence through exact LET trip
     * predictions at execution ends — without that path a decayed loop
     * would never produce verify/squash outcomes again and throttling
     * would be permanent (docs/PREDICTORS.md "Spawn throttling").
     */
    std::vector<uint8_t> spawnConf;
    uint64_t clock = 0;
    uint64_t frontPos = 0;
    unsigned outstanding = 0; //!< live speculative threads (incl. phantom)
    SpecStats stats;
};

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_SPEC_SIM_HH
