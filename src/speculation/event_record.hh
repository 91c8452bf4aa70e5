/**
 * @file
 * Compact recording of the loop-event stream for the thread-speculation
 * simulator. The simulator is event driven (it never re-walks individual
 * instructions), so one trace pass yields a recording that can be re-used
 * across every policy / TU-count configuration — the experimental sweeps
 * of Figures 6 and 7 run off a single execution per workload.
 *
 * A recording holds only what the simulator reads: each execution with
 * the boundaries where its iterations start and where it ends, and the
 * trace-ordered IterStart/ExecEnd events over them. The other detector
 * callbacks (IterEnd, single-iteration executions) are not kept;
 * consumers of the full event stream (the Figure-4 LET/LIT meters) ride
 * a detector live, or a control-trace replay into one.
 *
 * Positions are expressed as *boundaries*: the trace position just after
 * the triggering instruction retires, i.e. the index of the first
 * instruction of the newly started iteration.
 */

#ifndef LOOPSPEC_SPECULATION_EVENT_RECORD_HH
#define LOOPSPEC_SPECULATION_EVENT_RECORD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "loop/loop_event.hh"

namespace loopspec
{

/** One detected loop execution, with all its iteration boundaries. */
struct ExecRecord
{
    uint64_t execId = 0;
    uint32_t loop = 0;
    uint32_t branchAddr = 0; //!< detecting transfer's address (initial B)
    uint32_t depth = 0;
    uint64_t parentExecId = 0;
    uint64_t endBoundary = 0;
    uint32_t iterCount = 0; //!< started iterations incl. the first
    ExecEndReason endReason = ExecEndReason::Close;
    /**
     * iterBoundaries[j-2] = first trace position of iteration j, for
     * j = 2..iterCount. Iteration j's segment is
     * [iterBoundaries[j-2], iterBoundaries[j-1]) with the last segment
     * closed by endBoundary.
     */
    std::vector<uint64_t> iterBoundaries;

    /**
     * Optional conflict annotation (annotateConflicts): iterDepSrc[j-2]
     * is the largest iteration index whose store feeds a load of
     * iteration j (0 = none). A thread spawned at front iteration f
     * violates on iteration j iff iterDepSrc[j-2] >= f. Derived
     * (compareRecordings ignores it).
     */
    std::vector<uint32_t> iterDepSrc;

    /**
     * Optional registers-only live-in annotation (mergeDataCorrectness):
     * iterLiveInOk[j-2] says whether every live-in *register* of
     * iteration j was stride predictable — the LiveIns and Full data
     * modes' misprediction source. Empty = not annotated (those modes
     * then treat every iteration as mispredicted). Derived.
     */
    std::vector<bool> iterLiveInOk;
};

/** Event kinds the simulator consumes. */
enum class SimEventKind : uint8_t
{
    IterStart, //!< iteration @p iterIndex of @p execIdx begins
    ExecEnd,   //!< execution @p execIdx terminates
};

/** One simulator event, in trace order. */
struct SimEvent
{
    uint64_t boundary;
    uint32_t execIdx; //!< index into LoopEventRecording::execs
    uint32_t iterIndex;
    SimEventKind kind;
};

/** The full recording of one trace. */
struct LoopEventRecording
{
    uint64_t totalInstrs = 0;
    std::vector<ExecRecord> execs;
    std::vector<SimEvent> events;

    /** Heap footprint including per-exec sidecars — the recording
     *  cache's accounting hook. */
    size_t
    memoryBytes() const
    {
        size_t bytes = execs.capacity() * sizeof(ExecRecord) +
                       events.capacity() * sizeof(SimEvent);
        for (const ExecRecord &e : execs) {
            bytes += e.iterBoundaries.capacity() * sizeof(uint64_t);
            bytes += e.iterDepSrc.capacity() * sizeof(uint32_t);
            bytes += e.iterLiveInOk.capacity() / 8;
        }
        return bytes;
    }
};

/**
 * Field-by-field comparison of two recordings (total length, exec
 * records with their iteration boundaries, sim events):
 * "" when identical, else a one-line description of the first
 * difference. The oracle behind --check-replay, in runWorkload and for
 * the sweep engine's derived recordings.
 * Annotations (iterDepSrc, iterLiveInOk) are not compared —
 * they come from separate merge steps, not from recording.
 */
std::string compareRecordings(const LoopEventRecording &a,
                              const LoopEventRecording &b);

class DataSpecProfiler; // forward: see dataspec/data_profiler.hh

/**
 * Copy the profiler's per-iteration all-live-in-registers-predicted
 * flags into a recording's ExecRecords as iterLiveInOk, the LiveIns and
 * Full modes' source (profiler must have run with recordPerIteration
 * over the same trace).
 */
void mergeDataCorrectness(LoopEventRecording &recording,
                          const DataSpecProfiler &profiler);

/**
 * LoopListener building a LoopEventRecording. Attach to a LoopDetector,
 * run the trace, then take() the result.
 *
 * Each IterStart/ExecEnd appends one SimEvent and sets or appends one
 * boundary of its ExecRecord, found through a flat execId -> index
 * vector (the detector allocates ids densely from 1). onTraceDone clamps
 * the boundaries of executions flushed at trace end to totalInstrs.
 */
class LoopEventRecorder : public LoopListener
{
  public:
    /** Event-driven only: instruction data carries no information. */
    bool consumesInstrs() const override { return false; }
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterStart(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    /** Move the finished recording out (valid after onTraceDone). */
    LoopEventRecording take();

  private:
    /** Index into rec.execs of live execution @p exec_id. */
    uint32_t liveIndex(uint64_t exec_id) const;

    LoopEventRecording rec;
    /** execId -> index into rec.execs; UINT32_MAX = not live. */
    std::vector<uint32_t> execIndex;
    size_t liveExecs = 0;
    bool done = false;
};

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_EVENT_RECORD_HH
