/**
 * @file
 * LAMP-style memory-dependence conflict profiler (docs/DATASPEC.md).
 *
 * For every detected loop execution, the profiler finds the
 * cross-iteration read-after-write dependences a speculative
 * parallelisation would violate: a load in iteration j reading an
 * address last stored by some earlier iteration w < j of the same
 * execution. Dependences aggregate per loop into a *conflict set* of
 * static (store PC -> load PC) edges with dynamic frequencies — the
 * LAMP profile — and each dynamic instance is recorded as a potential
 * *violation event* plus a per-iteration "earliest safe spawn point"
 * annotation (iterDepSrc) the ThreadSpecSimulator's Conflicts/Full data
 * modes consume.
 *
 * profileConflicts is a pure function of a LoopEventRecording and the
 * functional pass's MemAccessTrace sidecar. Neither input depends on
 * which engine path produced it, and the recording can itself be
 * replay-derived at any CLS from a ControlTrace — so conflict artifacts
 * stay one-functional-pass per workload and cacheable in sweepd, and the
 * DiffChecker can demand bit-equal profiles across scalar step(),
 * SoA-batched run() and ControlTrace replay.
 */

#ifndef LOOPSPEC_DATASPEC_CONFLICT_PROFILER_HH
#define LOOPSPEC_DATASPEC_CONFLICT_PROFILER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataspec/mem_trace.hh"
#include "speculation/event_record.hh"

namespace loopspec
{

/** Profiler knobs. */
struct ConflictConfig
{
    /** Max distinct (storePc, loadPc) edges kept per loop; further
     *  dynamic conflicts lump into LoopConflictSet::edgeOverflowCount
     *  (still counted in violations and iterDepSrc). */
    size_t maxEdgesPerLoop = 65536;

    /** Max violation events materialised in ConflictProfile::violations;
     *  totalViolations and stateHash() keep counting past the cap. */
    size_t maxViolations = 1u << 20;

    /**
     * Fault injection for the fuzz harness's self-check: records each
     * iteration's dependence source one slot late (j-1 instead of j-2),
     * the classic off-by-one in boundary indexing. Must make the
     * DiffChecker's conflict stage scream; never set outside tests.
     */
    bool injectIterOffByOne = false;
};

/** One static dependence edge of a loop's conflict set. */
struct ConflictEdge
{
    uint32_t storePc = 0;
    uint32_t loadPc = 0;
    uint64_t count = 0; //!< dynamic cross-iteration instances
};

/** Per-loop conflict set (edges sorted by (storePc, loadPc)). */
struct LoopConflictSet
{
    std::vector<ConflictEdge> edges;
    uint64_t edgeOverflowCount = 0; //!< instances beyond maxEdgesPerLoop
};

/** One dynamic cross-iteration RAW instance, in trace order. */
struct ConflictViolation
{
    uint64_t seq = 0;    //!< retire seq of the violating load
    uint64_t execId = 0;
    uint32_t iterIndex = 0; //!< consuming iteration j (>= 2)
    uint32_t srcIter = 0;   //!< producing iteration w (< j)
    uint32_t loadPc = 0;
    uint32_t storePc = 0;
};

/** The complete profile of one (recording, mem-trace) pair. */
struct ConflictProfile
{
    std::map<uint32_t, LoopConflictSet> loops;
    std::vector<ConflictViolation> violations;
    uint64_t totalViolations = 0;

    /**
     * Per execution (by execId): iterDepSrc[j-2], for iteration
     * j = 2..iterCount, is the largest iteration index w whose store
     * feeds a load of iteration j (0 = iteration j has no
     * cross-iteration dependence). A thread spawned at front iteration
     * f violates on iteration j iff iterDepSrc[j-2] >= f.
     */
    std::unordered_map<uint64_t, std::vector<uint32_t>> iterDepSrc;

    /** FNV-1a over the entire profile (deterministic iteration order);
     *  the DiffChecker's cross-path equivalence token. */
    uint64_t stateHash() const;

    size_t memoryBytes() const;
};

/**
 * Build the conflict profile: merge-walk the recording's simulator
 * events (iteration starts and execution ends, by boundary) against the
 * memory-access stream, tracking per-execution last-writer maps. Only
 * detected iterations are observable (the detector sees a loop from its
 * second iteration on), matching what the modelled hardware could act
 * upon.
 */
ConflictProfile profileConflicts(const LoopEventRecording &recording,
                                 const MemAccessTrace &mem,
                                 const ConflictConfig &config = {});

/** "" when identical, else a one-line description of the first
 *  difference — the DiffChecker conflict stage's oracle. */
std::string compareConflictProfiles(const ConflictProfile &a,
                                    const ConflictProfile &b);

/**
 * Copy the profile's per-iteration dependence sources into the
 * recording's ExecRecords (ExecRecord::iterDepSrc), sized to each
 * execution's iteration count. Enables the simulator's Conflicts/Full
 * data modes. The annotation is a derived artifact: it is not compared
 * by compareRecordings.
 */
void annotateConflicts(LoopEventRecording *recording,
                       const ConflictProfile &profile);

} // namespace loopspec

#endif // LOOPSPEC_DATASPEC_CONFLICT_PROFILER_HH
