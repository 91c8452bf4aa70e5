/**
 * @file
 * Thread-speculation policy configuration: the paper's §3.1.2 policies
 * (IDLE, STR, STR(i)) plus the conventional branch-predictor baseline
 * policy PRED (docs/PREDICTORS.md, docs/DESIGN.md §10), which spawns
 * threads from chained branch predictions instead of LET trip
 * predictions.
 */

#ifndef LOOPSPEC_SPECULATION_POLICY_HH
#define LOOPSPEC_SPECULATION_POLICY_HH

#include <cstdint>
#include <string>

#include "predict/branch_predictor.hh"

namespace loopspec
{

/** Which policy decides how many threads to speculate. */
enum class SpecPolicy : uint8_t
{
    Idle, //!< speculate on every idle TU (§3.1.2)
    Str,  //!< bound by the LET trip-count stride prediction (§3.1.2)
    StrI, //!< STR plus the nested-non-speculated-loop squash rule
    /**
     * Conventional-predictor baseline: allocation is bound by a chained
     * branch prediction of the loop's closing branch — spawn while the
     * predictor says "taken again", stop at its predicted exit
     * (SpecConfig::predictor selects the scheme).
     */
    Pred,
};

/** Printable policy name ("IDLE", "STR", "STR(i)", "PRED"); PRED cells
 *  are usually labelled with predictorName() instead. */
std::string specPolicyName(SpecPolicy policy, unsigned nest_limit);

/** Parse "idle" / "str" / "str1".."str9"; fatal() on anything else. */
void parseSpecPolicy(const std::string &text, SpecPolicy *policy,
                     unsigned *nest_limit);

/** Non-fatal parseSpecPolicy for untrusted input (the sweep service):
 *  "" on success, else the diagnostic parseSpecPolicy would have died
 *  with. */
std::string tryParseSpecPolicy(const std::string &text, SpecPolicy *policy,
                               unsigned *nest_limit);

/**
 * How the simulator treats inter-thread *data* dependences — the paper's
 * §4 follow-up, modelled on top of its §3 control speculation. The two
 * squash sources are orthogonal: LiveIns checks live-in registers,
 * Conflicts checks memory, Full checks both (checksLiveIns /
 * checksConflicts).
 */
enum class DataMode : uint8_t
{
    /** §3 model: data dependences ignored (control-only upper bound). */
    None,
    /**
     * Live-in register misprediction squashes only: a thread is
     * squashed when the registers of an iteration between its spawn
     * point and its own were not stride-predictable
     * (ExecRecord::iterLiveInOk). Violations cascade and charge
     * SpecConfig::dataSquashCycles as in Conflicts. Memory is assumed
     * dependence-free.
     */
    LiveIns,
    /**
     * Memory-dependence violations only (docs/DATASPEC.md): a thread is
     * squashed when its iteration loads an address stored by an
     * iteration at or after the spawn point (ExecRecord::iterDepSrc,
     * annotated from the conflict profiler). Violations cascade — every
     * younger in-flight thread of the same speculation restarts too —
     * and each violation event charges SpecConfig::dataSquashCycles of
     * recovery. Live-in register values are assumed perfect.
     */
    Conflicts,
    /**
     * The combined model: Conflicts' memory-violation check followed by
     * LiveIns' register check — the full control+data figure.
     */
    Full,
};

/** Does @p mode squash on profiled memory conflicts (iterDepSrc)? */
inline bool
checksConflicts(DataMode mode)
{
    return mode == DataMode::Conflicts || mode == DataMode::Full;
}

/** Does @p mode squash on live-in register mispredictions
 *  (iterLiveInOk)? */
inline bool
checksLiveIns(DataMode mode)
{
    return mode == DataMode::LiveIns || mode == DataMode::Full;
}

/** Full simulator configuration. */
struct SpecConfig
{
    SpecConfig() = default;
    SpecConfig(unsigned tus, SpecPolicy pol, unsigned nest = 3,
               DataMode dm = DataMode::None, size_t let = 0)
        : numTUs(tus), policy(pol), nestLimit(nest), dataMode(dm),
          letEntries(let)
    {
    }

    unsigned numTUs = 4;
    SpecPolicy policy = SpecPolicy::Str;
    /** The i in STR(i): max non-speculated loops nested in a speculated
     *  one before its threads are squashed. Ignored by IDLE/STR. */
    unsigned nestLimit = 3;
    DataMode dataMode = DataMode::None;
    /** LET capacity backing the STR trip predictor; 0 = unbounded
     *  (the §3 evaluation's assumption). */
    size_t letEntries = 0;
    /** Branch-predictor scheme behind SpecPolicy::Pred; ignored by the
     *  paper policies. */
    PredictorConfig predictor;
    /**
     * Per-loop adaptive spawn throttling (docs/PREDICTORS.md): width of
     * the per-loop confidence counter trained on verify/squash
     * outcomes. 0 (the default) disables throttling entirely — the
     * simulator then behaves bit-identically to the paper policies.
     */
    unsigned spawnConfidenceBits = 0;
    /**
     * Spawning from a loop is suppressed while its confidence counter
     * sits below this threshold; counters start at the threshold, so
     * every loop begins enabled. Must be in [1, 2^bits - 1] when
     * throttling is on.
     */
    unsigned spawnConfidenceThreshold = 2;
    /**
     * Recovery penalty charged once per data-violation event (memory
     * conflict or live-in misprediction) in every data mode but
     * None — the per-edge misspeculation cost of the LAMP remediation
     * model. 0 (the default) keeps the squash itself as the only cost,
     * and the simulator bit-identical to the pre-dataspec model when
     * dataMode is None.
     */
    unsigned dataSquashCycles = 0;
};

/** Results of one speculation simulation. */
struct SpecStats
{
    uint64_t totalInstrs = 0;
    uint64_t cycles = 0;
    uint64_t specEvents = 0;        //!< speculation actions (>=1 thread)
    uint64_t threadsSpeculated = 0; //!< total speculative threads created
    uint64_t threadsVerified = 0;   //!< became non-speculative (correct)
    uint64_t threadsSquashed = 0;   //!< squashed (misspeculation or rule)
    uint64_t squashedByNestRule = 0; //!< subset of squashed: STR(i) rule
    uint64_t dataMisses = 0; //!< control-correct threads whose live-in
                             //!< registers mispredicted (LiveIns/Full)
    uint64_t conflictSquashes = 0; //!< threads squashed by a profiled
                                   //!< memory-dependence violation
                                   //!< (Conflicts/Full modes)
    uint64_t instrToVerifSum = 0;   //!< over all threads, spawn->verify
    uint64_t spawnsThrottled = 0;   //!< spawn chances vetoed by the
                                    //!< per-loop confidence throttle

    /** Average active-and-correct threads per cycle. */
    double
    tpc() const
    {
        return cycles ? static_cast<double>(totalInstrs) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Fraction of speculative threads that were verified correct. */
    double
    hitRatio() const
    {
        uint64_t n = threadsVerified + threadsSquashed;
        return n ? static_cast<double>(threadsVerified) /
                       static_cast<double>(n)
                 : 0.0;
    }

    /** Average threads per speculation action. */
    double
    threadsPerSpec() const
    {
        return specEvents ? static_cast<double>(threadsSpeculated) /
                                static_cast<double>(specEvents)
                          : 0.0;
    }

    /** Average instructions between speculation and verification. */
    double
    avgInstrToVerif() const
    {
        uint64_t n = threadsVerified + threadsSquashed;
        return n ? static_cast<double>(instrToVerifSum) /
                       static_cast<double>(n)
                 : 0.0;
    }

    /** Every counter equal — the definition of "bit-identical" used by
     *  the sweep determinism checks. Keep exhaustive when adding
     *  fields. */
    bool
    operator==(const SpecStats &o) const
    {
        return totalInstrs == o.totalInstrs && cycles == o.cycles &&
               specEvents == o.specEvents &&
               threadsSpeculated == o.threadsSpeculated &&
               threadsVerified == o.threadsVerified &&
               threadsSquashed == o.threadsSquashed &&
               squashedByNestRule == o.squashedByNestRule &&
               dataMisses == o.dataMisses &&
               conflictSquashes == o.conflictSquashes &&
               instrToVerifSum == o.instrToVerifSum &&
               spawnsThrottled == o.spawnsThrottled;
    }
    bool operator!=(const SpecStats &o) const { return !(*this == o); }
};

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_POLICY_HH
