#include "speculation/spec_sim.hh"

#include <algorithm>

#include "util/logging.hh"

namespace loopspec
{

std::string
specPolicyName(SpecPolicy policy, unsigned nest_limit)
{
    switch (policy) {
      case SpecPolicy::Idle:
        return "IDLE";
      case SpecPolicy::Str:
        return "STR";
      case SpecPolicy::StrI:
        return strprintf("STR(%u)", nest_limit);
      case SpecPolicy::Pred:
        return "PRED";
      default:
        panic("bad SpecPolicy");
    }
}

std::string
tryParseSpecPolicy(const std::string &text, SpecPolicy *policy,
                   unsigned *nest_limit)
{
    if (text == "idle" || text == "IDLE") {
        *policy = SpecPolicy::Idle;
        return "";
    }
    if (text == "str" || text == "STR") {
        *policy = SpecPolicy::Str;
        return "";
    }
    if ((text.rfind("str", 0) == 0 || text.rfind("STR", 0) == 0) &&
        text.size() == 4 && text[3] >= '1' && text[3] <= '9') {
        *policy = SpecPolicy::StrI;
        *nest_limit = static_cast<unsigned>(text[3] - '0');
        return "";
    }
    return "bad speculation policy '" + text + "' (want idle|str|strN)";
}

void
parseSpecPolicy(const std::string &text, SpecPolicy *policy,
                unsigned *nest_limit)
{
    std::string err = tryParseSpecPolicy(text, policy, nest_limit);
    if (!err.empty())
        fatal("%s", err.c_str());
}

RecordingIndex::RecordingIndex(const LoopEventRecording &recording)
{
    const auto &execs = recording.execs;

    // Resolve parent execIds to indices once; the recording stores ids.
    std::unordered_map<uint64_t, uint32_t> byId;
    byId.reserve(execs.size());
    for (uint32_t i = 0; i < execs.size(); ++i)
        byId.emplace(execs[i].execId, i);
    parentIdx.resize(execs.size(), noParent);
    for (uint32_t i = 0; i < execs.size(); ++i) {
        uint64_t p = execs[i].parentExecId;
        if (p != 0) {
            auto it = byId.find(p);
            if (it != byId.end())
                parentIdx[i] = it->second;
        }
    }

    // Flatten every execution's iteration boundaries, each followed by
    // its end boundary: iteration j of exec x spans
    // [segBounds[segOffset[x] + j-2], segBounds[segOffset[x] + j-1]).
    size_t total = 0;
    segOffset.resize(execs.size() + 1);
    for (size_t i = 0; i < execs.size(); ++i) {
        segOffset[i] = total;
        total += execs[i].iterBoundaries.size() + 1;
    }
    segOffset[execs.size()] = total;
    segBounds.resize(total);
    for (size_t i = 0; i < execs.size(); ++i) {
        size_t off = segOffset[i];
        const auto &bounds = execs[i].iterBoundaries;
        std::copy(bounds.begin(), bounds.end(), segBounds.begin() + off);
        segBounds[off + bounds.size()] = execs[i].endBoundary;
    }
}

ThreadSpecSimulator::ThreadSpecSimulator(
    const LoopEventRecording &recording, SpecConfig config)
    : ThreadSpecSimulator(recording,
                          std::make_unique<RecordingIndex>(recording),
                          config)
{
}

ThreadSpecSimulator::ThreadSpecSimulator(
    const LoopEventRecording &recording,
    std::unique_ptr<RecordingIndex> owned, SpecConfig config)
    : ThreadSpecSimulator(recording, *owned, config)
{
    ownedIndex = std::move(owned);
}

ThreadSpecSimulator::ThreadSpecSimulator(
    const LoopEventRecording &recording, const RecordingIndex &index,
    SpecConfig config)
    : rec(recording), cfg(config), idx(&index),
      predictor(config.letEntries)
{
    LOOPSPEC_ASSERT(cfg.numTUs >= 1, "need at least one TU");
    LOOPSPEC_ASSERT(cfg.spawnConfidenceBits == 0 ||
                        (cfg.spawnConfidenceBits <= 8 &&
                         cfg.spawnConfidenceThreshold >= 1 &&
                         cfg.spawnConfidenceThreshold <
                             (1u << cfg.spawnConfidenceBits)),
                    "bad spawn-confidence configuration");
    if (cfg.policy == SpecPolicy::Pred)
        branchPred = makePredictor(cfg.predictor);
}

bool
ThreadSpecSimulator::spawnSuppressed(uint32_t loop)
{
    if (cfg.spawnConfidenceBits == 0)
        return false;
    auto it = spawnConf
                  .emplace(loop, static_cast<uint8_t>(
                                     cfg.spawnConfidenceThreshold))
                  .first;
    return it->second < cfg.spawnConfidenceThreshold;
}

void
ThreadSpecSimulator::trainSpawnConf(uint32_t loop, bool good)
{
    if (cfg.spawnConfidenceBits == 0)
        return;
    uint8_t max = static_cast<uint8_t>(
        (1u << cfg.spawnConfidenceBits) - 1);
    auto it = spawnConf
                  .emplace(loop, static_cast<uint8_t>(
                                     cfg.spawnConfidenceThreshold))
                  .first;
    if (good) {
        if (it->second < max)
            ++it->second;
    } else if (it->second > 0) {
        --it->second;
    }
}

bool
ThreadSpecSimulator::conflictViolates(const ExecRecord &exec,
                                      const SpecThread &t) const
{
    if (t.iterIndex < 2)
        return false;
    size_t idx = t.iterIndex - 2;
    // annotateConflicts sizes iterDepSrc to the full iteration count, so
    // a missing slot means "no recorded dependence", not "unknown".
    if (idx >= exec.iterDepSrc.size())
        return false;
    uint32_t src = exec.iterDepSrc[idx];
    // src < spawnFrontIter: the producing iteration had completed when
    // the thread spawned, its store is architectural state. 0 = none.
    return src != 0 && src >= t.spawnFrontIter;
}

bool
ThreadSpecSimulator::liveInViolates(const ExecRecord &exec,
                                    const SpecThread &t) const
{
    // Chained live-in prediction: every iteration between the spawn
    // point and this thread's got its registers from the predictor, and
    // iterLiveInOk records one-step-ahead predictability. Un-annotated
    // iterations are conservatively mispredicted.
    for (uint32_t i = t.spawnFrontIter + 1; i <= t.iterIndex; ++i) {
        size_t idx = i - 2; // i >= 3: spawnFrontIter is >= 2
        if (idx >= exec.iterLiveInOk.size() || !exec.iterLiveInOk[idx])
            return true;
    }
    return false;
}

ThreadSpecSimulator::DataVerdict
ThreadSpecSimulator::dataVerdict(const ExecRecord &exec,
                                 const SpecThread &t) const
{
    // Memory wins ties: a conflicting load poisons the iteration no
    // matter how well its registers were predicted.
    if (checksConflicts(cfg.dataMode) && conflictViolates(exec, t))
        return DataVerdict::ConflictMiss;
    if (checksLiveIns(cfg.dataMode) && liveInViolates(exec, t))
        return DataVerdict::LiveInMiss;
    return DataVerdict::Ok;
}

void
ThreadSpecSimulator::applyDataViolation(ActiveExec &ax,
                                        DataVerdict verdict,
                                        uint64_t boundary)
{
    if (verdict == DataVerdict::ConflictMiss)
        ++stats.conflictSquashes;
    else
        ++stats.dataMisses;
    // Violation recovery (docs/DATASPEC.md): the violating thread's
    // younger siblings consumed its state; restart them all and stall
    // the front for the configured recovery penalty.
    squashAll(ax, boundary, false);
    clock += cfg.dataSquashCycles;
}

unsigned
ThreadSpecSimulator::idleTUs() const
{
    unsigned busy = 1 + outstanding; // the front plus live spec threads
    return busy >= cfg.numTUs ? 0 : cfg.numTUs - busy;
}

uint64_t
ThreadSpecSimulator::executedSoFar(const SpecThread &t) const
{
    if (t.phantom)
        return 0;
    uint64_t len = t.segEnd - t.segStart;
    uint64_t elapsed = clock - t.spawnClock;
    return std::min(len, elapsed);
}

unsigned
ThreadSpecSimulator::spawnCount(const ExecRecord &exec, uint32_t j,
                                const ActiveExec &ax, unsigned idle) const
{
    if (idle == 0)
        return 0;
    if (cfg.policy == SpecPolicy::Idle)
        return idle;
    if (cfg.policy == SpecPolicy::Pred) {
        // Conventional baseline: ask the branch predictor how many more
        // times the loop's closing branch will be taken, chaining
        // speculatively. Each predicted-taken outcome is one future
        // iteration worth spawning; the chain's first predicted
        // not-taken outcome is the predicted loop exit.
        return branchPred->predictRun(exec.branchAddr, idle);
    }

    TripPrediction p = predictor.predict(exec.loop);
    if (p.kind == TripPredictionKind::Unknown)
        return idle; // §3.1.2: nothing known -> use every idle TU
    // A prediction the execution has already outlived is disproven.
    // Recover by doubling the predicted total until it covers the
    // current iteration: short loops overshoot by at most one thread,
    // while a dispatch loop whose warm-up split left a tiny last-count
    // ramps back to full speculation within a few iterations (without
    // this, such loops starve forever; with a jump straight to "all
    // idle", trip-2..3 loops drown in phantom threads).
    int64_t predicted = p.count;
    while (predicted < static_cast<int64_t>(j))
        predicted *= 2;
    int64_t remaining = predicted - static_cast<int64_t>(j) -
                        static_cast<int64_t>(ax.queue.size());
    if (remaining <= 0)
        return 0;
    return static_cast<unsigned>(
        std::min<int64_t>(remaining, static_cast<int64_t>(idle)));
}

void
ThreadSpecSimulator::trySpawn(uint32_t exec_idx, uint32_t j,
                              uint64_t boundary)
{
    const ExecRecord &exec = rec.execs[exec_idx];
    ActiveExec &ax = active[exec_idx];
    // Threads are allocated in bursts: a loop with outstanding
    // speculative threads keeps them; a refill happens when the queue
    // drains. This matches the paper's threads-per-speculation counts
    // (~2.7 on 4 TUs, Table 2) and leaves steady-state TPC unchanged
    // (each thread still pre-executes at least one full iteration by
    // its verification point).
    if (!ax.queue.empty())
        return;
    // Disabled by repeated nest-rule squashes (§2.3.2)?
    auto pen = squashPenalty.find(exec.loop);
    if (pen != squashPenalty.end() && pen->second.confident())
        return;
    // Throttled: the loop's verify/squash record says speculating on it
    // loses more than it wins right now.
    if (spawnSuppressed(exec.loop)) {
        ++stats.spawnsThrottled;
        return;
    }
    unsigned n = spawnCount(exec, j, ax, idleTUs());
    if (n == 0)
        return;

    ++stats.specEvents;
    stats.threadsSpeculated += n;

    uint32_t next_iter = j + 1; // queue is empty: refills start here
    for (unsigned k = 0; k < n; ++k, ++next_iter) {
        SpecThread t;
        t.iterIndex = next_iter;
        t.spawnFrontIter = j;
        t.spawnClock = clock;
        t.spawnBoundary = boundary;
        if (next_iter <= exec.iterCount) {
            auto [s, e] = idx->segment(exec_idx, next_iter);
            t.segStart = s;
            t.segEnd = e;
            t.phantom = false;
        } else {
            // Beyond the execution's real trip count: this TU fetches a
            // non-existent iteration and will be squashed at the
            // execution's end (§3.1.3).
            t.segStart = t.segEnd = 0;
            t.phantom = true;
        }
        ax.queue.push_back(t);
        ++outstanding;
    }
}

void
ThreadSpecSimulator::squashAll(ActiveExec &ax, uint64_t boundary,
                               bool nest_rule)
{
    if (nest_rule && !ax.queue.empty())
        squashPenalty[ax.loop].up();
    while (!ax.queue.empty()) {
        const SpecThread &t = ax.queue.front();
        ++stats.threadsSquashed;
        if (nest_rule)
            ++stats.squashedByNestRule;
        if (boundary > t.spawnBoundary)
            stats.instrToVerifSum += boundary - t.spawnBoundary;
        trainSpawnConf(ax.loop, false);
        ax.queue.pop_front();
        --outstanding;
    }
}

void
ThreadSpecSimulator::applyNestRule(const ExecRecord &exec,
                                   uint64_t boundary)
{
    // STR(i) is a state condition on the CLS (§3.1.2): a speculated loop
    // may have at most i live non-speculated loops nested inside it.
    // Evaluated when a new non-speculated execution starts: walk the
    // ancestor chain counting live non-speculated loops (this execution
    // included); any speculated ancestor whose below-count exceeds i is
    // squashed, freeing its TUs for the inner loops. A squashed ancestor
    // becomes non-speculated and counts against ancestors above it.
    unsigned nonspec = 1; // the just-started execution itself
    uint32_t anc_idx = idx->parent(
        static_cast<uint32_t>(&exec - rec.execs.data()));
    while (anc_idx != RecordingIndex::noParent) {
        auto it = active.find(anc_idx);
        if (it != active.end()) {
            ActiveExec &anc = it->second;
            if (anc.queue.empty()) {
                ++nonspec;
            } else if (nonspec > cfg.nestLimit) {
                squashAll(anc, boundary, true);
                ++nonspec;
            }
            // A surviving speculated ancestor does not count against
            // the levels above it.
        }
        anc_idx = idx->parent(anc_idx);
    }
}

void
ThreadSpecSimulator::handleIterStart(const SimEvent &ev, bool at_front)
{
    const ExecRecord &exec = rec.execs[ev.execIdx];
    ActiveExec &ax = active[ev.execIdx];
    ax.loop = exec.loop;

    // PRED: every iteration start is one retired *taken* outcome of the
    // loop's closing branch; train before the spawn decision below, as
    // a real machine retires the branch before the new iteration's
    // spawn point.
    if (branchPred)
        branchPred->update(exec.branchAddr, true);

    if (!at_front) {
        // This iteration start lies inside a prefix the front jumped
        // over: the instructions were already executed by a speculative
        // TU, which performs no verification or spawning. If (only
        // possible with overlapped loops) a thread for this iteration is
        // outstanding, verify it without moving the front.
        if (!ax.queue.empty() &&
            ax.queue.front().iterIndex == ev.iterIndex) {
            SpecThread t = ax.queue.front();
            ax.queue.pop_front();
            --outstanding;
            stats.instrToVerifSum += ev.boundary - t.spawnBoundary;
            DataVerdict v = dataVerdict(exec, t);
            if (v == DataVerdict::Ok) {
                ++stats.threadsVerified;
                trainSpawnConf(exec.loop, true);
            } else {
                ++stats.threadsSquashed;
                trainSpawnConf(exec.loop, false);
                applyDataViolation(ax, v, ev.boundary);
            }
        }
        return;
    }

    // Verification (§3.1.3): the first speculated iteration of this loop
    // becomes the new non-speculative thread; the front jumps over what
    // it already executed.
    if (!ax.queue.empty()) {
        SpecThread t = ax.queue.front();
        LOOPSPEC_ASSERT(t.iterIndex == ev.iterIndex,
                        "non-consecutive speculation queue");
        LOOPSPEC_ASSERT(!t.phantom, "phantom thread verified");
        ax.queue.pop_front();
        --outstanding;
        stats.instrToVerifSum += ev.boundary - t.spawnBoundary;
        DataVerdict v = dataVerdict(exec, t);
        if (v == DataVerdict::Ok) {
            // Control and data both correct: the thread's work stands
            // and the front jumps over it.
            ++stats.threadsVerified;
            frontPos += executedSoFar(t);
            trainSpawnConf(exec.loop, true);
            auto pen = squashPenalty.find(exec.loop);
            if (pen != squashPenalty.end())
                pen->second.down();
        } else {
            // Wrong inputs — a mispredicted live-in or a violated
            // memory dependence: discard the thread's work, the front
            // re-executes and the younger threads restart.
            ++stats.threadsSquashed;
            trainSpawnConf(exec.loop, false);
            applyDataViolation(ax, v, ev.boundary);
        }
    }

    // Speculation (§3.1.1): a loop iteration just started in the
    // non-speculative thread.
    trySpawn(ev.execIdx, ev.iterIndex, ev.boundary);

    // STR(i): a loop execution that *wanted* speculative threads at its
    // first observable iteration but received none is a non-speculated
    // loop nested inside whatever speculated ancestors exist. Loops that
    // want nothing (e.g. a trip-2 loop already at its predicted last
    // iteration) charge nobody — see spawnCount() docs.
    if (cfg.policy == SpecPolicy::StrI && ev.iterIndex == 2 &&
        ax.queue.empty() &&
        spawnCount(exec, ev.iterIndex, ax, cfg.numTUs) > 0) {
        applyNestRule(exec, ev.boundary);
        // Freed TUs may immediately serve this inner loop.
        trySpawn(ev.execIdx, ev.iterIndex, ev.boundary);
    }
}

void
ThreadSpecSimulator::handleExecEnd(const SimEvent &ev)
{
    const ExecRecord &exec = rec.execs[ev.execIdx];
    auto it = active.find(ev.execIdx);
    if (it != active.end()) {
        // Whatever is still outstanding speculates iterations that will
        // never exist: control misspeculation, squash (§3.1.3).
        squashAll(it->second, exec.endBoundary, false);
        active.erase(it);
    }
    // The non-speculative thread updates the LET when the execution
    // completes; truncated executions (overflow loss, trace end) never
    // report a trustworthy count.
    if (exec.endReason != ExecEndReason::Overflow &&
        exec.endReason != ExecEndReason::Flush &&
        exec.endReason != ExecEndReason::TraceEnd) {
        // Throttle recovery: a suppressed loop spawns nothing, so it
        // produces no verify/squash outcomes to climb back on. Credit
        // it when the trip predictor would have nailed this execution —
        // checked against the prediction *before* it learns the count.
        if (cfg.spawnConfidenceBits > 0 && spawnSuppressed(exec.loop)) {
            TripPrediction p = predictor.predict(exec.loop);
            if (p.kind != TripPredictionKind::Unknown &&
                p.count == static_cast<int64_t>(exec.iterCount))
                trainSpawnConf(exec.loop, true);
        }
        predictor.recordExecution(exec.loop, exec.iterCount);
    }
    // PRED: only a Close termination retires the closing branch
    // not-taken; exits/returns leave the loop through a different
    // instruction and train nothing.
    if (branchPred && exec.endReason == ExecEndReason::Close)
        branchPred->update(exec.branchAddr, false);
}

SpecStats
ThreadSpecSimulator::run()
{
    stats = SpecStats{};
    stats.totalInstrs = rec.totalInstrs;
    clock = 0;
    frontPos = 0;
    outstanding = 0;
    active.clear();
    squashPenalty.clear();
    spawnConf.clear();
    if (branchPred)
        branchPred->reset();

    for (const SimEvent &ev : rec.events) {
        if (frontPos < ev.boundary) {
            clock += ev.boundary - frontPos;
            frontPos = ev.boundary;
        }
        if (ev.kind == SimEventKind::ExecEnd)
            handleExecEnd(ev);
        else
            handleIterStart(ev, frontPos == ev.boundary);
    }

    if (frontPos < rec.totalInstrs) {
        clock += rec.totalInstrs - frontPos;
        frontPos = rec.totalInstrs;
    }

    stats.cycles = clock;
    return stats;
}

} // namespace loopspec
