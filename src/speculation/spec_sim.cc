#include "speculation/spec_sim.hh"

#include <algorithm>
#include <unordered_map>

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

    // One pass over the executions. The detector numbers executions in
    // ExecStart order, which is the order of the execs, so the execId
    // column is strictly increasing: a parent (started earlier) sits at
    // or below index parentExecId - first, exactly there when the ids
    // are consecutive, as the detector's are. The probe there settles
    // the common case; a binary search below it covers gaps. Each
    // distinct loop address gets a dense id in order of first
    // appearance. segOffset[x] is where exec x's iteration segments
    // start in segBounds.
    const uint64_t first = execs.empty() ? 0 : execs[0].execId;
    auto id_below = [](const ExecRecord &x, uint64_t id) {
        return x.execId < id;
    };
    std::unordered_map<uint32_t, uint32_t> dense_loop;
    parentIdx.resize(execs.size(), noParent);
    loopIds.resize(execs.size());
    segOffset.resize(execs.size() + 1);
    size_t total = 0;
    for (uint32_t i = 0; i < execs.size(); ++i) {
        const ExecRecord &x = execs[i];
        LOOPSPEC_ASSERT(i == 0 || execs[i - 1].execId < x.execId,
                        "exec ids not increasing");
        const uint64_t p = x.parentExecId;
        if (p != 0 && p >= first && p < x.execId) {
            size_t hi = static_cast<size_t>(p - first);
            if (hi < i && execs[hi].execId == p) {
                parentIdx[i] = static_cast<uint32_t>(hi);
            } else {
                auto end = execs.begin() + std::min<size_t>(hi, i);
                auto it = std::lower_bound(execs.begin(), end, p, id_below);
                if (it != end && it->execId == p)
                    parentIdx[i] = static_cast<uint32_t>(it - execs.begin());
            }
        }
        loopIds[i] =
            dense_loop
                .emplace(x.loop, static_cast<uint32_t>(dense_loop.size()))
                .first->second;
        segOffset[i] = total;
        total += x.iterBoundaries.size() + 1;
    }
    segOffset[execs.size()] = total;
    loopCount = static_cast<uint32_t>(dense_loop.size());

    // Flatten every execution's iteration boundaries, each followed by
    // its end boundary: iteration j of exec x spans
    // [segBounds[segOffset[x] + j-2], segBounds[segOffset[x] + j-1]).
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

ThreadSpecSimulator::ActiveExec *
ThreadSpecSimulator::findActive(uint32_t exec_idx)
{
    for (unsigned i = numLive; i-- > 0;) {
        if (slots[i].execIdx == exec_idx)
            return &slots[i];
    }
    return nullptr;
}

ThreadSpecSimulator::ActiveExec &
ThreadSpecSimulator::activate(uint32_t exec_idx)
{
    if (ActiveExec *ax = findActive(exec_idx))
        return *ax;
    if (numLive == slots.size())
        slots.emplace_back(cfg.numTUs);
    ActiveExec &ax = slots[numLive++];
    ax.execIdx = exec_idx;
    ax.loopId = idx->loopId(exec_idx);
    return ax;
}

void
ThreadSpecSimulator::retire(ActiveExec &ax)
{
    LOOPSPEC_ASSERT(ax.queue.empty(), "retiring a speculating execution");
    ActiveExec &last = slots[numLive - 1];
    if (&ax != &last)
        std::swap(ax, last);
    --numLive;
}

bool
ThreadSpecSimulator::spawnSuppressed(uint32_t loop_id) const
{
    if (cfg.spawnConfidenceBits == 0)
        return false;
    return spawnConf[loop_id] < cfg.spawnConfidenceThreshold;
}

void
ThreadSpecSimulator::trainSpawnConf(uint32_t loop_id, bool good)
{
    if (cfg.spawnConfidenceBits == 0)
        return;
    uint8_t max = static_cast<uint8_t>(
        (1u << cfg.spawnConfidenceBits) - 1);
    uint8_t &conf = spawnConf[loop_id];
    if (good) {
        if (conf < max)
            ++conf;
    } else if (conf > 0) {
        --conf;
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

    TripPrediction p = predictor.predict(letKey(ax.execIdx));
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
ThreadSpecSimulator::trySpawn(ActiveExec &ax, uint32_t j,
                              uint64_t boundary)
{
    const ExecRecord &exec = rec.execs[ax.execIdx];
    // Threads are allocated in bursts: a loop with outstanding
    // speculative threads keeps them; a refill happens when the queue
    // drains. This matches the paper's threads-per-speculation counts
    // (~2.7 on 4 TUs, Table 2) and leaves steady-state TPC unchanged
    // (each thread still pre-executes at least one full iteration by
    // its verification point).
    if (!ax.queue.empty())
        return;
    // Disabled by repeated nest-rule squashes (§2.3.2)?
    if (squashPenalty[ax.loopId].confident())
        return;
    // Throttled: the loop's verify/squash record says speculating on it
    // loses more than it wins right now.
    if (spawnSuppressed(ax.loopId)) {
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
            auto [s, e] = idx->segment(ax.execIdx, next_iter);
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
        squashPenalty[ax.loopId].up();
    while (!ax.queue.empty()) {
        const SpecThread &t = ax.queue.front();
        ++stats.threadsSquashed;
        if (nest_rule)
            ++stats.squashedByNestRule;
        if (boundary > t.spawnBoundary)
            stats.instrToVerifSum += boundary - t.spawnBoundary;
        trainSpawnConf(ax.loopId, false);
        ax.queue.pop_front();
        --outstanding;
    }
}

void
ThreadSpecSimulator::applyNestRule(uint32_t exec_idx, uint64_t boundary)
{
    // STR(i) is a state condition on the CLS (§3.1.2): a speculated loop
    // may have at most i live non-speculated loops nested inside it.
    // Evaluated when a new non-speculated execution starts: walk the
    // ancestor chain counting live non-speculated loops (this execution
    // included); any speculated ancestor whose below-count exceeds i is
    // squashed, freeing its TUs for the inner loops. A squashed ancestor
    // becomes non-speculated and counts against ancestors above it.
    unsigned nonspec = 1; // the just-started execution itself
    uint32_t anc_idx = idx->parent(exec_idx);
    while (anc_idx != RecordingIndex::noParent) {
        if (ActiveExec *anc = findActive(anc_idx)) {
            if (anc->queue.empty()) {
                ++nonspec;
            } else if (nonspec > cfg.nestLimit) {
                squashAll(*anc, boundary, true);
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
    ActiveExec &ax = activate(ev.execIdx);

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
                trainSpawnConf(ax.loopId, true);
            } else {
                ++stats.threadsSquashed;
                trainSpawnConf(ax.loopId, false);
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
            trainSpawnConf(ax.loopId, true);
            squashPenalty[ax.loopId].down();
        } else {
            // Wrong inputs — a mispredicted live-in or a violated
            // memory dependence: discard the thread's work, the front
            // re-executes and the younger threads restart.
            ++stats.threadsSquashed;
            trainSpawnConf(ax.loopId, false);
            applyDataViolation(ax, v, ev.boundary);
        }
    }

    // Speculation (§3.1.1): a loop iteration just started in the
    // non-speculative thread.
    trySpawn(ax, ev.iterIndex, ev.boundary);

    // STR(i): a loop execution that *wanted* speculative threads at its
    // first observable iteration but received none is a non-speculated
    // loop nested inside whatever speculated ancestors exist. Loops that
    // want nothing (e.g. a trip-2 loop already at its predicted last
    // iteration) charge nobody — see spawnCount() docs.
    if (cfg.policy == SpecPolicy::StrI && ev.iterIndex == 2 &&
        ax.queue.empty() &&
        spawnCount(exec, ev.iterIndex, ax, cfg.numTUs) > 0) {
        applyNestRule(ev.execIdx, ev.boundary);
        // Freed TUs may immediately serve this inner loop.
        trySpawn(ax, ev.iterIndex, ev.boundary);
    }
}

void
ThreadSpecSimulator::handleExecEnd(const SimEvent &ev)
{
    const ExecRecord &exec = rec.execs[ev.execIdx];
    if (ActiveExec *ax = findActive(ev.execIdx)) {
        // Whatever is still outstanding speculates iterations that will
        // never exist: control misspeculation, squash (§3.1.3).
        squashAll(*ax, exec.endBoundary, false);
        retire(*ax);
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
        uint32_t loop_id = idx->loopId(ev.execIdx);
        uint32_t key = letKey(ev.execIdx);
        if (spawnSuppressed(loop_id)) {
            TripPrediction p = predictor.predict(key);
            if (p.kind != TripPredictionKind::Unknown &&
                p.count == static_cast<int64_t>(exec.iterCount))
                trainSpawnConf(loop_id, true);
        }
        predictor.recordExecution(key, exec.iterCount);
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
    slots.clear();
    numLive = 0;
    predictor = IterCountPredictor(cfg.letEntries);
    squashPenalty.assign(idx->numLoops(), SatCounter<2>{});
    if (cfg.spawnConfidenceBits > 0)
        spawnConf.assign(idx->numLoops(), static_cast<uint8_t>(
                                              cfg.spawnConfidenceThreshold));
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
