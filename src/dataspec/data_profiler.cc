#include "dataspec/data_profiler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace loopspec
{

namespace
{

/** Path-hash input of one control event; applySpan() mixes the inputs
 *  into each frame's hash FNV-1a style. */
uint64_t
pathInput(uint32_t pc, bool taken, uint32_t target)
{
    uint64_t v = (static_cast<uint64_t>(pc) << 2) |
                 (taken ? 2u : 0u);
    return v ^ (static_cast<uint64_t>(target) << 33);
}

double
pct(uint64_t num, uint64_t den)
{
    return den ? 100.0 * static_cast<double>(num) /
                     static_cast<double>(den)
               : 0.0;
}

} // namespace

double DataSpecReport::samePathPct() const
{
    return pct(modalIters, itersEvaluated);
}

double DataSpecReport::lrPredPct() const { return pct(lrCorrect, lrTotal); }
double DataSpecReport::lmPredPct() const { return pct(lmCorrect, lmTotal); }
double DataSpecReport::allLrPct() const
{
    return pct(allLrIters, modalIters);
}
double DataSpecReport::allLmPct() const { return pct(allLmIters, lmIters); }
double DataSpecReport::allDataPct() const
{
    return pct(allDataIters, lmIters);
}

void
DataSpecProfiler::Frame::resetIteration()
{
    pathHash = 0xcbf29ce484222325ull;
    readFirstMask = 0;
    writtenMask = 0;
    loadPcs.clear();
    loads.clear();
    written.clear();
    memOverflow = false;
}

DataSpecProfiler::DataSpecProfiler(DataSpecConfig config) : cfg(config)
{
}

int
DataSpecProfiler::findFrame(uint64_t exec_id) const
{
    for (size_t i = liveFrames; i-- > 0;) {
        if (frames[i].execId == exec_id)
            return static_cast<int>(i);
    }
    return -1;
}

namespace
{

/** Dynamic fields of an AoS record. */
struct AosRec
{
    const DynInstr &d;

    bool taken() const { return d.taken; }
    uint32_t target() const { return d.target; }
    int64_t srcVal(unsigned s) const { return d.srcVal[s]; }
    uint64_t memAddr() const { return d.memAddr; }
    int64_t memVal() const { return d.memVal; }
};

/** Dynamic fields of record @p i of a cold-plane SoA batch. */
struct PlaneRec
{
    const SoaBatch &b;
    size_t i;

    bool taken() const { return b.taken[i] != 0; }
    uint32_t target() const { return b.target[i]; }
    int64_t srcVal(unsigned s) const
    {
        return s ? b.srcVal1[i] : b.srcVal0[i];
    }
    uint64_t memAddr() const { return b.memAddr[i]; }
    int64_t memVal() const { return b.memVal[i]; }
};

} // namespace

template <typename Rec>
inline void
DataSpecProfiler::observe(const DynInstr &s, const Rec &rec)
{
    // Control flow shapes the iteration's path.
    if (s.kind != CtrlKind::None) {
        const bool taken = rec.taken();
        span.pathInputs.push_back(
            pathInput(s.pc, taken, taken ? rec.target() : 0));
    }

    // Register reads before writes are live-ins; capture the value at
    // the first read. r0 is architecturally zero and excluded.
    for (unsigned k = 0; k < s.numSrc; ++k) {
        uint8_t r = s.srcReg[k];
        if (r == 0)
            continue;
        uint32_t bit = 1u << r;
        if ((span.writtenMask | span.readFirstMask) & bit)
            continue;
        span.readFirstMask |= bit;
        span.firstVal[r] = rec.srcVal(k);
    }
    if (s.hasDst && s.dstReg != 0)
        span.writtenMask |= 1u << s.dstReg;

    if (s.isLoad)
        span.mem.push_back({rec.memAddr(), rec.memVal(), s.pc, false});
    else if (s.isStore)
        span.mem.push_back({rec.memAddr(), 0, s.pc, true});
}

void
DataSpecProfiler::applySpan()
{
    for (size_t fi = 0; fi < liveFrames; ++fi) {
        Frame &f = frames[fi];
        for (uint64_t v : span.pathInputs)
            f.pathHash = (f.pathHash ^ v) * 0x100000001b3ull;

        // A register the span reads first is a frame live-in unless
        // the frame already read or wrote it this iteration.
        const uint32_t fresh =
            span.readFirstMask & ~(f.writtenMask | f.readFirstMask);
        if (fresh) {
            f.readFirstMask |= fresh;
            for (unsigned r = 1; r < numRegs; ++r) {
                if (fresh & (1u << r))
                    f.firstVal[r] = span.firstVal[r];
            }
        }
        f.writtenMask |= span.writtenMask;

        // Memory: loads from addresses not stored earlier this
        // iteration are live-in locations, keyed by static load PC
        // (first instance). Replayed in order: the footprint cap can
        // trip between two ops of one span.
        for (const MemOp &m : span.mem) {
            if (f.memOverflow)
                break;
            if (m.isStore) {
                f.written.insert(m.addr);
                if (f.written.size() > cfg.writtenSetCap)
                    f.memOverflow = true;
            } else if (f.loadPcs.size() < cfg.maxLoadPcs &&
                       !f.written.contains(m.addr) &&
                       f.loadPcs.insert(m.pc)) {
                f.loads.push_back({m.pc, m.addr, m.val});
            }
        }
    }
}

void
DataSpecProfiler::onInstr(const DynInstr &d)
{
    onInstrSpan(&d, 1);
}

void
DataSpecProfiler::onInstrSpan(const DynInstr *instrs, size_t count)
{
    if (liveFrames == 0)
        return;
    span.clear();
    for (size_t i = 0; i < count; ++i)
        observe(instrs[i], AosRec{instrs[i]});
    applySpan();
}

void
DataSpecProfiler::onInstrSpanSoA(const SoaBatch &b, size_t begin,
                                 size_t count)
{
    if (liveFrames == 0)
        return;
    // Static fields come from the producer's per-instruction prototype,
    // dynamic ones from the cold planes: no record is ever built.
    span.clear();
    for (size_t i = begin; i < begin + count; ++i)
        observe(b.templates[b.sidx[i]], PlaneRec{b, i});
    applySpan();
}

void
DataSpecProfiler::onExecStart(const ExecStartEvent &ev)
{
    if (liveFrames == frames.size())
        frames.emplace_back();
    Frame &f = frames[liveFrames++];
    f.execId = ev.execId;
    f.profile = &loops[ev.loop];
    f.iterLrOk = nullptr;
    f.resetIteration();
}

void
DataSpecProfiler::onIterStart(const IterEvent &ev)
{
    (void)ev; // onIterEnd already reset the frame for the new iteration
}

void
DataSpecProfiler::evaluateIteration(Frame &f, uint32_t iter_index)
{
    LoopProfile &lp = *f.profile;

    // Path accounting: the modal path is chosen among at most
    // maxPathsPerLoop distinct paths; the long tail lumps into an
    // overflow count that never wins.
    PathAgg *agg = nullptr;
    auto pit = lp.paths.find(f.pathHash);
    if (pit != lp.paths.end()) {
        agg = &pit->second;
    } else if (lp.paths.size() < cfg.maxPathsPerLoop) {
        agg = &lp.paths[f.pathHash];
    } else {
        ++lp.pathOverflowIters;
    }
    if (agg)
        ++agg->iters;

    // Live-in registers.
    bool all_lr = true;
    for (unsigned r = 1; r < numRegs; ++r) {
        if (!(f.readFirstMask & (1u << r)))
            continue;
        LiveInPredictor &rp = lp.regs[r];
        bool correct = rp.predictCorrect(f.firstVal[r]);
        if (agg) {
            ++agg->lrTotal;
            if (correct)
                ++agg->lrCorrect;
        }
        if (!correct)
            all_lr = false;
        rp.observe(f.firstVal[r]);
    }

    // Live-in memory locations (skipped entirely on footprint overflow).
    bool all_lm = true;
    bool lm_evaluated = !f.memOverflow;
    if (lm_evaluated) {
        for (const LiveInLoad &ld : f.loads) {
            LiveInMemPredictor &mp = lp.mems[ld.pc];
            bool correct = mp.predictCorrect(ld.addr, ld.val);
            if (agg) {
                ++agg->lmTotal;
                if (correct)
                    ++agg->lmCorrect;
            }
            if (!correct)
                all_lm = false;
            mp.observe(ld.addr, ld.val);
        }
    }

    if (agg) {
        if (all_lr)
            ++agg->allLrIters;
        if (lm_evaluated) {
            ++agg->lmIters;
            if (all_lm)
                ++agg->allLmIters;
            if (all_lr && all_lm)
                ++agg->allDataIters;
        }
    }

    if (cfg.recordPerIteration && iter_index >= 2) {
        size_t idx = iter_index - 2;
        if (!f.iterLrOk)
            f.iterLrOk = &perIterLiveIn[f.execId];
        std::vector<bool> &reg_flags = *f.iterLrOk;
        if (reg_flags.size() <= idx)
            reg_flags.resize(idx + 1, false);
        reg_flags[idx] = all_lr;
    }

    f.resetIteration();
}

void
DataSpecProfiler::onIterEnd(const IterEvent &ev)
{
    int idx = findFrame(ev.execId);
    LOOPSPEC_ASSERT(idx >= 0, "IterEnd for unknown frame");
    evaluateIteration(frames[static_cast<size_t>(idx)], ev.iterIndex);
}

void
DataSpecProfiler::onExecEnd(const ExecEndEvent &ev)
{
    int idx = findFrame(ev.execId);
    LOOPSPEC_ASSERT(idx >= 0, "ExecEnd for unknown frame");
    // IterEnd already evaluated the final iteration (overflow drops lose
    // their partial iteration, which the real hardware also never sees).
    // The frame's slot rotates to the spare end, keeping its tables.
    std::rotate(frames.begin() + idx, frames.begin() + idx + 1,
                frames.begin() + static_cast<long>(liveFrames));
    --liveFrames;
}

void
DataSpecProfiler::onTraceDone(uint64_t total_instrs)
{
    (void)total_instrs;
    LOOPSPEC_ASSERT(!done, "onTraceDone twice");
    LOOPSPEC_ASSERT(liveFrames == 0, "frames must drain at trace end");
    done = true;

    for (const auto &[loop, lp] : loops) {
        (void)loop;
        uint64_t loop_iters = lp.pathOverflowIters;
        const PathAgg *modal = nullptr;
        for (const auto &[hash, agg] : lp.paths) {
            (void)hash;
            loop_iters += agg.iters;
            if (!modal || agg.iters > modal->iters)
                modal = &agg;
        }
        result.itersEvaluated += loop_iters;
        if (!modal)
            continue;
        result.modalIters += modal->iters;
        result.lrTotal += modal->lrTotal;
        result.lrCorrect += modal->lrCorrect;
        result.lmTotal += modal->lmTotal;
        result.lmCorrect += modal->lmCorrect;
        result.lmIters += modal->lmIters;
        result.allLrIters += modal->allLrIters;
        result.allLmIters += modal->allLmIters;
        result.allDataIters += modal->allDataIters;
    }
}

} // namespace loopspec
