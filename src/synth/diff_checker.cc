#include "synth/diff_checker.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <map>
#include <memory>
#include <sstream>

#include "dataspec/conflict_profiler.hh"
#include "dataspec/data_profiler.hh"
#include "dataspec/mem_trace.hh"
#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "predict/predictor_meter.hh"
#include "speculation/event_record.hh"
#include "tables/hit_ratio.hh"
#include "trace_io/crc32.hh"
#include "trace_io/replay_source.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace loopspec
{
namespace synth
{

bool
LoggedEvent::operator==(const LoggedEvent &o) const
{
    return kind == o.kind && pos == o.pos && execId == o.execId &&
           parent == o.parent && loop == o.loop && a == o.a &&
           depth == o.depth && branchAddr == o.branchAddr &&
           reason == o.reason;
}

std::string
describeEvent(const LoggedEvent &ev)
{
    const char *kind = "?";
    switch (ev.kind) {
      case LoggedEvent::Kind::ExecStart: kind = "ExecStart"; break;
      case LoggedEvent::Kind::IterStart: kind = "IterStart"; break;
      case LoggedEvent::Kind::IterEnd: kind = "IterEnd"; break;
      case LoggedEvent::Kind::ExecEnd: kind = "ExecEnd"; break;
      case LoggedEvent::Kind::SingleIter: kind = "SingleIter"; break;
    }
    return strprintf("%s{pos=%llu exec=%llu loop=0x%x a=%u depth=%u "
                     "b=0x%x parent=%llu reason=%s}",
                     kind, static_cast<unsigned long long>(ev.pos),
                     static_cast<unsigned long long>(ev.execId), ev.loop,
                     ev.a, ev.depth, ev.branchAddr,
                     static_cast<unsigned long long>(ev.parent),
                     execEndReasonName(ev.reason));
}

void
EventLog::onExecStart(const ExecStartEvent &ev)
{
    events.push_back({LoggedEvent::Kind::ExecStart, ev.pos, ev.execId,
                      ev.parentExecId, ev.loop, 0, ev.depth,
                      ev.branchAddr, ExecEndReason::Close});
}

void
EventLog::onIterStart(const IterEvent &ev)
{
    events.push_back({LoggedEvent::Kind::IterStart, ev.pos, ev.execId, 0,
                      ev.loop, ev.iterIndex, ev.depth, 0,
                      ExecEndReason::Close});
}

void
EventLog::onIterEnd(const IterEvent &ev)
{
    events.push_back({LoggedEvent::Kind::IterEnd, ev.pos, ev.execId, 0,
                      ev.loop, ev.iterIndex, ev.depth, 0,
                      ExecEndReason::Close});
}

void
EventLog::onExecEnd(const ExecEndEvent &ev)
{
    events.push_back({LoggedEvent::Kind::ExecEnd, ev.pos, ev.execId, 0,
                      ev.loop, ev.iterCount, 0, 0, ev.reason});
}

void
EventLog::onSingleIterExec(const SingleIterExecEvent &ev)
{
    events.push_back({LoggedEvent::Kind::SingleIter, ev.pos, 0, 0,
                      ev.loop, 0, ev.depth, ev.branchAddr,
                      ExecEndReason::Close});
}

void
EventLog::onTraceDone(uint64_t total_instrs)
{
    totalInstrs = total_instrs;
    done = true;
}

namespace
{

/** Collects the full DynInstr stream from either delivery path (the
 *  batch path through the default materializing shim). */
class StreamCollector : public TraceObserver
{
  public:
    std::vector<DynInstr> all;
    uint64_t totalInstrs = 0;

    void onInstr(const DynInstr &d) override { all.push_back(d); }

    void
    onTraceEnd(uint64_t total) override
    {
        totalInstrs = total;
    }
};

/**
 * Hot-plane stream collector (BatchNeed::HotPlanes): verifies the SoA
 * producer contract — no cold planes on a hot-only delivery, a ctrl
 * index listing exactly the kind != None positions — while collecting
 * the planes positionally for comparison against the scalar stream.
 */
class HotStreamCollector : public TraceObserver
{
  public:
    struct Hot
    {
        uint64_t seq;
        uint32_t pc;
        uint32_t target;
        CtrlKind kind;
        bool taken;
    };
    std::vector<Hot> all;
    std::string err;

    void
    onInstr(const DynInstr &d) override
    {
        all.push_back({d.seq, d.pc, d.target, d.kind, d.taken});
    }

    void
    onInstrBatchSoA(const SoaBatch &b) override
    {
        if (b.hasColdPlanes() && err.empty())
            err = "soa: hot-only delivery carries cold planes";
        size_t c = 0;
        for (size_t i = 0; i < b.count; ++i) {
            const bool is_ctrl =
                static_cast<CtrlKind>(b.kind[i]) != CtrlKind::None;
            const bool indexed =
                c < b.numCtrl && b.ctrl[c] == static_cast<uint32_t>(i);
            if (is_ctrl != indexed && err.empty())
                err = strprintf("soa: ctrl index wrong at batch pos %zu",
                                i);
            c += indexed;
            all.push_back({b.seqBase + i, b.pc[i], b.target[i],
                           static_cast<CtrlKind>(b.kind[i]),
                           b.taken[i] != 0});
        }
        if (c != b.numCtrl && err.empty())
            err = "soa: ctrl index count mismatch";
    }

    BatchNeed batchNeed() const override { return BatchNeed::HotPlanes; }
};

/** Field-by-field record comparison; empty string when equal. */
std::string
compareInstr(const DynInstr &a, const DynInstr &b, size_t i)
{
#define LOOPSPEC_DIFF_FIELD(f)                                            \
    if (!(a.f == b.f))                                                    \
        return strprintf("instr %zu: field '%s' differs", i, #f)
    LOOPSPEC_DIFF_FIELD(seq);
    LOOPSPEC_DIFF_FIELD(pc);
    LOOPSPEC_DIFF_FIELD(target);
    LOOPSPEC_DIFF_FIELD(op);
    LOOPSPEC_DIFF_FIELD(kind);
    LOOPSPEC_DIFF_FIELD(taken);
    LOOPSPEC_DIFF_FIELD(numSrc);
    LOOPSPEC_DIFF_FIELD(srcReg[0]);
    LOOPSPEC_DIFF_FIELD(srcReg[1]);
    LOOPSPEC_DIFF_FIELD(srcVal[0]);
    LOOPSPEC_DIFF_FIELD(srcVal[1]);
    LOOPSPEC_DIFF_FIELD(hasDst);
    LOOPSPEC_DIFF_FIELD(dstReg);
    LOOPSPEC_DIFF_FIELD(dstVal);
    LOOPSPEC_DIFF_FIELD(isLoad);
    LOOPSPEC_DIFF_FIELD(isStore);
    LOOPSPEC_DIFF_FIELD(memAddr);
    LOOPSPEC_DIFF_FIELD(memVal);
#undef LOOPSPEC_DIFF_FIELD
    return {};
}

/** Compare two event logs; empty string when identical. */
std::string
compareLogs(const char *what, const EventLog &ref, const EventLog &got)
{
    if (!got.done)
        return strprintf("%s: no trace-done delivered", what);
    if (ref.totalInstrs != got.totalInstrs) {
        return strprintf("%s: totalInstrs %llu vs reference %llu", what,
                         static_cast<unsigned long long>(got.totalInstrs),
                         static_cast<unsigned long long>(ref.totalInstrs));
    }
    size_t n = std::min(ref.events.size(), got.events.size());
    for (size_t i = 0; i < n; ++i) {
        if (ref.events[i] != got.events[i]) {
            return strprintf("%s: event %zu is %s, reference %s", what, i,
                             describeEvent(got.events[i]).c_str(),
                             describeEvent(ref.events[i]).c_str());
        }
    }
    if (ref.events.size() != got.events.size()) {
        return strprintf("%s: %zu events, reference %zu", what,
                         got.events.size(), ref.events.size());
    }
    return {};
}

std::string
compareStats(const char *what, const LoopStatsReport &a,
             const LoopStatsReport &b)
{
#define LOOPSPEC_DIFF_STAT(f)                                             \
    if (!(a.f == b.f))                                                    \
        return strprintf("%s: LoopStats field '%s' differs", what, #f)
    LOOPSPEC_DIFF_STAT(totalInstrs);
    LOOPSPEC_DIFF_STAT(staticLoops);
    LOOPSPEC_DIFF_STAT(totalExecs);
    LOOPSPEC_DIFF_STAT(totalIters);
    LOOPSPEC_DIFF_STAT(singleIterExecs);
    LOOPSPEC_DIFF_STAT(overflowDrops);
    LOOPSPEC_DIFF_STAT(maxNesting);
    LOOPSPEC_DIFF_STAT(itersPerExec);
    LOOPSPEC_DIFF_STAT(instrsPerIter);
    LOOPSPEC_DIFF_STAT(avgNesting);
    LOOPSPEC_DIFF_STAT(loopCoverage);
#undef LOOPSPEC_DIFF_STAT
    return {};
}

/**
 * Independent LRU replacement model (std::list, MRU at front) used to
 * cross-check LoopTable's timestamp-scan victim selection inside the
 * LET/LIT meters.
 */
class RefLru
{
  public:
    explicit RefLru(size_t capacity) : cap(capacity) {}

    /** Payload of @p loop, or nullptr. */
    uint64_t *
    find(uint32_t loop)
    {
        for (auto &it : items) {
            if (it.first == loop)
                return &it.second;
        }
        return nullptr;
    }

    /** Move @p loop to MRU (no-op when absent). */
    void
    use(uint32_t loop)
    {
        for (auto it = items.begin(); it != items.end(); ++it) {
            if (it->first == loop) {
                items.splice(items.begin(), items, it);
                return;
            }
        }
    }

    /** Insert at MRU, evicting the LRU tail when full. */
    void
    insert(uint32_t loop)
    {
        if (items.size() >= cap)
            items.pop_back();
        items.emplace_front(loop, 0);
    }

  private:
    std::list<std::pair<uint32_t, uint64_t>> items;
    size_t cap;
};

/** Reference LET model fed from a captured event log. */
HitRatioResult
refLetResult(const std::vector<LoggedEvent> &events, size_t entries)
{
    RefLru lru(entries);
    HitRatioResult res;
    for (const auto &ev : events) {
        switch (ev.kind) {
          case LoggedEvent::Kind::ExecStart:
            ++res.accesses;
            if (uint64_t *e = lru.find(ev.loop)) {
                if (*e >= 2)
                    ++res.hits;
                lru.use(ev.loop);
            } else {
                lru.insert(ev.loop);
            }
            break;
          case LoggedEvent::Kind::ExecEnd:
            if (ev.reason != ExecEndReason::Overflow) {
                if (uint64_t *e = lru.find(ev.loop))
                    ++*e;
            }
            break;
          case LoggedEvent::Kind::SingleIter:
            if (uint64_t *e = lru.find(ev.loop))
                ++*e;
            break;
          default:
            break;
        }
    }
    return res;
}

/** Reference LIT model fed from a captured event log. */
HitRatioResult
refLitResult(const std::vector<LoggedEvent> &events, size_t entries)
{
    RefLru lru(entries);
    HitRatioResult res;
    for (const auto &ev : events) {
        switch (ev.kind) {
          case LoggedEvent::Kind::ExecStart:
            if (!lru.find(ev.loop))
                lru.insert(ev.loop);
            else
                lru.use(ev.loop);
            break;
          case LoggedEvent::Kind::IterStart:
            ++res.accesses;
            if (uint64_t *e = lru.find(ev.loop)) {
                if (*e >= 2)
                    ++res.hits;
                lru.use(ev.loop);
            }
            break;
          case LoggedEvent::Kind::IterEnd:
            if (uint64_t *e = lru.find(ev.loop))
                ++*e;
            break;
          default:
            break;
        }
    }
    return res;
}

/** The meter battery attached to the reference pass. */
struct MeterBank
{
    std::vector<std::unique_ptr<LetHitMeter>> lets;
    std::vector<std::unique_ptr<LitHitMeter>> lits;

    explicit MeterBank(const std::vector<size_t> &sizes)
    {
        for (size_t sz : sizes) {
            lets.push_back(std::make_unique<LetHitMeter>(sz));
            lits.push_back(std::make_unique<LitHitMeter>(sz));
        }
    }

    void
    attach(LoopDetector &det)
    {
        for (auto &m : lets)
            det.addListener(m.get());
        for (auto &m : lits)
            det.addListener(m.get());
    }
};

/**
 * §4 profilers with per-iteration flags on: one under the default caps,
 * one under caps small enough that generated programs trip the
 * footprint, load-PC and path limits.
 */
struct DataSpecBank
{
    DataSpecProfiler wide{config(false)};
    DataSpecProfiler tight{config(true)};

    static DataSpecConfig
    config(bool tight_caps)
    {
        DataSpecConfig c;
        c.recordPerIteration = true;
        if (tight_caps) {
            c.writtenSetCap = 4;
            c.maxLoadPcs = 2;
            c.maxPathsPerLoop = 2;
        }
        return c;
    }

    void
    attach(LoopDetector &det)
    {
        det.addListener(&wide);
        det.addListener(&tight);
    }

    std::string
    compare(const char *what, const DataSpecBank &ref) const
    {
        std::string err = compareOne(what, "wide", ref.wide, wide);
        return err.empty() ? compareOne(what, "tight", ref.tight, tight)
                           : err;
    }

    static std::string
    compareOne(const char *what, const char *name,
               const DataSpecProfiler &ref, const DataSpecProfiler &got)
    {
        static const std::pair<const char *, uint64_t DataSpecReport::*>
            kFields[] = {
                {"itersEvaluated", &DataSpecReport::itersEvaluated},
                {"modalIters", &DataSpecReport::modalIters},
                {"lrTotal", &DataSpecReport::lrTotal},
                {"lrCorrect", &DataSpecReport::lrCorrect},
                {"lmTotal", &DataSpecReport::lmTotal},
                {"lmCorrect", &DataSpecReport::lmCorrect},
                {"lmIters", &DataSpecReport::lmIters},
                {"allLrIters", &DataSpecReport::allLrIters},
                {"allLmIters", &DataSpecReport::allLmIters},
                {"allDataIters", &DataSpecReport::allDataIters},
            };
        for (const auto &[field, member] : kFields) {
            const uint64_t a = ref.report().*member;
            const uint64_t b = got.report().*member;
            if (a != b) {
                return strprintf("%s: %s profiler %s %llu vs reference "
                                 "%llu",
                                 what, name, field,
                                 static_cast<unsigned long long>(b),
                                 static_cast<unsigned long long>(a));
            }
        }
        if (got.perIterationLiveInOk() != ref.perIterationLiveInOk()) {
            return strprintf("%s: %s profiler per-iteration live-in "
                             "flags diverge",
                             what, name);
        }
        return {};
    }
};

/**
 * Detector invariants over the reference event log and the instruction
 * stream (docs/TESTING.md lists these; flushInterval must be 0).
 */
std::string
checkInvariants(const EventLog &log, const std::vector<DynInstr> &stream,
                size_t cls_entries)
{
    uint64_t exec_starts = 0, exec_ends = 0, iter_starts = 0,
             single_iters = 0, iter_count_sum = 0;
    uint64_t last_pos = 0;

    struct ExecState
    {
        bool started = false;
        bool ended = false;
        uint32_t lastIter = 1;
    };
    std::map<uint64_t, ExecState> execs;

    for (size_t i = 0; i < log.events.size(); ++i) {
        const LoggedEvent &ev = log.events[i];
        if (ev.pos < last_pos) {
            return strprintf("invariant: event %zu position goes "
                             "backwards (%s)",
                             i, describeEvent(ev).c_str());
        }
        last_pos = ev.pos;
        if (ev.pos > log.totalInstrs) {
            return strprintf("invariant: event %zu past trace end (%s)",
                             i, describeEvent(ev).c_str());
        }

        switch (ev.kind) {
          case LoggedEvent::Kind::ExecStart: {
            ++exec_starts;
            ExecState &x = execs[ev.execId];
            if (x.started) {
                return strprintf("invariant: exec %llu started twice",
                                 static_cast<unsigned long long>(
                                     ev.execId));
            }
            x.started = true;
            if (ev.depth < 1 || ev.depth > cls_entries) {
                return strprintf("invariant: ExecStart depth %u outside "
                                 "[1,%zu]",
                                 ev.depth, cls_entries);
            }
            break;
          }
          case LoggedEvent::Kind::IterStart: {
            ++iter_starts;
            ExecState &x = execs[ev.execId];
            if (!x.started || x.ended) {
                return strprintf("invariant: IterStart outside exec "
                                 "lifetime (%s)",
                                 describeEvent(ev).c_str());
            }
            if (ev.a != x.lastIter + 1) {
                return strprintf("invariant: exec %llu iteration index "
                                 "jumps %u -> %u",
                                 static_cast<unsigned long long>(
                                     ev.execId),
                                 x.lastIter, ev.a);
            }
            x.lastIter = ev.a;
            break;
          }
          case LoggedEvent::Kind::IterEnd: {
            ExecState &x = execs[ev.execId];
            if (!x.started || x.ended) {
                return strprintf("invariant: IterEnd outside exec "
                                 "lifetime (%s)",
                                 describeEvent(ev).c_str());
            }
            break;
          }
          case LoggedEvent::Kind::ExecEnd: {
            ++exec_ends;
            iter_count_sum += ev.a;
            ExecState &x = execs[ev.execId];
            if (!x.started || x.ended) {
                return strprintf("invariant: ExecEnd outside exec "
                                 "lifetime (%s)",
                                 describeEvent(ev).c_str());
            }
            x.ended = true;
            if (ev.a != x.lastIter) {
                return strprintf("invariant: exec %llu ends with "
                                 "iterCount %u but last iteration was %u",
                                 static_cast<unsigned long long>(
                                     ev.execId),
                                 ev.a, x.lastIter);
            }
            break;
          }
          case LoggedEvent::Kind::SingleIter:
            ++single_iters;
            if (ev.depth < 1 || ev.depth > cls_entries + 1) {
                return strprintf("invariant: SingleIter depth %u outside "
                                 "[1,%zu]",
                                 ev.depth, cls_entries + 1);
            }
            break;
        }
    }

    if (exec_starts != exec_ends) {
        return strprintf("invariant: %llu ExecStarts vs %llu ExecEnds",
                         static_cast<unsigned long long>(exec_starts),
                         static_cast<unsigned long long>(exec_ends));
    }
    for (const auto &[id, x] : execs) {
        if (x.started && !x.ended) {
            return strprintf("invariant: exec %llu never ended",
                             static_cast<unsigned long long>(id));
        }
    }

    // Iteration accounting: iterCount includes the undetectable first
    // iteration, so each execution contributes its IterStarts + 1.
    if (iter_count_sum != iter_starts + exec_ends) {
        return strprintf("invariant: iterCount sum %llu != IterStarts "
                         "%llu + execs %llu",
                         static_cast<unsigned long long>(iter_count_sum),
                         static_cast<unsigned long long>(iter_starts),
                         static_cast<unsigned long long>(exec_ends));
    }

    // Backedge accounting: every retired taken backward branch/jump
    // either detects a new execution or closes an iteration, and each
    // emits exactly one IterStart (never calls or returns).
    uint64_t taken_backward = 0, not_taken_backward = 0;
    for (const auto &d : stream) {
        if (d.kind == CtrlKind::Branch && !d.taken) {
            if (d.target <= d.pc)
                ++not_taken_backward;
            continue;
        }
        bool transfer =
            (d.kind == CtrlKind::Branch && d.taken) ||
            d.kind == CtrlKind::Jump;
        if (transfer && d.target <= d.pc)
            ++taken_backward;
    }
    if (iter_starts != taken_backward) {
        return strprintf("invariant: %llu IterStarts but %llu retired "
                         "taken backward transfers",
                         static_cast<unsigned long long>(iter_starts),
                         static_cast<unsigned long long>(taken_backward));
    }
    if (single_iters > not_taken_backward) {
        return strprintf("invariant: %llu single-iteration execs exceed "
                         "%llu not-taken backward branches",
                         static_cast<unsigned long long>(single_iters),
                         static_cast<unsigned long long>(
                             not_taken_backward));
    }
    return {};
}

/** One seeded corruption of @p image; never a byte-identical copy. */
std::vector<uint8_t>
corruptImage(const std::vector<uint8_t> &image, Rng &rng)
{
    std::vector<uint8_t> out = image;
    switch (rng.below(3)) {
      case 0: // flip bits within one byte
        out[rng.below(out.size())] ^=
            static_cast<uint8_t>(1 + rng.below(255));
        break;
      case 1: // truncate anywhere, possibly to nothing
        out.resize(rng.below(out.size()));
        break;
      default: // trailing garbage past the section table
        out.push_back(static_cast<uint8_t>(rng.next()));
        break;
    }
    return out;
}

/**
 * Every seeded corruption of @p image must fail its decoder with a
 * diagnostic — a flipped byte, truncation or extension can never decode
 * cleanly (the format's CRC + exact-size guarantees). The corruption
 * sequence is a pure function of the image bytes, so failures replay.
 */
std::string
requireCorruptionRejected(const char *what,
                          const std::vector<uint8_t> &image,
                          size_t variants)
{
    Rng rng(crc32(image.data(), image.size()) ^
            (static_cast<uint64_t>(image.size()) << 32));
    for (size_t i = 0; i < variants; ++i) {
        std::vector<uint8_t> bad = corruptImage(image, rng);
        ControlTrace out;
        std::string err = decodeControlTrace(bad.data(), bad.size(), &out);
        if (err.empty()) {
            return strprintf("disk: %s corruption variant %zu decoded "
                             "cleanly (%zu -> %zu bytes)",
                             what, i, image.size(), bad.size());
        }
    }
    return {};
}

/** Unique scratch path for the streaming-replay leg (fuzz campaigns
 *  run many DiffChecker threads in one process). */
std::string
tempImagePath()
{
    static std::atomic<uint64_t> counter{0};
    const char *dir = std::getenv("TMPDIR");
    if (!dir || !*dir)
        dir = "/tmp";
    return strprintf("%s/loopspec_diff_%d_%llu%s", dir,
                     static_cast<int>(getpid()),
                     static_cast<unsigned long long>(
                         counter.fetch_add(1)),
                     kControlTraceExt);
}

/**
 * Disk round-trip oracle (DiffConfig::diskOracle): both encodings of
 * the control-trace container decode back bit-exactly; the out-of-core
 * streaming replay of the written file reproduces the reference event
 * log; and every seeded corruption is rejected with a diagnostic.
 */
std::string
checkDiskRoundTrip(const ControlTrace &ctrace, const EventLog &ref_log,
                   size_t cls, const DiffConfig &cfg)
{
    for (TraceEncoding enc :
         {TraceEncoding::Raw, TraceEncoding::Varint}) {
        const char *ename =
            enc == TraceEncoding::Raw ? "raw" : "varint";

        // In-memory round trip: encode -> decode -> field compare.
        std::vector<uint8_t> cimg = encodeControlTrace(ctrace, enc);
        ControlTrace cback;
        std::string err =
            decodeControlTrace(cimg.data(), cimg.size(), &cback);
        if (!err.empty()) {
            return strprintf("disk: %s control image rejected by its "
                             "own decoder: %s",
                             ename, err.c_str());
        }
        err = compareControlTraces(ctrace, cback);
        if (!err.empty()) {
            return strprintf("disk: %s control round-trip: %s", ename,
                             err.c_str());
        }

        // Corruption corpus: flips, truncations, extensions.
        err = requireCorruptionRejected(
            strprintf("%s control", ename).c_str(), cimg,
            cfg.corruptionsPerImage);
        if (!err.empty())
            return err;

        // Out-of-core streaming replay from a real file. Tiny chunks
        // force records to split across every chunk boundary; the
        // replay batch stays at its default so the batched event
        // positions match the in-memory reference bit-for-bit.
        StreamConfig scfg;
        scfg.chunkBytes = 512;

        std::string cpath = tempImagePath();
        writeFileBytes(cpath, cimg);
        EventLog log_s;
        {
            std::unique_ptr<TraceFileStreamer> streamer =
                TraceFileStreamer::open(cpath, scfg, &err);
            if (!streamer) {
                std::remove(cpath.c_str());
                return strprintf("disk: %s control stream open: %s",
                                 ename, err.c_str());
            }
            LoopDetector det({cls});
            det.addListener(&log_s);
            err = streamer->replayControl(det);
        }
        std::remove(cpath.c_str());
        if (!err.empty()) {
            return strprintf("disk: %s control stream replay: %s",
                             ename, err.c_str());
        }
        err = compareLogs(
            strprintf("disk %s stream-replay", ename).c_str(), ref_log,
            log_s);
        if (!err.empty())
            return err;
    }
    return {};
}

/**
 * Predictor-state invariant: the branch-predictor baselines are pure
 * functions of the retired conditional-branch stream, so a scalar-fed
 * meter, a meter behind an odd-batch engine run() and a control-trace-
 * replay-fed meter must agree on every lookup/hit count AND end in
 * bit-identical table state (stateHash covers every counter and history
 * register).
 */
std::string
checkPredictorState(const std::vector<std::string> &specs,
                    const std::vector<DynInstr> &stream,
                    const Program &prog, const EngineConfig &ecfg,
                    const ControlTrace &ctrace)
{
    if (specs.empty())
        return {};
    std::vector<PredictorConfig> configs;
    for (const std::string &s : specs)
        configs.push_back(parsePredictorSpec(s));

    PredictorMeter scalar_fed(configs);
    for (const DynInstr &d : stream)
        scalar_fed.onInstr(d);

    PredictorMeter batch_fed(configs);
    {
        EngineConfig odd = ecfg;
        odd.batchInstrs = 777; // deliberately odd batch boundaries
        TraceEngine engine(prog, odd);
        engine.addObserver(&batch_fed);
        engine.run();
    }

    PredictorMeter replay_fed(configs);
    replayControlTrace(ctrace, replay_fed);

    const auto ref = scalar_fed.results();
    for (const auto &[what, meter] :
         {std::pair<const char *, const PredictorMeter *>{
              "odd-batch", &batch_fed},
          {"ctrace-replay", &replay_fed}}) {
        const auto got = meter->results();
        for (size_t i = 0; i < ref.size(); ++i) {
            if (got[i].lookups != ref[i].lookups ||
                got[i].hits != ref[i].hits) {
                return strprintf(
                    "predictor %s: %s-fed meter scores %llu/%llu vs "
                    "scalar %llu/%llu",
                    predictorName(ref[i].config).c_str(), what,
                    static_cast<unsigned long long>(got[i].hits),
                    static_cast<unsigned long long>(got[i].lookups),
                    static_cast<unsigned long long>(ref[i].hits),
                    static_cast<unsigned long long>(ref[i].lookups));
            }
            if (got[i].stateHash != ref[i].stateHash) {
                return strprintf(
                    "predictor %s: %s-fed table state %016llx vs "
                    "scalar %016llx",
                    predictorName(ref[i].config).c_str(), what,
                    static_cast<unsigned long long>(got[i].stateHash),
                    static_cast<unsigned long long>(ref[i].stateHash));
            }
        }
    }
    return {};
}

} // namespace

DiffResult
diffProgram(const Program &prog, const DiffConfig &cfg)
{
    EngineConfig ecfg;
    ecfg.maxInstrs = cfg.maxInstrs;

    // --- 1. DynInstr stream: step() (reference) vs run() -------------
    StreamCollector scalar;
    {
        TraceEngine engine(prog, ecfg);
        engine.addObserver(&scalar);
        DynInstr d;
        while (engine.step(d)) {
        }
    }

    StreamCollector batched;
    ControlTraceRecorder ctrace_rec;
    MemTraceRecorder mem_rec_batched;
    {
        TraceEngine engine(prog, ecfg);
        engine.addObserver(&batched);
        engine.addObserver(&ctrace_rec);
        engine.addObserver(&mem_rec_batched);
        engine.run();
    }
    if (scalar.all.size() != batched.all.size()) {
        return DiffResult::fail(strprintf(
            "stream: scalar retires %zu instrs, batched %zu",
            scalar.all.size(), batched.all.size()));
    }
    for (size_t i = 0; i < scalar.all.size(); ++i) {
        std::string err = compareInstr(scalar.all[i], batched.all[i], i);
        if (!err.empty())
            return DiffResult::fail("stream: " + err);
    }
    ControlTrace ctrace = ctrace_rec.take();

    // --- 1a. Hot-plane delivery vs the reference stream -------------
    // Hot planes alone must agree field-for-field with the scalar
    // records. The stage-1 batched collector above already covered the
    // other delivery form: cold planes materialized by the default shim.
    {
        HotStreamCollector hot;
        {
            TraceEngine engine(prog, ecfg);
            engine.addObserver(&hot);
            engine.run();
        }
        if (!hot.err.empty())
            return DiffResult::fail(hot.err);
        if (hot.all.size() != scalar.all.size()) {
            return DiffResult::fail(strprintf(
                "soa: hot planes carry %zu instrs, scalar %zu",
                hot.all.size(), scalar.all.size()));
        }
        for (size_t i = 0; i < scalar.all.size(); ++i) {
            const DynInstr &a = scalar.all[i];
            const HotStreamCollector::Hot &b = hot.all[i];
            if (a.seq != b.seq || a.pc != b.pc || a.target != b.target ||
                a.kind != b.kind || a.taken != b.taken) {
                return DiffResult::fail(strprintf(
                    "soa: hot planes diverge from scalar at instr %zu",
                    i));
            }
        }
    }

    // --- 1b. Predictor-state invariant (CLS-independent) -------------
    {
        std::string err =
            checkPredictorState(cfg.predictorSpecs, scalar.all, prog,
                                ecfg, ctrace);
        if (!err.empty())
            return DiffResult::fail(err);
    }

    // --- 1c. Memory-access sidecar: scalar vs batched delivery -------
    // The sidecar is CLS-independent; both delivery paths must record
    // the identical (seq, addr, pc, isStore) sequence.
    MemTraceRecorder mem_rec_scalar;
    for (const DynInstr &d : scalar.all)
        mem_rec_scalar.onInstr(d);
    mem_rec_scalar.onTraceEnd(scalar.totalInstrs);
    const MemAccessTrace mem_scalar = mem_rec_scalar.take();
    const MemAccessTrace mem_batched = mem_rec_batched.take();
    if (mem_scalar.stateHash() != mem_batched.stateHash()) {
        return DiffResult::fail(strprintf(
            "memtrace: batched sidecar hash %016llx vs scalar %016llx "
            "(%zu vs %zu accesses)",
            static_cast<unsigned long long>(mem_batched.stateHash()),
            static_cast<unsigned long long>(mem_scalar.stateHash()),
            mem_batched.accesses.size(), mem_scalar.accesses.size()));
    }

    // --- 2. Per-CLS-size detector pipeline comparisons ---------------
    for (size_t cls : cfg.clsSizes) {
        std::string tag = strprintf("cls=%zu", cls);

        // (A) Reference: scalar-fed detector.
        EventLog log_a;
        LoopStats stats_a;
        MeterBank meters_a(cfg.meterSizes);
        LoopEventRecorder recorder_a;
        DataSpecBank dataspec_a;
        {
            LoopDetector det({cls});
            det.addListener(&log_a);
            det.addListener(&stats_a);
            meters_a.attach(det);
            det.addListener(&recorder_a);
            dataspec_a.attach(det);
            for (const auto &d : scalar.all)
                det.onInstr(d);
            det.onTraceEnd(scalar.totalInstrs);
        }
        LoopEventRecording recording = recorder_a.take();

        // (B) Engine-batched: a real run() with the detector attached.
        EventLog log_b;
        LoopStats stats_b;
        LoopEventRecorder recorder_b;
        {
            TraceEngine engine(prog, ecfg);
            LoopDetector det({cls});
            det.addListener(&log_b);
            det.addListener(&stats_b);
            det.addListener(&recorder_b);
            engine.addObserver(&det);
            engine.run();
        }
        std::string err =
            compareLogs((tag + " engine-batched").c_str(), log_a, log_b);
        if (err.empty())
            err = compareStats((tag + " engine-batched").c_str(),
                               stats_a.report(), stats_b.report());
        if (!err.empty())
            return DiffResult::fail(err);

        // (B1) Odd-sized engine batches stress span boundaries, with
        // the profiler reading record spans from the cold planes.
        EventLog log_b1;
        DataSpecBank dataspec_b1;
        {
            EngineConfig odd = ecfg;
            odd.batchInstrs = 999;
            TraceEngine engine(prog, odd);
            LoopDetector det({cls});
            det.addListener(&log_b1);
            dataspec_b1.attach(det);
            engine.addObserver(&det);
            engine.run();
        }
        err = compareLogs((tag + " odd-batched").c_str(), log_a, log_b1);
        if (err.empty())
            err = dataspec_b1.compare((tag + " odd-batched").c_str(),
                                      dataspec_a);
        if (!err.empty())
            return DiffResult::fail(err);

        // (B3) §4 profiler alone at the default batch size: behind an
        // engine run() detector it reads SoA span ranges straight from
        // the cold planes and must reproduce the scalar-fed report and
        // the per-iteration live-in flag map exactly.
        {
            DataSpecBank dataspec_b3;
            TraceEngine engine(prog, ecfg);
            LoopDetector det({cls});
            dataspec_b3.attach(det);
            engine.addObserver(&det);
            engine.run();
            err = dataspec_b3.compare((tag + " engine-batched").c_str(),
                                      dataspec_a);
            if (!err.empty())
                return DiffResult::fail(err);
        }

        // (C) Control-trace replay (the injection point).
        size_t replay_cls =
            cfg.injectClsOffByOne && cls > 1 ? cls - 1 : cls;
        EventLog log_c;
        LoopStats stats_c;
        LoopEventRecorder recorder_c;
        {
            LoopDetector det({replay_cls});
            det.addListener(&log_c);
            det.addListener(&stats_c);
            det.addListener(&recorder_c);
            replayControlTrace(ctrace, det);
        }
        err = compareLogs((tag + " ctrace-replay").c_str(), log_a, log_c);
        if (err.empty())
            err = compareStats((tag + " ctrace-replay").c_str(),
                               stats_a.report(), stats_c.report());
        if (!err.empty())
            return DiffResult::fail(err);

        // (C2) Interleaved replay: two chunk-scheduled sources over the
        // same control trace must each reproduce the reference events
        // (interleaving is a pure scheduling change).
        EventLog log_c2a, log_c2b;
        {
            LoopDetector det_a({cls}), det_b({cls});
            det_a.addListener(&log_c2a);
            det_b.addListener(&log_c2b);
            ControlTraceSource src_a(ctrace, det_a);
            ControlTraceSource src_b(ctrace, det_b);
            std::string ierr = interleaveReplay({&src_a, &src_b}, 1000);
            if (!ierr.empty())
                return DiffResult::fail(tag + " interleaved: " + ierr);
        }
        err = compareLogs((tag + " interleaved-a").c_str(), log_a,
                          log_c2a);
        if (err.empty())
            err = compareLogs((tag + " interleaved-b").c_str(), log_a,
                              log_c2b);
        if (!err.empty())
            return DiffResult::fail(err);

        // (D2) Disk round-trip + corruption-rejection oracle. The
        // container codecs are CLS-independent, so one pass (at the
        // first CLS size) per program keeps fuzz throughput.
        if (cfg.diskOracle && cls == cfg.clsSizes.front()) {
            err = checkDiskRoundTrip(ctrace, log_a, cls, cfg);
            if (!err.empty())
                return DiffResult::fail(err);
        }

        // (G) Conflict-profile equivalence (docs/DATASPEC.md): the
        // profiler is a pure function of (recording, sidecar), so the
        // scalar-fed, engine-batched and control-trace-replay
        // recordings — paired with either sidecar delivery — must walk
        // to identical conflict sets, violation sequences and hashes.
        // The replay leg is the conflict injection point.
        {
            const ConflictProfile prof_a =
                profileConflicts(recording, mem_scalar);
            const ConflictProfile prof_b =
                profileConflicts(recorder_b.take(), mem_batched);
            ConflictConfig ccfg;
            ccfg.injectIterOffByOne = cfg.injectConflictIterOffByOne;
            const ConflictProfile prof_c =
                profileConflicts(recorder_c.take(), mem_scalar, ccfg);
            err = compareConflictProfiles(prof_a, prof_b);
            if (!err.empty()) {
                return DiffResult::fail(tag +
                                        " conflicts engine-batched: " +
                                        err);
            }
            err = compareConflictProfiles(prof_a, prof_c);
            if (!err.empty()) {
                return DiffResult::fail(
                    tag + " conflicts ctrace-replay: " + err);
            }
            if (prof_a.stateHash() != prof_b.stateHash() ||
                prof_a.stateHash() != prof_c.stateHash()) {
                return DiffResult::fail(strprintf(
                    "%s conflicts: state hashes diverge "
                    "(scalar %016llx batched %016llx replay %016llx)",
                    tag.c_str(),
                    static_cast<unsigned long long>(prof_a.stateHash()),
                    static_cast<unsigned long long>(prof_b.stateHash()),
                    static_cast<unsigned long long>(
                        prof_c.stateHash())));
            }
        }

        // (E) Detector invariants on the reference log.
        err = checkInvariants(log_a, scalar.all, cls);
        if (!err.empty())
            return DiffResult::fail(tag + " " + err);

        // (F) Meters vs independent LRU reference models.
        for (size_t i = 0; i < cfg.meterSizes.size(); ++i) {
            HitRatioResult ref = refLetResult(log_a.events,
                                              cfg.meterSizes[i]);
            const HitRatioResult &got = meters_a.lets[i]->result();
            if (ref.accesses != got.accesses || ref.hits != got.hits) {
                return DiffResult::fail(strprintf(
                    "%s LET@%zu: meter %llu/%llu vs LRU model %llu/%llu",
                    tag.c_str(), cfg.meterSizes[i],
                    static_cast<unsigned long long>(got.hits),
                    static_cast<unsigned long long>(got.accesses),
                    static_cast<unsigned long long>(ref.hits),
                    static_cast<unsigned long long>(ref.accesses)));
            }
            ref = refLitResult(log_a.events, cfg.meterSizes[i]);
            const HitRatioResult &lgot = meters_a.lits[i]->result();
            if (ref.accesses != lgot.accesses || ref.hits != lgot.hits) {
                return DiffResult::fail(strprintf(
                    "%s LIT@%zu: meter %llu/%llu vs LRU model %llu/%llu",
                    tag.c_str(), cfg.meterSizes[i],
                    static_cast<unsigned long long>(lgot.hits),
                    static_cast<unsigned long long>(lgot.accesses),
                    static_cast<unsigned long long>(ref.hits),
                    static_cast<unsigned long long>(ref.accesses)));
            }
        }
    }

    return {};
}

} // namespace synth
} // namespace loopspec
