#include "dataspec/conflict_profiler.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace loopspec
{

namespace
{

/** Last store into an address within one live execution. */
struct Writer
{
    uint32_t iter = 0;
    uint32_t pc = 0;
};

/** One live (nested) loop execution during the merge walk. */
struct Frame
{
    uint32_t execIdx = 0; //!< index into LoopEventRecording::execs
    uint32_t curIter = 2; //!< detection makes iteration 2 the first seen
    std::unordered_map<uint64_t, Writer> writers;
};

size_t
findFrame(const std::vector<Frame> &frames, uint32_t exec_idx)
{
    for (size_t i = frames.size(); i-- > 0;) {
        if (frames[i].execIdx == exec_idx)
            return i;
    }
    panic("loop event for an execution with no open frame");
}

} // namespace

ConflictProfile
profileConflicts(const LoopEventRecording &recording,
                 const MemAccessTrace &mem, const ConflictConfig &config)
{
    ConflictProfile out;

    // Edge accumulation in ordered maps so the final per-loop edge
    // vectors come out sorted by (storePc, loadPc) with no extra pass.
    std::map<uint32_t,
             std::map<std::pair<uint32_t, uint32_t>, uint64_t>>
        edge_counts;
    std::map<uint32_t, uint64_t> edge_overflow;

    std::vector<Frame> frames;
    const std::vector<SimEvent> &evs = recording.events;
    size_t ei = 0;

    // The detector emits ExecStart immediately followed by IterStart(2)
    // at the same position, so iteration 2's start opens a frame.
    auto apply_event = [&frames](const SimEvent &e) {
        if (e.kind == SimEventKind::ExecEnd) {
            frames.erase(frames.begin() +
                         static_cast<long>(findFrame(frames, e.execIdx)));
        } else if (e.iterIndex == 2) {
            Frame f;
            f.execIdx = e.execIdx;
            frames.push_back(std::move(f));
        } else {
            frames[findFrame(frames, e.execIdx)].curIter = e.iterIndex;
        }
    };

    for (const MemAccess &a : mem.accesses) {
        // An event's boundary is the first instruction of the new state,
        // so an event at boundary == a.seq applies before the access.
        // Events come from control instructions, which access no memory
        // (the periodic CLS flush, off in every sweep, is the one
        // exception), and a trace-end boundary is clamped to
        // totalInstrs, past every access.
        while (ei < evs.size() && evs[ei].boundary <= a.seq)
            apply_event(evs[ei++]);
        if (frames.empty())
            continue;

        for (Frame &f : frames) {
            if (a.isStore) {
                Writer &w = f.writers[a.addr];
                w.iter = f.curIter;
                w.pc = a.pc;
                continue;
            }
            auto it = f.writers.find(a.addr);
            if (it == f.writers.end())
                continue;
            const Writer &w = it->second;
            if (w.iter >= f.curIter)
                continue; // same-iteration forwarding, never a conflict

            // Cross-iteration RAW: iteration curIter reads what
            // iteration w.iter stored.
            const ExecRecord &x = recording.execs[f.execIdx];
            auto &loop_edges = edge_counts[x.loop];
            auto key = std::make_pair(w.pc, a.pc);
            auto eit = loop_edges.find(key);
            if (eit != loop_edges.end()) {
                ++eit->second;
            } else if (loop_edges.size() < config.maxEdgesPerLoop) {
                loop_edges.emplace(key, 1);
            } else {
                ++edge_overflow[x.loop];
            }

            ++out.totalViolations;
            if (out.violations.size() < config.maxViolations) {
                ConflictViolation v;
                v.seq = a.seq;
                v.execId = x.execId;
                v.iterIndex = f.curIter;
                v.srcIter = w.iter;
                v.loadPc = a.pc;
                v.storePc = w.pc;
                out.violations.push_back(v);
            }

            std::vector<uint32_t> &dep = out.iterDepSrc[x.execId];
            size_t idx = static_cast<size_t>(f.curIter) - 2 +
                         (config.injectIterOffByOne ? 1 : 0);
            if (dep.size() <= idx)
                dep.resize(idx + 1, 0);
            dep[idx] = std::max(dep[idx], w.iter);
        }
    }

    // Drain the event tail so malformed recordings (executions left
    // open) still trip the recorder-side invariants they would have
    // tripped live.
    while (ei < evs.size())
        apply_event(evs[ei++]);

    for (auto &[loop, edges] : edge_counts) {
        LoopConflictSet &set = out.loops[loop];
        set.edges.reserve(edges.size());
        for (const auto &[key, count] : edges) {
            ConflictEdge e;
            e.storePc = key.first;
            e.loadPc = key.second;
            e.count = count;
            set.edges.push_back(e);
        }
        auto oit = edge_overflow.find(loop);
        if (oit != edge_overflow.end())
            set.edgeOverflowCount = oit->second;
    }

    return out;
}

uint64_t
ConflictProfile::stateHash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };

    mix(loops.size());
    for (const auto &[loop, set] : loops) {
        mix(loop);
        mix(set.edges.size());
        for (const ConflictEdge &e : set.edges) {
            mix(e.storePc);
            mix(e.loadPc);
            mix(e.count);
        }
        mix(set.edgeOverflowCount);
    }

    mix(totalViolations);
    mix(violations.size());
    for (const ConflictViolation &v : violations) {
        mix(v.seq);
        mix(v.execId);
        mix(v.iterIndex);
        mix(v.srcIter);
        mix(v.loadPc);
        mix(v.storePc);
    }

    std::vector<uint64_t> exec_ids;
    exec_ids.reserve(iterDepSrc.size());
    for (const auto &[exec_id, dep] : iterDepSrc) {
        (void)dep;
        exec_ids.push_back(exec_id);
    }
    std::sort(exec_ids.begin(), exec_ids.end());
    mix(exec_ids.size());
    for (uint64_t exec_id : exec_ids) {
        mix(exec_id);
        const std::vector<uint32_t> &dep = iterDepSrc.at(exec_id);
        mix(dep.size());
        for (uint32_t src : dep)
            mix(src);
    }
    return h;
}

size_t
ConflictProfile::memoryBytes() const
{
    size_t bytes = violations.capacity() * sizeof(ConflictViolation);
    for (const auto &[loop, set] : loops) {
        (void)loop;
        bytes += sizeof(LoopConflictSet) +
                 set.edges.capacity() * sizeof(ConflictEdge);
    }
    for (const auto &[exec_id, dep] : iterDepSrc) {
        (void)exec_id;
        bytes += sizeof(uint64_t) + dep.capacity() * sizeof(uint32_t);
    }
    return bytes;
}

std::string
compareConflictProfiles(const ConflictProfile &a, const ConflictProfile &b)
{
    if (a.loops.size() != b.loops.size())
        return "loop count " + std::to_string(a.loops.size()) + " vs " +
               std::to_string(b.loops.size());
    auto bit = b.loops.begin();
    for (auto ait = a.loops.begin(); ait != a.loops.end(); ++ait, ++bit) {
        if (ait->first != bit->first)
            return "loop id " + std::to_string(ait->first) + " vs " +
                   std::to_string(bit->first);
        const LoopConflictSet &sa = ait->second;
        const LoopConflictSet &sb = bit->second;
        std::string at = "loop " + std::to_string(ait->first);
        if (sa.edges.size() != sb.edges.size())
            return at + ": edge count " +
                   std::to_string(sa.edges.size()) + " vs " +
                   std::to_string(sb.edges.size());
        for (size_t i = 0; i < sa.edges.size(); ++i) {
            const ConflictEdge &ea = sa.edges[i];
            const ConflictEdge &eb = sb.edges[i];
            if (ea.storePc != eb.storePc || ea.loadPc != eb.loadPc ||
                ea.count != eb.count)
                return at + " edge " + std::to_string(i) + ": (" +
                       std::to_string(ea.storePc) + "->" +
                       std::to_string(ea.loadPc) + " x" +
                       std::to_string(ea.count) + ") vs (" +
                       std::to_string(eb.storePc) + "->" +
                       std::to_string(eb.loadPc) + " x" +
                       std::to_string(eb.count) + ")";
        }
        if (sa.edgeOverflowCount != sb.edgeOverflowCount)
            return at + ": edge overflow " +
                   std::to_string(sa.edgeOverflowCount) + " vs " +
                   std::to_string(sb.edgeOverflowCount);
    }

    if (a.totalViolations != b.totalViolations)
        return "total violations " + std::to_string(a.totalViolations) +
               " vs " + std::to_string(b.totalViolations);
    if (a.violations.size() != b.violations.size())
        return "violation count " + std::to_string(a.violations.size()) +
               " vs " + std::to_string(b.violations.size());
    for (size_t i = 0; i < a.violations.size(); ++i) {
        const ConflictViolation &va = a.violations[i];
        const ConflictViolation &vb = b.violations[i];
        if (va.seq != vb.seq || va.execId != vb.execId ||
            va.iterIndex != vb.iterIndex || va.srcIter != vb.srcIter ||
            va.loadPc != vb.loadPc || va.storePc != vb.storePc)
            return "violation " + std::to_string(i) + ": seq " +
                   std::to_string(va.seq) + " exec " +
                   std::to_string(va.execId) + " iter " +
                   std::to_string(va.iterIndex) + "<-" +
                   std::to_string(va.srcIter) + " vs seq " +
                   std::to_string(vb.seq) + " exec " +
                   std::to_string(vb.execId) + " iter " +
                   std::to_string(vb.iterIndex) + "<-" +
                   std::to_string(vb.srcIter);
    }

    if (a.iterDepSrc.size() != b.iterDepSrc.size())
        return "annotated exec count " +
               std::to_string(a.iterDepSrc.size()) + " vs " +
               std::to_string(b.iterDepSrc.size());
    for (const auto &[exec_id, dep_a] : a.iterDepSrc) {
        auto it = b.iterDepSrc.find(exec_id);
        if (it == b.iterDepSrc.end())
            return "exec " + std::to_string(exec_id) +
                   " annotated on one side only";
        if (dep_a != it->second)
            return "exec " + std::to_string(exec_id) +
                   ": iterDepSrc differs";
    }
    return "";
}

void
annotateConflicts(LoopEventRecording *recording,
                  const ConflictProfile &profile)
{
    for (ExecRecord &e : recording->execs) {
        size_t slots =
            e.iterCount >= 2 ? static_cast<size_t>(e.iterCount) - 1 : 0;
        e.iterDepSrc.assign(slots, 0);
        auto it = profile.iterDepSrc.find(e.execId);
        if (it == profile.iterDepSrc.end())
            continue;
        const std::vector<uint32_t> &dep = it->second;
        size_t n = std::min(slots, dep.size());
        for (size_t i = 0; i < n; ++i)
            e.iterDepSrc[i] = dep[i];
    }
}

} // namespace loopspec
