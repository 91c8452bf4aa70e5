/**
 * @file
 * Content-addressed cache behind the sweep pipeline (docs/DESIGN.md
 * §9, §12): (LoopEventRecording, RecordingIndex) pairs, memory-access
 * sidecars and §4 reports keyed on everything that determines their
 * bytes — workload, scale factor (exact double bits), instruction
 * window, trace source and CLS capacity — and evicted
 * least-recently-used under a configurable memory budget. sweepd owns
 * a persistent one; runSpecSweep uses a zero-budget one, which caches
 * nothing.
 *
 * Entries are immutable once inserted and handed out as
 * shared_ptr<const T>: eviction only drops the cache's reference, so a
 * request still simulating over an evicted recording keeps it alive
 * until the response is written. The accounted footprint is charged on
 * insert and released on evict regardless of outstanding readers
 * (budget = what the cache itself pins).
 *
 * get-or-insert semantics: when two requests miss on the same key and
 * both build, the first insert wins and the second builder adopts the
 * already-cached object — every user of a key always simulates over
 * the same bytes.
 */

#ifndef LOOPSPEC_SERVICE_RECORDING_CACHE_HH
#define LOOPSPEC_SERVICE_RECORDING_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>

#include "dataspec/data_profiler.hh"
#include "dataspec/mem_trace.hh"
#include "speculation/event_record.hh"
#include "speculation/spec_sim.hh"

namespace loopspec
{

/** Cache effectiveness counters (sweepd_client --stats). */
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;     //!< resident entries
    uint64_t bytes = 0;       //!< accounted resident bytes
    uint64_t budgetBytes = 0; //!< configured ceiling
};

/** An immutable cached memory-access sidecar (CLS-independent, so one
 *  entry serves conflict annotation at every CLS size). */
struct CachedMemTrace
{
    MemAccessTrace trace;

    size_t
    memoryBytes() const
    {
        return trace.memoryBytes();
    }
};

/** An immutable cached §4 per-workload data-speculation report. */
struct CachedDataReport
{
    DataSpecReport report;

    size_t
    memoryBytes() const
    {
        return sizeof(DataSpecReport);
    }
};

/** An immutable cached recording with its shared read-only index,
 *  built together so no request ever re-indexes a cached recording. */
struct CachedRecording
{
    explicit CachedRecording(LoopEventRecording rec)
        : recording(std::move(rec)), index(recording)
    {
    }

    LoopEventRecording recording;
    RecordingIndex index;

    size_t
    memoryBytes() const
    {
        return recording.memoryBytes() + index.memoryBytes();
    }
};

class RecordingCache
{
  public:
    /** @param budget_bytes accounted-byte ceiling; 0 = cache nothing
     *  (every put hands its entry back and evicts it at once — the mode
     *  runSpecSweep runs the shared pipeline in). */
    explicit RecordingCache(uint64_t budget_bytes)
        : budget(budget_bytes)
    {
    }

    RecordingCache(const RecordingCache &) = delete;
    RecordingCache &operator=(const RecordingCache &) = delete;

    /** Content-address of a (workload, CLS) recording+index pair.
     *  @p src is the serving trace directory or "run" for in-process
     *  execution; @p scale_factor is keyed on its exact bit pattern, so
     *  0.25 and 0.250000001 never collide.
     *  @p annotations names the derived data-speculation annotations
     *  the recording carries ("" = none, "l" = live-in flags, "m" =
     *  conflict sources, "lm" = both) — an annotated recording must
     *  never be adopted by a grid expecting different annotations. */
    static std::string recordingKey(const std::string &workload,
                                    double scale_factor,
                                    uint64_t max_instrs,
                                    const std::string &src, size_t cls,
                                    const std::string &annotations = "");

    /** Content-address of a workload's memory-access sidecar. */
    static std::string memTraceKey(const std::string &workload,
                                   double scale_factor,
                                   uint64_t max_instrs,
                                   const std::string &src);

    /** Content-address of a workload's §4 data-speculation report. */
    static std::string dataReportKey(const std::string &workload,
                                     double scale_factor,
                                     uint64_t max_instrs,
                                     const std::string &src);

    /** nullptr on miss (counted); hit refreshes LRU position. */
    std::shared_ptr<const CachedRecording>
    getRecording(const std::string &key);
    std::shared_ptr<const CachedMemTrace>
    getMemTrace(const std::string &key);
    std::shared_ptr<const CachedDataReport>
    getDataReport(const std::string &key);

    /** Insert-or-adopt: returns the resident entry for @p key — the
     *  one just inserted, or a pre-existing one from a racing builder
     *  (first insert wins). May evict, including the new entry itself
     *  when it alone exceeds the budget. */
    std::shared_ptr<const CachedRecording>
    putRecording(const std::string &key,
                 std::shared_ptr<const CachedRecording> value);
    std::shared_ptr<const CachedMemTrace>
    putMemTrace(const std::string &key,
                std::shared_ptr<const CachedMemTrace> value);
    std::shared_ptr<const CachedDataReport>
    putDataReport(const std::string &key,
                  std::shared_ptr<const CachedDataReport> value);

    CacheStats stats() const;

  private:
    struct Entry
    {
        std::variant<std::shared_ptr<const CachedRecording>,
                     std::shared_ptr<const CachedMemTrace>,
                     std::shared_ptr<const CachedDataReport>>
            value;
        size_t bytes = 0;
        std::list<std::string>::iterator lruIt;
    };

    /** The one lookup and the one insert-or-adopt behind the typed
     *  accessors above. */
    template <typename T>
    std::shared_ptr<const T> get(const std::string &key);
    template <typename T>
    std::shared_ptr<const T> put(const std::string &key,
                                 std::shared_ptr<const T> value);

    mutable std::mutex mtx;
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru; //!< front = most recently used
    uint64_t budget;
    uint64_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
};

} // namespace loopspec

#endif // LOOPSPEC_SERVICE_RECORDING_CACHE_HH
