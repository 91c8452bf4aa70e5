#include "service/recording_cache.hh"

#include <cstring>

#include "util/logging.hh"

namespace loopspec
{

namespace
{

/** Exact bit pattern of the scale factor: content addressing must not
 *  go through decimal formatting (two factors that print the same
 *  could still simulate differently). */
std::string
scaleBits(double factor)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(factor), "double is 64-bit");
    std::memcpy(&bits, &factor, sizeof(bits));
    return strprintf("%016llx", static_cast<unsigned long long>(bits));
}

/** Fixed per-entry overhead charged on top of the payload: key string,
 *  map node, LRU node, control blocks. */
constexpr size_t kEntryOverheadBytes = 128;

} // namespace

std::string
RecordingCache::recordingKey(const std::string &workload,
                             double scale_factor, uint64_t max_instrs,
                             const std::string &src, size_t cls,
                             const std::string &annotations)
{
    std::string key =
        "rec|" + workload + "|scale=" + scaleBits(scale_factor) +
        "|max=" + std::to_string(max_instrs) + "|src=" + src +
        "|cls=" + std::to_string(cls) + "|fmt=engine-v1";
    if (!annotations.empty())
        key += "|ann=" + annotations;
    return key;
}

std::string
RecordingCache::memTraceKey(const std::string &workload,
                            double scale_factor, uint64_t max_instrs,
                            const std::string &src)
{
    return "memtrace|" + workload + "|scale=" + scaleBits(scale_factor) +
           "|max=" + std::to_string(max_instrs) + "|src=" + src +
           "|fmt=engine-v1";
}

std::string
RecordingCache::dataReportKey(const std::string &workload,
                              double scale_factor, uint64_t max_instrs,
                              const std::string &src)
{
    return "dsrep|" + workload + "|scale=" + scaleBits(scale_factor) +
           "|max=" + std::to_string(max_instrs) + "|src=" + src +
           "|fmt=engine-v1";
}

template <typename T>
std::shared_ptr<const T>
RecordingCache::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(key);
    const auto *held =
        it == entries.end()
            ? nullptr
            : std::get_if<std::shared_ptr<const T>>(&it->second.value);
    if (!held) {
        ++misses;
        return nullptr;
    }
    ++hits;
    lru.splice(lru.begin(), lru, it->second.lruIt);
    return *held;
}

template <typename T>
std::shared_ptr<const T>
RecordingCache::put(const std::string &key, std::shared_ptr<const T> value)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = entries.find(key);
    if (it != entries.end()) {
        if (const auto *held =
                std::get_if<std::shared_ptr<const T>>(&it->second.value)) {
            lru.splice(lru.begin(), lru, it->second.lruIt);
            return *held;
        }
    }
    Entry e;
    e.bytes = value->memoryBytes() + key.size() + kEntryOverheadBytes;
    e.value = value;
    lru.push_front(key);
    e.lruIt = lru.begin();
    bytes += e.bytes;
    ++insertions;
    entries.emplace(key, std::move(e));

    // Strict LRU from the cold end; the just-inserted entry sits at the
    // front and is only reached — and deterministically dropped — when
    // it alone exceeds the whole budget.
    while (bytes > budget && !lru.empty()) {
        const std::string victim = lru.back();
        auto vit = entries.find(victim);
        bytes -= vit->second.bytes;
        lru.pop_back();
        entries.erase(vit);
        ++evictions;
    }
    return value;
}

std::shared_ptr<const CachedRecording>
RecordingCache::getRecording(const std::string &key)
{
    return get<CachedRecording>(key);
}

std::shared_ptr<const CachedMemTrace>
RecordingCache::getMemTrace(const std::string &key)
{
    return get<CachedMemTrace>(key);
}

std::shared_ptr<const CachedDataReport>
RecordingCache::getDataReport(const std::string &key)
{
    return get<CachedDataReport>(key);
}

std::shared_ptr<const CachedRecording>
RecordingCache::putRecording(const std::string &key,
                             std::shared_ptr<const CachedRecording> value)
{
    return put(key, std::move(value));
}

std::shared_ptr<const CachedMemTrace>
RecordingCache::putMemTrace(const std::string &key,
                            std::shared_ptr<const CachedMemTrace> value)
{
    return put(key, std::move(value));
}

std::shared_ptr<const CachedDataReport>
RecordingCache::putDataReport(
    const std::string &key,
    std::shared_ptr<const CachedDataReport> value)
{
    return put(key, std::move(value));
}

CacheStats
RecordingCache::stats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    CacheStats s;
    s.hits = hits;
    s.misses = misses;
    s.insertions = insertions;
    s.evictions = evictions;
    s.entries = entries.size();
    s.bytes = bytes;
    s.budgetBytes = budget;
    return s;
}

} // namespace loopspec
