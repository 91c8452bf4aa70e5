#include "tables/iter_predictor.hh"

namespace loopspec
{

IterCountPredictor::IterCountPredictor(size_t num_entries)
{
    if (num_entries > 0)
        bounded = std::make_unique<LoopTable<Entry>>(num_entries);
}

void
IterCountPredictor::update(Entry &e, int64_t count)
{
    if (e.hasLast) {
        int64_t stride = count - e.lastCount;
        if (e.hasStride) {
            if (stride == e.stride)
                e.confidence.up();
            else
                e.confidence.down();
        }
        e.stride = stride;
        e.hasStride = true;
    }
    e.lastCount = count;
    e.hasLast = true;
}

TripPrediction
IterCountPredictor::predictFrom(const Entry &e)
{
    if (!e.hasLast)
        return {TripPredictionKind::Unknown, 0};
    if (e.hasStride && e.confidence.confident()) {
        int64_t predicted = e.lastCount + e.stride;
        if (predicted < 1)
            predicted = 1;
        return {TripPredictionKind::Stride, predicted};
    }
    return {TripPredictionKind::LastCount, e.lastCount};
}

void
IterCountPredictor::recordExecution(uint32_t loop, uint64_t iters)
{
    int64_t count = static_cast<int64_t>(iters);
    if (bounded) {
        Entry *e = bounded->find(loop);
        if (!e)
            e = &bounded->insert(loop); // LRU eviction loses history
        bounded->touch(loop);
        update(*e, count);
        return;
    }
    if (loop >= entries.size())
        entries.resize(static_cast<size_t>(loop) + 1);
    update(entries[loop], count);
}

TripPrediction
IterCountPredictor::predict(uint32_t loop) const
{
    if (bounded) {
        const Entry *e = bounded->find(loop);
        if (!e)
            return {TripPredictionKind::Unknown, 0};
        return predictFrom(*e);
    }
    if (loop >= entries.size())
        return {TripPredictionKind::Unknown, 0};
    return predictFrom(entries[loop]);
}

size_t
IterCountPredictor::trackedLoops() const
{
    if (bounded)
        return bounded->size();
    size_t n = 0;
    for (const Entry &e : entries)
        n += e.hasLast;
    return n;
}

} // namespace loopspec
