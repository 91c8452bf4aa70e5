/**
 * @file
 * Iteration-count stride predictor: the LET payload the STR speculation
 * policy consumes (§2.3 "each LET entry contains ... the last iteration
 * count and the difference between the previous two counts"; §3.1.2 "a
 * two-bit saturating counter is used" for stride confidence).
 */

#ifndef LOOPSPEC_TABLES_ITER_PREDICTOR_HH
#define LOOPSPEC_TABLES_ITER_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tables/loop_table.hh"
#include "predict/sat_counter.hh"

namespace loopspec
{

/** What the predictor knows about a loop's trip count. */
enum class TripPredictionKind : uint8_t
{
    Unknown,    //!< loop never completed an execution yet
    LastCount,  //!< only the last execution's count is trustworthy
    Stride,     //!< reliable stride: predict last + stride
};

/** A trip-count prediction. */
struct TripPrediction
{
    TripPredictionKind kind = TripPredictionKind::Unknown;
    int64_t count = 0; //!< predicted total iterations of this execution
};

/**
 * Per-loop trip-count stride predictor — the LET payload. Unbounded by
 * default (num_entries == 0), matching §3's evaluation with sufficient
 * LET capacity; pass a finite entry count to model the real small
 * hardware table (fully associative, LRU on execution recording), which
 * bench_ablation part E sweeps to connect the Figure-4 LET hit ratios
 * to delivered TPC.
 *
 * The two modes key loops differently. The unbounded mode is a flat
 * table indexed directly by the key, grown to the largest key recorded,
 * so its keys should be dense loop ids (RecordingIndex::loopId). The
 * bounded mode is a LoopTable searched by key, where key 0 marks a free
 * slot, so its keys are loop addresses.
 */
class IterCountPredictor
{
  public:
    explicit IterCountPredictor(size_t num_entries = 0);

    /** Record a completed execution of @p loop with @p iters iterations. */
    void recordExecution(uint32_t loop, uint64_t iters);

    /** Predict the total iteration count of a starting execution. */
    TripPrediction predict(uint32_t loop) const;

    size_t trackedLoops() const;

  private:
    struct Entry
    {
        int64_t lastCount = 0;
        int64_t stride = 0;
        bool hasLast = false;
        bool hasStride = false;
        TwoBitCounter confidence;
    };

    static void update(Entry &e, int64_t count);
    static TripPrediction predictFrom(const Entry &e);

    std::vector<Entry> entries; //!< unbounded mode, indexed by key
    std::unique_ptr<LoopTable<Entry>> bounded; //!< finite-LET mode
};

} // namespace loopspec

#endif // LOOPSPEC_TABLES_ITER_PREDICTOR_HH
