/**
 * @file
 * Predictor accuracy meter over the retired conditional-branch stream —
 * the measurement side of the loop-detection-vs-predictor comparison
 * (docs/PREDICTORS.md). A TraceObserver, so it attaches to a
 * TraceEngine next to the LoopDetector and sees the identical stream;
 * the batch path walks only the producer's control index over the hot
 * planes, so a predictor sweep never makes the engine fill the cold
 * planes. Control-trace replay feeds
 * the same fields (pc, kind, taken), so a replay-derived meter is
 * bit-identical to a live one — runWorkload's --check-replay pins that.
 */

#ifndef LOOPSPEC_PREDICT_PREDICTOR_METER_HH
#define LOOPSPEC_PREDICT_PREDICTOR_METER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "predict/branch_predictor.hh"
#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** One predictor's accuracy over a trace. */
struct PredictorMeterResult
{
    PredictorConfig config;
    uint64_t lookups = 0; //!< retired conditional branches
    uint64_t hits = 0;    //!< predict(pc) matched the retired outcome
    uint64_t stateHash = 0; //!< final table digest (diff-checking)

    double
    hitPct() const
    {
        return lookups ? 100.0 * static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/**
 * Runs a battery of predictors over every retired conditional branch:
 * each is asked for its prediction, scored against the retired
 * direction, then trained with it — the standard
 * predict-at-fetch/update-at-retire accuracy methodology collapsed
 * onto the retired stream (docs/PREDICTORS.md discusses the timing).
 */
class PredictorMeter : public TraceObserver
{
  public:
    explicit PredictorMeter(const std::vector<PredictorConfig> &configs);

    // TraceObserver interface.
    void onInstr(const DynInstr &instr) override;
    /** Hot-plane consumer: a lookup needs only pc, kind and taken. */
    void onInstrBatchSoA(const SoaBatch &batch) override;
    BatchNeed batchNeed() const override { return BatchNeed::HotPlanes; }

    /** Results in configuration order (stateHash filled in). */
    std::vector<PredictorMeterResult> results() const;

    size_t numPredictors() const { return preds.size(); }

  private:
    void onBranch(uint32_t pc, bool taken);

    struct Slot
    {
        PredictorConfig config;
        std::unique_ptr<BranchPredictor> pred;
        uint64_t lookups = 0;
        uint64_t hits = 0;
    };

    std::vector<Slot> preds;
};

} // namespace loopspec

#endif // LOOPSPEC_PREDICT_PREDICTOR_METER_HH
