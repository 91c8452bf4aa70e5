/**
 * @file
 * The sweep service: the one sweep pipeline of speculation/sweep.hh
 * (materializeSweep + runSweepCells) driven with a persistent,
 * content-addressed RecordingCache and thread pool, so a long-running
 * server amortises functional passes across requests
 * (docs/DESIGN.md §12). runSpecSweep runs the very same code with a
 * zero-budget cache, so served results equal tools/sweep_loopspec's by
 * construction, cold or warm.
 *
 * What the cache keeps is exactly what requests read back: (workload,
 * CLS) recordings with their indexes, and — for grids needing operand
 * values (dataspec / +live / +mem / +all policies) — the operand-derived
 * products: annotated recordings, the memory-access sidecar and the §4
 * report, keyed apart from their plain variants. Control traces are
 * transient: a pass records one only when this request derives further
 * CLS sizes or the ideal prefix from it, and --trace-dir containers are
 * streamed, never loaded whole. A fully warm request executes nothing.
 *
 * Everything here returns error strings instead of fatal()ing: a bad
 * remote grid must produce an ErrResp, never kill the daemon.
 */

#ifndef LOOPSPEC_SERVICE_SWEEP_SERVICE_HH
#define LOOPSPEC_SERVICE_SWEEP_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "service/recording_cache.hh"
#include "speculation/sweep.hh"
#include "util/thread_pool.hh"

namespace loopspec
{

struct SweepServiceConfig
{
    /** Pool width for materialize + cell fan-out (0 = hardware). */
    unsigned jobs = 0;
    /** RecordingCache budget in bytes. */
    uint64_t cacheBytes = uint64_t{1} << 30;
    /** Non-empty = serve --trace-dir grids from this directory (scanned
     *  once at construction); requests must name this exact directory
     *  or none. */
    std::string traceDir;
};

class SweepService
{
  public:
    explicit SweepService(const SweepServiceConfig &config);

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /**
     * Translate a wire request into a SweepGrid + validate it against
     * this service (known workloads, CLS bounds, trace-dir policy).
     * Returns "" with *grid and *jobs_echo set, else the diagnostic for
     * the ErrResp. Uses the same parsers as parseRunOptions, so raw
     * flag strings mean exactly what they mean on the command line.
     */
    std::string requestToGrid(const SweepRequest &req, SweepGrid *grid,
                              unsigned *jobs_echo) const;

    /** Validate an already-built grid (requestToGrid calls this):
     *  validateSweepGrid plus the service-only rules — no check-replay,
     *  only the served trace directory, only known workloads. */
    std::string validateGrid(const SweepGrid &grid) const;

    /** Execute a validated grid. "" on success with *out filled. The
     *  result's rows/cells/counters are independent of cache state —
     *  warm and cold responses are byte-identical. */
    std::string run(const SweepGrid &grid, SweepResult *out);

    CacheStats cacheStats() const { return cache.stats(); }
    const SweepServiceConfig &config() const { return cfg; }
    uint64_t requestsServed() const { return served; }

  private:
    SweepServiceConfig cfg;
    RecordingCache cache;
    ThreadPool pool;
    std::vector<std::string> traceWorkloads; //!< scan of cfg.traceDir
    std::atomic<uint64_t> served{0};
};

} // namespace loopspec

#endif // LOOPSPEC_SERVICE_SWEEP_SERVICE_HH
