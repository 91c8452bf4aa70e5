/**
 * @file
 * Shared pieces of the pipeline benchmark (perfbench/README.md): run
 * options, the metric sheet every run prints, the in-memory span
 * recorder of the traced run, and small statistics helpers.
 *
 * The benchmark drives the library only through its public entry
 * points. The untraced run times runSpecSweep / the sweep server as a
 * user calls them; the traced run rebuilds runSpecSweep stage by stage
 * from outside (pipeline.cc) and wraps a span around every call into a
 * layer, so each layer's time is measured where its work happens.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "speculation/sweep.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** WorkloadScale factor of every program (1 in the benchmark
     *  proper; the self-tests shrink it). */
    double scale = 1.0;
    /** Scratch directory inside the checkout (exported traces, the
     *  server socket, the span file). */
    std::string workDir;
    /** Fault injection for the benchmark's own tests: "corrupt" flips
     *  one cell or one response byte; "delay:<layer>:<ms>" sleeps
     *  inside every traced span of that layer. */
    std::string inject;
    /** Provenance the wrapper knows and the binary cannot. */
    std::string gitCommit;
    std::string sourceDigest;
    unsigned jobs = 0; //!< resolved hardware thread count
};

/** Seconds on the steady clock. */
inline double
now()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(clk::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v);
/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/**
 * The tail percentile a sample supports: p99 when at least ten samples
 * lie beyond it (n >= 1000), else the highest quantile with ten samples
 * beyond it, else (n < 20) the median. Returns the value and sets
 * @p q_used to the quantile taken.
 */
double tailQuantile(const std::vector<double> &v, double *q_used);

/** One printed metric: its value and the samples it summarises. */
struct Metric
{
    double value = 0.0;
    uint64_t samples = 0;
    std::string note; //!< how it was derived, printed beside it
};

/** Metric names + units in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** The result of one run, before printing. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value, uint64_t samples = 1,
             const std::string &note = "");
};

/**
 * In-memory span recorder (choosing-metrics guide §4): name, start,
 * end, parent span and request id, kept in memory and written out when
 * the run ends. Thread-safe; spans are recorded from pool workers.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0; //!< 0 = root
        uint64_t rid = 0;    //!< request / repetition id
        double start = 0.0;
        double end = 0.0;
    };

    explicit Tracer(const std::string &inject);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    uint64_t nextId() { return ids.fetch_add(1) + 1; }
    void record(Span span);

    /** Sleep the injected delay when @p name belongs to the delayed
     *  layer (the module prefix before the first '.'). */
    void injectDelay(const std::string &name);
    /** Spans whose call got an injected delay. */
    uint64_t delayedCalls() const { return delayed.load(); }

    /** Sum of durations of spans named @p name with request id @p rid. */
    double total(const std::string &name, uint64_t rid) const;
    /** Longest span named @p name with request id @p rid. */
    double longest(const std::string &name, uint64_t rid) const;
    /** Durations of every span named @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span as JSON (times in microseconds from the first
     *  span's start). */
    bool write(const std::string &path,
               const std::string &provenance_json) const;

  private:
    mutable std::mutex mtx;
    std::vector<Span> spans; //!< guarded by mtx
    std::atomic<uint64_t> ids{0};
    std::string delayLayer;
    double delaySeconds = 0.0;
    std::atomic<uint64_t> delayed{0};
};

/** RAII span: opens at construction, records at destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const std::string &name, uint64_t parent,
              uint64_t rid);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return span.id; }

  private:
    Tracer &tracer;
    Tracer::Span span;
};

/** @p json without its "wall" block (the only host-time field of
 *  a sweep artifact). */
std::string stripWall(const std::string &json);

/**
 * Digest of a sweep JSON (wall block stripped) that does not depend on
 * the order of the workload axis: lines are sorted (trailing commas
 * dropped) and the grid's workload list is sorted. Any changed row or
 * cell value still changes it.
 */
uint64_t canonicalDigest(const std::string &json);

/** writeSweepJson into a string. */
std::string sweepJson(const loopspec::SweepResult &result, unsigned jobs);

/** Mean of SpecStats::tpc() over every cell of @p parts, workloads taken
 *  in registry order so the sum does not depend on the seeded axis
 *  order. */
double canonicalTpcMean(const std::vector<const loopspec::SweepResult *> &parts);

/** Mean |error| (%) of the suite-average STR TPC against
 *  paper::fig6AvgStr at every TU count the grid covers. */
double paperErrorPct(const std::vector<const loopspec::SweepResult *> &parts);

/** Process memory counters from /proc/self/status, in MB. */
double procStatusMb(const char *field);
/** Reset VmHWM to the current RSS (/proc/self/clear_refs), so the next
 *  read gives the high-water mark of what runs in between. */
void resetPeakRss();
/** Threads of this process (/proc/self/task entries). */
uint64_t liveThreads();
/** Bytes this process has read (/proc/self/io rchar). */
uint64_t bytesReadSoFar();

/** The Table-1 programs in the order repetition @p rep of a run with
 *  @p seed sweeps: a fixed cycle of shuffles and their reverses, entered
 *  at a point the seed picks. */
std::vector<std::string> seededProgramOrder(uint64_t seed, uint64_t rep);

// ------------------------------------------------------------ workloads

/** sweep_paper / sweep_dataspec / sweep_cls_tracedir. */
RunResult runSweepWorkload(const Options &opts, Tracer &tracer);
/** sweepd_mixed. */
RunResult runServiceWorkload(const Options &opts, Tracer &tracer);

/** Per-layer numbers of one traced decomposed sweep, by metric name. */
using LayerSample = std::map<std::string, double>;

/**
 * runSpecSweep rebuilt from its public stages with a span around every
 * call into a layer: runWorkload, interleaveReplay, profileConflicts /
 * annotateConflicts, RecordingIndex, runSweepCells. The result must be
 * byte-identical to runSpecSweep's (the traced run checks it).
 * @p rid tags every span; @p sample receives the layer numbers.
 */
loopspec::SweepResult decomposedSweep(const loopspec::SweepGrid &grid,
                                      unsigned jobs, Tracer &tracer,
                                      uint64_t rid, uint64_t parent,
                                      LayerSample *sample);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
