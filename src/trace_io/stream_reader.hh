/**
 * @file
 * Out-of-core trace replay: stream a control-trace container through
 * the replay path in fixed-size chunks, never materialising the
 * transfer vector in memory. This is what makes the 10^5-static-loop /
 * multi-billion-instruction synthetic traces replayable within a small
 * fixed memory budget (docs/TRACE_FORMAT.md).
 *
 * Bit-identity with the in-memory path comes for free: the chunked
 * cursor feeds the very same incremental decoder (trace_codec.hh) into
 * the very same ControlReplaySynthesizer that replayControlTrace uses,
 * so batch boundaries and every synthesized instruction are identical
 * by construction.
 *
 * Integrity: the transfer section's CRC is accumulated incrementally as
 * chunks are read and checked before the final onTraceEnd is
 * delivered. On any error the replay returns a diagnostic and the
 * observer's partial state must be discarded — a corrupted file can
 * never complete a replay.
 */

#ifndef LOOPSPEC_TRACE_IO_STREAM_READER_HH
#define LOOPSPEC_TRACE_IO_STREAM_READER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "trace_io/container.hh"

namespace loopspec
{

class TraceObserver;

/** Smallest per-section read granularity open() will run with: chunks
 *  below this are raised to it (a record split across a chunk boundary
 *  must fit one carry). A configured chunkBytes of 0 is rejected by
 *  open() outright rather than silently adjusted. */
constexpr size_t kMinStreamChunkBytes = 64;

/** Knobs for the streaming reader. */
struct StreamConfig
{
    size_t chunkBytes = 256 * 1024; //!< per-section read granularity
                                    //!< (>= 1; values below
                                    //!< kMinStreamChunkBytes are raised
                                    //!< to it by open())
    size_t batchInstrs = 4096;      //!< replay batch (keep the default
                                    //!< to match in-memory replay)
};

/**
 * Bounded-buffer reader over one control-trace container. open() reads
 * and validates only the header, section table and meta section;
 * transfer bytes are pulled chunk-at-a-time during replay.
 */
class TraceFileStreamer
{
  public:
    /** Open + validate header/table; nullptr with *err on failure. */
    static std::unique_ptr<TraceFileStreamer>
    open(const std::string &path, const StreamConfig &config,
         std::string *err);

    ~TraceFileStreamer();
    TraceFileStreamer(const TraceFileStreamer &) = delete;
    TraceFileStreamer &operator=(const TraceFileStreamer &) = delete;

    /** Trace length from the meta section. */
    uint64_t totalInstrs() const { return metaTotalInstrs; }

    /** Container size on disk (for buffer-vs-file budget assertions). */
    uint64_t fileBytes() const { return fileSize; }

    /**
     * Stream a ControlTrace container into @p observer, synthesizing
     * gap instructions exactly like replayControlTrace. @p max_instrs
     * truncates the window (0 = full). Returns "" on success; on error
     * the observer saw a partial, unusable replay. Each replay streams
     * the file afresh, so one streamer can run several prefix replays.
     *
     * Implemented as openControlPump() pumped to completion, so the
     * incremental path below is bit-identical by construction.
     */
    std::string replayControl(TraceObserver &observer,
                              uint64_t max_instrs = 0);

    /**
     * Incremental control replay for interleaved multi-recording
     * schedules: each pump() decodes/synthesizes roughly a chunk more
     * instructions. The final pump() also validates the section CRC and
     * item count before delivering onTraceEnd — a corrupted file can
     * never complete a replay, exactly like replayControl().
     */
    class ControlPump
    {
      public:
        ~ControlPump();

        /** Advance ~@p chunk_instrs; false when complete or failed
         *  (then error() distinguishes — "" means clean completion).
         *  Must not be called again after returning false. */
        bool pump(uint64_t chunk_instrs);

        /** Instructions synthesized so far. */
        uint64_t position() const;

        const std::string &error() const { return err; }

      private:
        friend class TraceFileStreamer;
        ControlPump() = default;

        struct Impl;
        std::unique_ptr<Impl> impl;
        std::string err;
        bool finished = false;
    };

    /** Open an incremental control replay over this container. The
     *  streamer and @p observer must outlive the pump. */
    std::unique_ptr<ControlPump> openControlPump(TraceObserver &observer,
                                                 uint64_t max_instrs);

    /** High-water mark of buffered payload bytes across all replays —
     *  the out-of-core guarantee a test can assert against. */
    size_t peakBufferBytes() const { return peakBytes; }

  private:
    TraceFileStreamer() = default;

    class Cursor;

    void notePeak(size_t bytes);

    std::string path;
    int fd = -1;
    uint64_t fileSize = 0;
    ContainerLayout layout;
    uint64_t metaTotalInstrs = 0;
    StreamConfig config;
    size_t peakBytes = 0;
};

} // namespace loopspec

#endif // LOOPSPEC_TRACE_IO_STREAM_READER_HH
