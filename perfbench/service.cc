/**
 * @file
 * sweepd_mixed: an in-process SweepServer on a Unix socket under a
 * closed loop of nproc clients, each opening one connection per request
 * as sweepd_client does. Most requests come from a warm hot set (cache
 * reads: only cells run); every 50th request, at a seeded offset, is a
 * cold data-speculation key from a set larger than the cache has room
 * for (materialize, insert, evict). Every response must equal, byte for
 * byte minus the wall block, a direct runSpecSweep of the same grid
 * computed during set-up.
 */

#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "harness/runner.hh"
#include "perfbench/perfbench.hh"
#include "service/protocol.hh"
#include "service/sweep_server.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

using namespace loopspec;

namespace perfbench
{

namespace
{

/** Relative to the work directory the binary runs in. */
const char kSocket[] = "sweepd.sock";
/** Cache budget: the warm hot set (372 MB at scale 1) plus 140 MB. The
 *  18 cold keys' products (memory sidecars, annotated recordings) need
 *  far more, so a cold key has been evicted before the cycle brings it
 *  round again. */
constexpr uint64_t kCacheBytes = uint64_t{512} << 20;
/** One request in kColdEvery is cold: 2%, so p99 falls on the cold
 *  path. */
constexpr uint64_t kColdEvery = 50;

struct Key
{
    bool cold = false;
    SweepRequest req;
    std::string payload;
    SweepGrid grid;
    unsigned jobsEcho = 0;
    SweepResult ref;
    std::string refJson; //!< writeSweepJson minus the wall block
};

/** The request set: per program, one hot STR grid (together the whole
 *  suite at 2/4/8/16 TUs) and one cold key, CLS 8 in the conflict data
 *  mode. No two cold keys share a product (memory sidecar, recording),
 *  so each one misses in full. */
std::vector<Key>
makeKeys(unsigned jobs)
{
    std::vector<Key> keys;
    const auto add = [&](bool cold, const std::string &program,
                         const char *cls, const char *grid) {
        Key k;
        k.cold = cold;
        k.req.benchmarks = program;
        k.req.grid = grid;
        k.req.cls = cls;
        k.req.jobs = std::to_string(jobs);
        keys.push_back(std::move(k));
    };
    for (const std::string &name : workloadNames())
        add(false, name, "16", "policies=str;tus=2,4,8,16");
    for (const std::string &name : workloadNames())
        add(true, name, "8", "policies=str;tus=4;dataspec=mem");
    return keys;
}

/** One client-observed request. */
struct Sample
{
    double latency = 0.0;
    double served = 0.0; //!< the response's wall.swept_seconds
    bool ok = false;
};

/**
 * One request over a fresh connection, as sweepd_client sends it. With
 * a tracer, spans cover connect, send, wait for the first byte and
 * receive. Returns the response payload ("" on transport error).
 */
std::string
roundTrip(const std::string &payload, Tracer *tracer, uint64_t rid,
          MsgType *type)
{
    std::unique_ptr<SpanScope> root, step;
    const auto phase = [&](const char *name) {
        step.reset();
        if (tracer)
            step = std::make_unique<SpanScope>(*tracer, name, root->id(),
                                               rid);
    };
    if (tracer)
        root = std::make_unique<SpanScope>(*tracer, "service.request", 0,
                                           rid);
    std::string err;
    phase("service.connect");
    const int fd = connectUnixSocket(kSocket, &err);
    if (fd < 0)
        return "";
    phase("service.send");
    err = writeFrame(fd, MsgType::SweepReq, payload);
    std::string response;
    if (err.empty()) {
        phase("service.ttfb");
        pollfd p{fd, POLLIN, 0};
        while (::poll(&p, 1, -1) < 0 && errno == EINTR) {
        }
        phase("service.recv");
        bool eof = false;
        err = readFrame(fd, type, &response, kMaxResponseBytes, &eof);
        if (eof)
            err = "connection closed";
    }
    step.reset();
    ::close(fd);
    return err.empty() ? response : "";
}

double
servedSeconds(const std::string &json)
{
    const size_t at = json.find("\"swept_seconds\": ");
    return at == std::string::npos ? 0.0 : std::atof(json.c_str() + at + 17);
}

/**
 * The closed loop: opts.jobs clients until @p seconds pass. Returns
 * every request's sample; counts attempts and failures into @p res.
 */
std::vector<Sample>
closedLoop(const Options &opts, const std::vector<Key> &keys,
           double seconds, uint64_t phase, Tracer *tracer, RunResult *res,
           double *wall)
{
    std::vector<size_t> hot, cold;
    for (size_t i = 0; i < keys.size(); ++i)
        (keys[i].cold ? cold : hot).push_back(i);

    std::vector<std::vector<Sample>> per_client(opts.jobs);
    std::vector<uint64_t> failed(opts.jobs, 0);
    std::atomic<uint64_t> next_rid{phase << 32};
    // Cold keys go round in a cycle: a key returns only after every
    // other cold key has pushed its products out of the cache, and every
    // run meets the same mix of cold programs.
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> cold_turn{opts.seed};
    const double t0 = now();
    const double deadline = t0 + seconds;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < opts.jobs; ++c) {
        clients.emplace_back([&, c] {
            std::mt19937_64 rng(opts.seed * 1000003u + phase * 101u + c);
            while (now() < deadline) {
                const bool is_cold =
                    requests++ % kColdEvery == opts.seed % kColdEvery;
                const Key &key =
                    keys[is_cold ? cold[cold_turn++ % cold.size()]
                                 : hot[rng() % hot.size()]];
                const double start = now();
                MsgType type = MsgType::ErrResp;
                std::string resp =
                    roundTrip(key.payload, tracer, ++next_rid, &type);
                Sample s;
                s.latency = now() - start;
                if (opts.inject == "corrupt" && c == 0 &&
                    per_client[c].empty() && !resp.empty())
                    resp[resp.size() / 2] ^= 1;
                s.ok = type == MsgType::JsonResp &&
                       stripWall(resp) == key.refJson;
                s.served = servedSeconds(resp);
                failed[c] += !s.ok;
                per_client[c].push_back(s);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    *wall = now() - t0;

    std::vector<Sample> all;
    for (unsigned c = 0; c < opts.jobs; ++c) {
        all.insert(all.end(), per_client[c].begin(), per_client[c].end());
        res->failed += failed[c];
    }
    res->attempted += all.size();
    return all;
}

std::vector<double>
latencies(const std::vector<Sample> &samples)
{
    std::vector<double> out;
    for (const Sample &s : samples)
        out.push_back(s.latency);
    return out;
}

} // namespace

RunResult
runServiceWorkload(const Options &opts, Tracer &tracer)
{
    RunResult res;
    std::vector<Key> keys = makeKeys(opts.jobs);
    for (Key &k : keys) {
        if (opts.scale != 1.0)
            k.req.scale = std::to_string(opts.scale);
        k.payload = encodeSweepRequest(k.req);
    }

    SweepServerConfig cfg;
    cfg.socketPath = kSocket;
    cfg.service.jobs = opts.jobs;
    cfg.service.cacheBytes = kCacheBytes;

    // Set-up: start the server and warm the hot set through the socket,
    // three times; the last server stays up for the run.
    std::unique_ptr<SweepServer> server;
    std::vector<double> setups;
    std::vector<std::pair<const Key *, std::string>> warm_responses;
    for (int i = 0; i < 3; ++i) {
        server.reset();
        warm_responses.clear();
        const double t0 = now();
        server = std::make_unique<SweepServer>(cfg);
        const std::string err = server->start();
        if (!err.empty())
            fatal("sweep server: %s", err.c_str());
        // One client per hot key, all at once, so the server's pool
        // materializes the suite in parallel.
        std::vector<std::thread> clients;
        for (const Key &k : keys) {
            if (!k.cold)
                warm_responses.emplace_back(&k, "");
        }
        for (auto &[key, resp] : warm_responses) {
            clients.emplace_back([key = key, &resp = resp] {
                MsgType type = MsgType::ErrResp;
                resp = roundTrip(key->payload, nullptr, 0, &type);
            });
        }
        for (std::thread &t : clients)
            t.join();
        setups.push_back(now() - t0);
    }

    res.set("setup_s", median(setups), setups.size());

    // References: a direct sweep of every key's grid, as the server
    // parses it.
    std::vector<const SweepResult *> hot_refs;
    for (Key &k : keys) {
        const std::string err =
            server->service().requestToGrid(k.req, &k.grid, &k.jobsEcho);
        if (!err.empty())
            fatal("request %s: %s", k.req.benchmarks.c_str(), err.c_str());
        if (!k.cold)
            hot_refs.push_back(&k.ref);
    }
    parallelFor(opts.jobs, keys.size(), [&](uint64_t i) {
        Key &k = keys[i];
        k.ref = runSpecSweep(k.grid, 1);
        k.refJson = stripWall(sweepJson(k.ref, k.jobsEcho));
    });
    for (const auto &[key, resp] : warm_responses) {
        ++res.attempted;
        res.failed += stripWall(resp) != key->refJson;
    }

    if (!opts.trace) {
        double wall = 0.0;
        resetPeakRss();
        const std::vector<Sample> samples =
            closedLoop(opts, keys, opts.seconds, 1, nullptr, &res, &wall);
        res.set("peak_rss_mb", procStatusMb("VmHWM"), 1,
                "high-water RSS of the closed loop");
        std::vector<double> served;
        uint64_t completed = 0;
        for (const Sample &s : samples) {
            served.push_back(s.served);
            completed += s.ok;
        }
        const std::vector<double> lat = latencies(samples);
        double q = 0.0;
        const double tail = tailQuantile(lat, &q);
        char note[64];
        std::snprintf(note, sizeof(note), "p%.3g of %zu requests", q * 100,
                      lat.size());
        res.set("sweep_s", median(served), served.size(),
                "server-side sweep time per request");
        res.set("req_p50_ms", median(lat) * 1e3, lat.size());
        res.set("req_p99_ms", tail * 1e3, lat.size(), note);
        res.set("req_per_s", completed / wall, completed,
                std::to_string(opts.jobs) + " closed-loop clients");
        res.set("tpc_mean", canonicalTpcMean(hot_refs));
        res.set("paper_err_pct", paperErrorPct(hot_refs));
        server->stop();
        return res;
    }

    // Traced run. The hot references again through the traced
    // decomposition: the cell layer the warm read path runs.
    LayerSample v; // summed over the hot set
    for (size_t i = 0; i < keys.size(); ++i) {
        const Key &k = keys[i];
        if (k.cold)
            continue;
        LayerSample s;
        const uint64_t rid = (uint64_t{3} << 32) + i;
        SweepResult r = decomposedSweep(k.grid, opts.jobs, tracer, rid, 0, &s);
        ++res.attempted;
        res.failed += stripWall(sweepJson(r, k.jobsEcho)) != k.refJson;
        for (const auto &[name, value] : s)
            v[name] += value;
    }
    const char *note = "hot set, direct";
    for (const char *name :
         {"speculation.index_s", "speculation.cells_s", "speculation.cells",
          "tracegen.pass_s", "tracegen.instrs"})
        res.set(name, v[name], hot_refs.size(), note);
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    res.set("tracegen.minstr_per_s",
            ratio(v["tracegen.instrs"], v["tracegen.pass_s"]) / 1e6,
            hot_refs.size(), note);
    res.set("speculation.ns_per_event",
            ratio(v["speculation.cells_s"], v["speculation.events"]) * 1e9,
            hot_refs.size(), note);
    res.set("speculation.threads_verified_frac",
            ratio(v["speculation.threads_verified"],
                  v["speculation.threads_verified"] +
                      v["speculation.threads_squashed"]),
            hot_refs.size(), note);

    // Untraced, then traced halves: the difference of their medians is
    // the tracing overhead.
    double wall = 0.0;
    const std::vector<Sample> plain =
        closedLoop(opts, keys, opts.seconds / 2, 1, nullptr, &res, &wall);
    const CacheStats before = server->service().cacheStats();
    const std::vector<Sample> traced =
        closedLoop(opts, keys, opts.seconds / 2, 2, &tracer, &res, &wall);
    const CacheStats after = server->service().cacheStats();

    // SweepService::run called directly on the hot set: no socket, no
    // connection thread.
    std::vector<double> run_ms;
    for (int round = 0; round < 3; ++round) {
        for (const Key &k : keys) {
            if (k.cold)
                continue;
            SweepResult r;
            const double t0 = now();
            const std::string err = server->service().run(k.grid, &r);
            run_ms.push_back((now() - t0) * 1e3);
            ++res.attempted;
            res.failed += !err.empty() ||
                          stripWall(sweepJson(r, k.jobsEcho)) != k.refJson;
        }
    }

    const auto p50_ms = [](std::vector<double> d) { return median(d) * 1e3; };
    res.set("service.connect_ms_p50", p50_ms(tracer.durations("service.connect")),
            traced.size());
    res.set("service.ttfb_ms_p50", p50_ms(tracer.durations("service.ttfb")),
            traced.size());
    res.set("service.run_ms_p50", median(run_ms), run_ms.size());
    const uint64_t hits = after.hits - before.hits;
    const uint64_t misses = after.misses - before.misses;
    res.set("service.hit_ratio",
            hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
            hits + misses);
    res.set("service.evictions",
            static_cast<double>(after.evictions - before.evictions));
    res.set("service.cache_mb", after.bytes / 1048576.0);
    res.set("perfbench.trace_overhead_req_p50_ms",
            (median(latencies(traced)) - median(latencies(plain))) * 1e3,
            traced.size(), "traced minus untraced req_p50_ms");
    // Thread and memory counters are read after the run, with the
    // server still up: unreaped connection threads show here.
    res.set("service.threads_live", static_cast<double>(liveThreads()));
    res.set("service.vmsize_mb", procStatusMb("VmSize"));
    server->stop();
    return res;
}

} // namespace perfbench
