#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include <dirent.h>

#include "bench/paper_ref.hh"
#include "perfbench/perfbench.hh"
#include "workloads/workload.hh"

using namespace loopspec;

namespace perfbench
{

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
tailQuantile(const std::vector<double> &v, double *q_used)
{
    const double n = static_cast<double>(v.size());
    double q = 0.5;
    if (n >= 1000.0)
        q = 0.99;
    else if (n >= 20.0)
        q = 1.0 - 10.0 / n;
    *q_used = q;
    return quantile(v, q);
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"setup_s", "s"},          {"sweep_s", "s"},
        {"req_p50_ms", "ms"},      {"req_p99_ms", "ms"},
        {"req_per_s", "req/s"},    {"peak_rss_mb", "MB"},
        {"tpc_mean", "TPC"},       {"paper_err_pct", "%"},
    };
    return list;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"tracegen.pass_s", "s"},
        {"tracegen.instrs", "count"},
        {"tracegen.minstr_per_s", "Minstr/s"},
        {"harness.stage1_straggler_ratio", "ratio"},
        {"harness.json_s", "s"},
        {"dataspec.pass_vs_control", "ratio"},
        {"dataspec.mem_accesses", "count"},
        {"dataspec.conflict_profile_s", "s"},
        {"dataspec.annotate_s", "s"},
        {"dataspec.conflict_squashes", "count"},
        {"dataspec.data_misses", "count"},
        {"speculation.threads_verified_frac", "ratio"},
        {"speculation.index_s", "s"},
        {"speculation.cells_s", "s"},
        {"speculation.cells", "count"},
        {"speculation.ns_per_event", "ns"},
        {"trace_io.replay_s", "s"},
        {"trace_io.replay_minstr_per_s", "Minstr/s"},
        {"trace_io.bytes_read", "bytes"},
        {"loop.recordings", "count"},
        {"service.connect_ms_p50", "ms"},
        {"service.ttfb_ms_p50", "ms"},
        {"service.run_ms_p50", "ms"},
        {"service.hit_ratio", "ratio"},
        {"service.evictions", "count"},
        {"service.cache_mb", "MB"},
        {"service.threads_live", "count"},
        {"service.vmsize_mb", "MB"},
        {"perfbench.traced_sweep_s", "s"},
        {"perfbench.trace_overhead_s", "s"},
        {"perfbench.trace_overhead_req_p50_ms", "ms"},
        {"failed_frac", "ratio"},
    };
    return list;
}

void
RunResult::set(const std::string &name, double value, uint64_t samples,
               const std::string &note)
{
    Metric &m = metrics[name];
    m.value = value;
    m.samples = samples;
    m.note = note;
}

Tracer::Tracer(const std::string &inject)
{
    // "delay:<layer>:<ms>"
    if (inject.rfind("delay:", 0) == 0) {
        const size_t colon = inject.find(':', 6);
        delayLayer = inject.substr(6, colon - 6);
        if (colon != std::string::npos)
            delaySeconds = std::atof(inject.c_str() + colon + 1) / 1e3;
    }
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mtx);
    spans.push_back(std::move(span));
}

void
Tracer::injectDelay(const std::string &name)
{
    if (delayLayer.empty() || name.compare(0, delayLayer.size(),
                                           delayLayer) != 0 ||
        name.size() <= delayLayer.size() ||
        name[delayLayer.size()] != '.') {
        return;
    }
    delayed.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::duration<double>(delaySeconds));
}

double
Tracer::total(const std::string &name, uint64_t rid) const
{
    std::lock_guard<std::mutex> lock(mtx);
    double sum = 0.0;
    for (const Span &s : spans) {
        if (s.rid == rid && s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

double
Tracer::longest(const std::string &name, uint64_t rid) const
{
    std::lock_guard<std::mutex> lock(mtx);
    double best = 0.0;
    for (const Span &s : spans) {
        if (s.rid == rid && s.name == name)
            best = std::max(best, s.end - s.start);
    }
    return best;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<double> out;
    for (const Span &s : spans) {
        if (s.name == name)
            out.push_back(s.end - s.start);
    }
    return out;
}

bool
Tracer::write(const std::string &path,
              const std::string &provenance_json) const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::ofstream os(path);
    if (!os)
        return false;
    double t0 = spans.empty() ? 0.0 : spans[0].start;
    for (const Span &s : spans)
        t0 = std::min(t0, s.start);
    os << "{\"provenance\": " << provenance_json << ",\n\"spans\": [\n";
    char buf[96];
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf), "%.3f, \"end_us\": %.3f",
                      (s.start - t0) * 1e6, (s.end - t0) * 1e6);
        os << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"rid\": " << s.rid
           << ", \"start_us\": " << buf << "}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

SpanScope::SpanScope(Tracer &t, const std::string &name, uint64_t parent,
                     uint64_t rid)
    : tracer(t)
{
    span.name = name;
    span.id = tracer.nextId();
    span.parent = parent;
    span.rid = rid;
    span.start = now();
    tracer.injectDelay(name);
}

SpanScope::~SpanScope()
{
    span.end = now();
    tracer.record(std::move(span));
}

std::string
stripWall(const std::string &json)
{
    const size_t at = json.find("\n  \"wall\": ");
    return at == std::string::npos ? json : json.substr(0, at);
}

uint64_t
canonicalDigest(const std::string &json)
{
    std::vector<std::string> lines;
    std::istringstream is(json);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        const size_t open = line.find("\"workloads\": [");
        if (open != std::string::npos) {
            const size_t from = line.find('[', open) + 1;
            const size_t to = line.rfind(']');
            std::vector<std::string> names;
            std::istringstream items(line.substr(from, to - from));
            std::string item;
            while (std::getline(items, item, ','))
                names.push_back(item.substr(item.find('"')));
            std::sort(names.begin(), names.end());
            line = line.substr(0, from);
            for (const std::string &n : names)
                line += n + ",";
        }
        lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string &l : lines) {
        for (unsigned char c : l + "\n") {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

std::string
sweepJson(const SweepResult &result, unsigned jobs)
{
    std::ostringstream os;
    writeSweepJson(os, result, jobs);
    return os.str();
}

namespace
{

/** Grid index of every registry program the grid holds, registry
 *  order. */
std::vector<size_t>
registryOrder(const SweepGrid &grid)
{
    std::vector<size_t> order;
    for (const std::string &name : workloadNames()) {
        auto it = std::find(grid.workloads.begin(), grid.workloads.end(),
                            name);
        if (it != grid.workloads.end())
            order.push_back(static_cast<size_t>(it - grid.workloads.begin()));
    }
    return order;
}

} // namespace

double
canonicalTpcMean(const std::vector<const SweepResult *> &parts)
{
    double sum = 0.0;
    uint64_t n = 0;
    for (const SweepResult *r : parts) {
        const SweepGrid &g = r->grid;
        const size_t per_workload = g.clsSizes.size() *
                                    g.policies.size() *
                                    g.tuCounts.size() *
                                    g.letEntries.size();
        // Cells are nested workload-major, so a workload's cells are
        // one contiguous block.
        for (size_t w : registryOrder(g)) {
            for (size_t i = 0; i < per_workload; ++i) {
                sum += r->cells[w * per_workload + i].stats.tpc();
                ++n;
            }
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
paperErrorPct(const std::vector<const SweepResult *> &parts)
{
    double err_sum = 0.0;
    unsigned points = 0;
    for (const auto &[tus, paper_tpc] : paper::fig6AvgStr) {
        // Program -> STR TPC at this TU count, from whichever part
        // holds it.
        std::map<std::string, double> tpc;
        for (const SweepResult *r : parts) {
            const SweepGrid &g = r->grid;
            for (size_t p = 0; p < g.policies.size(); ++p) {
                const GridPolicy &gp = g.policies[p];
                if (gp.policy != SpecPolicy::Str ||
                    gp.dataMode != DataMode::None)
                    continue;
                for (size_t t = 0; t < g.tuCounts.size(); ++t) {
                    if (g.tuCounts[t] != tus)
                        continue;
                    for (size_t w = 0; w < g.workloads.size(); ++w)
                        tpc[g.workloads[w]] = r->cell(w, 0, p, t).tpc();
                }
            }
        }
        double sum = 0.0;
        bool complete = true;
        for (const std::string &name : workloadNames()) {
            auto it = tpc.find(name);
            if (it == tpc.end()) {
                complete = false;
                break;
            }
            sum += it->second;
        }
        if (!complete)
            continue;
        const double mean = sum / static_cast<double>(tpc.size());
        err_sum += std::fabs(mean - paper_tpc) / paper_tpc * 100.0;
        ++points;
    }
    return points ? err_sum / points : std::nan("");
}

double
procStatusMb(const char *field)
{
    std::ifstream is("/proc/self/status");
    std::string line;
    const size_t len = std::strlen(field);
    while (std::getline(is, line)) {
        if (line.compare(0, len, field) == 0 && line[len] == ':')
            return std::atof(line.c_str() + len + 1) / 1024.0;
    }
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream os("/proc/self/clear_refs");
    os << "5";
}

uint64_t
liveThreads()
{
    uint64_t n = 0;
    if (DIR *d = opendir("/proc/self/task")) {
        while (dirent *e = readdir(d))
            n += e->d_name[0] != '.';
        closedir(d);
    }
    return n;
}

uint64_t
bytesReadSoFar()
{
    std::ifstream is("/proc/self/io");
    std::string key;
    uint64_t value = 0;
    while (is >> key >> value) {
        if (key == "rchar:")
            return value;
    }
    return 0;
}

std::vector<std::string>
seededProgramOrder(uint64_t seed, uint64_t rep)
{
    // A fixed cycle of kOrders orders: kOrders/2 shuffles, each followed
    // by its reverse, so a program that went last (the pool's straggler)
    // goes first next. The seed sets where a run enters the cycle. A run
    // of kOrders or more sweeps meets every order, so load balance does
    // not make one seed read slower than another.
    constexpr uint64_t kOrders = 8;
    const uint64_t idx = (seed + rep) % kOrders;
    std::vector<std::string> names = workloadNames();
    std::mt19937_64 rng(idx / 2 + 1);
    for (size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[rng() % i]);
    if (idx % 2)
        std::reverse(names.begin(), names.end());
    return names;
}

} // namespace perfbench
