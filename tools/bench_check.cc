/**
 * @file
 * Performance-regression gate over BENCH_throughput.json:
 *
 *   bench_check --baseline FILE --current FILE [--threshold F]
 *               [--noise-floor F] [--absolute] [--self-check]
 *
 * Default mode compares the *speedup ratios* (batched_soa_vs_scalar,
 * interleaved_vs_sequential): each ratio in the current run must not
 * fall more than --threshold (default 0.05 = 5%) below the committed
 * baseline. Ratios divide out the machine, so a baseline recorded on
 * one box gates runs on another — the committed BENCH_throughput.json
 * is the fleet-wide reference.
 *
 * --absolute additionally gates the per-path Minstr/s rows at the same
 * relative threshold. Only meaningful when baseline and current come
 * from the same machine (e.g. comparing two local runs around a
 * change); CI uses ratio mode.
 *
 * --noise-floor F (default 0.10) skips ratio comparisons whose
 * baseline is below 1 + F: a path pair running within noise of parity
 * has no stable ratio to regress from.
 *
 * --self-check scales every current ratio (and Minstr/s) down by 2x
 * the threshold after loading, so a healthy gate MUST exit 1 — the CI
 * step asserts the failure path works before trusting the pass path.
 *
 * Exit 0: no regression. Exit 1: regression (or self-check). Exit 2:
 * malformed input. A genuine, accepted perf change is shipped by
 * regenerating the baseline (docs/RESULTS.md) in the same PR; the CI
 * override label is documented in TESTING.md.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace
{

/**
 * Minimal parser for the flat two-level JSON bench_throughput emits:
 * collects every "key": number pair, qualifying nested keys with their
 * object path ("paths.scalar.instrs_per_sec", "speedup.batched_soa_vs_scalar").
 * Anything structurally unexpected is a hard error — the input is
 * machine-written.
 */
class FlatJson
{
  public:
    static bool
    parse(const std::string &text, std::map<std::string, double> *out,
          std::string *err)
    {
        FlatJson p(text);
        if (!p.object("") || p.skipWs() != std::string::npos) {
            *err = p.error.empty() ? "trailing garbage" : p.error;
            return false;
        }
        *out = std::move(p.values);
        return true;
    }

  private:
    explicit FlatJson(const std::string &text) : s(text) {}

    size_t
    skipWs()
    {
        while (pos < s.size() && std::isspace(s[pos]))
            ++pos;
        return pos < s.size() ? pos : std::string::npos;
    }

    bool
    expect(char c)
    {
        if (skipWs() == std::string::npos || s[pos] != c) {
            error = std::string("expected '") + c + "'";
            return false;
        }
        ++pos;
        return true;
    }

    bool
    string(std::string *out)
    {
        if (!expect('"'))
            return false;
        out->clear();
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                error = "escapes unsupported";
                return false;
            }
            out->push_back(s[pos++]);
        }
        return expect('"');
    }

    bool
    object(const std::string &prefix)
    {
        if (!expect('{'))
            return false;
        if (skipWs() != std::string::npos && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            std::string key;
            if (!string(&key) || !expect(':'))
                return false;
            std::string path =
                prefix.empty() ? key : prefix + "." + key;
            if (skipWs() == std::string::npos) {
                error = "truncated";
                return false;
            }
            if (s[pos] == '{') {
                if (!object(path))
                    return false;
            } else if (s[pos] == '"') {
                std::string ignored;
                if (!string(&ignored))
                    return false;
            } else {
                char *endp = nullptr;
                double v = std::strtod(s.c_str() + pos, &endp);
                if (endp == s.c_str() + pos) {
                    error = "expected number at key " + path;
                    return false;
                }
                values[path] = v;
                pos = static_cast<size_t>(endp - s.c_str());
            }
            if (skipWs() == std::string::npos) {
                error = "truncated";
                return false;
            }
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            return expect('}');
        }
    }

    const std::string &s;
    size_t pos = 0;
    std::map<std::string, double> values;
    std::string error;
};

bool
load(const std::string &path, std::map<std::string, double> *out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_check: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!FlatJson::parse(ss.str(), out, &err)) {
        std::fprintf(stderr, "bench_check: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    return true;
}

struct Check
{
    std::string name;
    double baseline;
    double current;
};

/** Keys under the given prefix present in both files. */
std::vector<Check>
matchedKeys(const std::map<std::string, double> &base,
            const std::map<std::string, double> &cur,
            const std::string &prefix, const std::string &suffix)
{
    std::vector<Check> out;
    for (const auto &kv : base) {
        if (kv.first.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (!suffix.empty()) {
            if (kv.first.size() < suffix.size() ||
                kv.first.compare(kv.first.size() - suffix.size(),
                                 suffix.size(), suffix) != 0)
                continue;
        }
        auto it = cur.find(kv.first);
        if (it != cur.end())
            out.push_back({kv.first, kv.second, it->second});
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path, current_path;
    double threshold = 0.05;
    double noise_floor = 0.10;
    bool absolute = false;
    bool self_check = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bench_check: %s needs a value\n",
                             a.c_str());
                exit(2);
            }
            return argv[++i];
        };
        if (a == "--baseline") {
            baseline_path = value();
        } else if (a == "--current") {
            current_path = value();
        } else if (a == "--threshold") {
            threshold = std::atof(value());
        } else if (a == "--noise-floor") {
            noise_floor = std::atof(value());
        } else if (a == "--absolute") {
            absolute = true;
        } else if (a == "--self-check") {
            self_check = true;
        } else {
            std::fprintf(stderr, "bench_check: unknown flag %s\n",
                         a.c_str());
            return 2;
        }
    }
    if (baseline_path.empty() || current_path.empty()) {
        std::fprintf(stderr, "usage: bench_check --baseline FILE "
                             "--current FILE [--threshold F] "
                             "[--noise-floor F] [--absolute] "
                             "[--self-check]\n");
        return 2;
    }

    std::map<std::string, double> base, cur;
    if (!load(baseline_path, &base) || !load(current_path, &cur))
        return 2;

    if (self_check) {
        // Inject a regression twice the threshold: the gate below MUST
        // catch it, proving the failure path is live.
        for (auto &kv : cur)
            kv.second *= 1.0 - 2.0 * threshold;
        std::printf("bench_check: self-check — injected %.0f%% "
                    "slowdown, expecting failure\n",
                    200.0 * threshold);
    }

    std::vector<Check> checks =
        matchedKeys(base, cur, "speedup.", "");
    if (checks.empty()) {
        std::fprintf(stderr, "bench_check: no speedup keys shared "
                             "between baseline and current\n");
        return 2;
    }
    size_t skipped = 0;
    if (absolute) {
        std::vector<Check> abs_checks =
            matchedKeys(base, cur, "paths.", ".instrs_per_sec");
        checks.insert(checks.end(), abs_checks.begin(),
                      abs_checks.end());
    }

    int failures = 0;
    for (const Check &c : checks) {
        bool ratio = c.name.compare(0, 8, "speedup.") == 0;
        if (ratio && c.baseline < 1.0 + noise_floor) {
            std::printf("  skip  %-40s baseline %.3f within noise "
                        "floor of parity\n",
                        c.name.c_str(), c.baseline);
            ++skipped;
            continue;
        }
        if (c.baseline <= 0.0) {
            ++skipped;
            continue;
        }
        double rel = (c.baseline - c.current) / c.baseline;
        bool fail = rel > threshold;
        std::printf("  %s  %-40s baseline %10.3f current %10.3f "
                    "(%+.1f%%)\n",
                    fail ? "FAIL" : " ok ", c.name.c_str(), c.baseline,
                    c.current, -100.0 * rel);
        failures += fail;
    }
    if (failures) {
        std::printf("bench_check: %d regression(s) beyond %.0f%% — see "
                    "docs/RESULTS.md for the baseline-refresh "
                    "procedure, TESTING.md for the override label\n",
                    failures, 100.0 * threshold);
        return 1;
    }
    std::printf("bench_check: %zu comparison(s) ok, %zu skipped\n",
                checks.size() - skipped, skipped);
    return 0;
}
