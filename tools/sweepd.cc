/**
 * @file
 * Sweep-as-a-service daemon: a persistent sweep_loopspec. Binds a
 * Unix-domain socket (and optionally a loopback TCP port), keeps a
 * content-addressed cache of loop-event recordings across requests,
 * and serves SweepGrid requests whose JSON responses are byte-identical
 * to a direct sweep_loopspec run of the same grid (modulo the volatile
 * "wall" timing block).
 *
 *   sweepd --socket /tmp/sweepd.sock --jobs 4
 *   sweepd --socket /tmp/sweepd.sock --cache-mb 512 --trace-dir traces/
 *   sweepd --tcp-port 0 --print-port        # ephemeral loopback port
 *
 * The daemon runs until a client sends a shutdown request
 * (sweepd_client --shutdown) or it receives SIGINT/SIGTERM. It never
 * exits on a bad request: every client-supplied value is validated at
 * the boundary and answered with an error frame instead.
 */

#include <iostream>

#include "service/sweep_server.hh"
#include "util/cli.hh"
#include "util/logging.hh"

using namespace loopspec;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"socket", "tcp-port", "jobs", "cache-mb", "trace-dir",
                  "print-port"});

    SweepServerConfig cfg;
    cfg.socketPath = args.getString("socket", "");
    cfg.tcpPort = static_cast<int>(args.getInt("tcp-port", -1));
    cfg.service.jobs = static_cast<unsigned>(args.getUint("jobs", 0));
    cfg.service.cacheBytes = args.getUint("cache-mb", 1024) << 20;
    cfg.service.traceDir = args.getString("trace-dir", "");

    SweepServer server(cfg);
    std::string err = server.start();
    if (!err.empty())
        fatal("%s", err.c_str());

    if (args.getBool("print-port", false) && server.tcpPort() >= 0)
        std::cout << server.tcpPort() << std::endl;
    if (!cfg.socketPath.empty())
        std::cerr << "sweepd: listening on " << cfg.socketPath << "\n";
    if (server.tcpPort() >= 0)
        std::cerr << "sweepd: listening on 127.0.0.1:" << server.tcpPort()
                  << "\n";

    server.waitForShutdown();
    server.stop();
    std::cerr << "sweepd: shut down after "
              << server.service().requestsServed() << " requests\n";
    return 0;
}
