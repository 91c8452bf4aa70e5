/**
 * @file
 * Socket front-end for the sweep service: a Unix-domain listener (plus
 * an optional loopback TCP listener) speaking the service/protocol.hh
 * frame format, one thread per connection over a single shared
 * SweepService — so every connection hits the same RecordingCache and
 * the same persistent thread pool. A connection's thread is joined by
 * the accept loop once the connection ends, so threads never pile up
 * over uptime.
 *
 * The server never fatal()s on anything a client sent: malformed
 * frames, oversized lengths, unknown grids and bad parameter values all
 * come back as ErrResp on that connection only. Startup problems (bad
 * socket path, bind failure) are error strings from start(), since they
 * are operator errors, not remote input.
 */

#ifndef LOOPSPEC_SERVICE_SWEEP_SERVER_HH
#define LOOPSPEC_SERVICE_SWEEP_SERVER_HH

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/sweep_service.hh"

namespace loopspec
{

struct SweepServerConfig
{
    /** Unix-domain socket path; empty = no Unix listener. */
    std::string socketPath;
    /** TCP port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral
     *  (read the bound port back via tcpPort()). */
    int tcpPort = -1;
    SweepServiceConfig service;
};

class SweepServer
{
  public:
    explicit SweepServer(const SweepServerConfig &config);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** Bind the listeners and spawn the accept threads. "" on success,
     *  else the reason the server cannot run. */
    std::string start();

    /** Block until a client sends ShutdownReq or stop() is called. */
    void waitForShutdown();

    /** Close listeners and open connections, join every thread.
     *  Idempotent; also called by the destructor. */
    void stop();

    /** Bound TCP port (after start(); -1 when TCP is off). */
    int tcpPort() const { return boundTcpPort; }

    SweepService &service() { return svc; }

  private:
    void acceptLoop(int listen_fd);
    void serveConnection(int fd);
    std::string handleSweep(const std::string &payload,
                            std::string *json);
    std::string statsJson() const;

    SweepServerConfig cfg;
    SweepService svc;
    int unixFd = -1;
    int tcpFd = -1;
    int boundTcpPort = -1;

    std::mutex mtx;
    std::condition_variable shutdownCv;
    bool shuttingDown = false;
    std::vector<std::thread> acceptThreads;
    std::vector<std::thread> connThreads; //!< guarded by mtx
    std::vector<int> connFds;             //!< guarded by mtx
    /** Connections whose thread has finished serving, not yet joined
     *  (guarded by mtx); acceptLoop reaps them. */
    std::vector<std::thread::id> finishedConns;
};

} // namespace loopspec

#endif // LOOPSPEC_SERVICE_SWEEP_SERVER_HH
