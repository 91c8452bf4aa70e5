#include "service/sweep_server.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/logging.hh"

namespace loopspec
{

namespace
{

void
closeListener(int &fd)
{
    if (fd >= 0) {
        // close() alone does not wake a thread blocked in accept();
        // shutdown() forces it out with an error first.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
        fd = -1;
    }
}

} // namespace

SweepServer::SweepServer(const SweepServerConfig &config)
    : cfg(config), svc(config.service)
{
}

SweepServer::~SweepServer()
{
    stop();
}

std::string
SweepServer::start()
{
    if (cfg.socketPath.empty() && cfg.tcpPort < 0)
        return "server needs a socket path or a TCP port";

    if (!cfg.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (cfg.socketPath.size() >= sizeof(addr.sun_path))
            return strprintf("socket path '%s' exceeds %zu bytes",
                             cfg.socketPath.c_str(),
                             sizeof(addr.sun_path) - 1);
        std::memcpy(addr.sun_path, cfg.socketPath.c_str(),
                    cfg.socketPath.size() + 1);

        unixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unixFd < 0)
            return strprintf("socket: %s", strerror(errno));
        // A stale path from a crashed server would make bind fail; a
        // *live* server's socket also gets unlinked, but the operator
        // asked for this path and the old instance keeps its fd.
        ::unlink(cfg.socketPath.c_str());
        if (::bind(unixFd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            return strprintf("bind %s: %s", cfg.socketPath.c_str(),
                             strerror(errno));
        if (::listen(unixFd, 64) < 0)
            return strprintf("listen %s: %s", cfg.socketPath.c_str(),
                             strerror(errno));
    }

    if (cfg.tcpPort >= 0) {
        tcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd < 0)
            return strprintf("socket: %s", strerror(errno));
        int one = 1;
        ::setsockopt(tcpFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        // Loopback only: the protocol has no authentication, so the
        // TCP listener must never face a network.
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<uint16_t>(cfg.tcpPort));
        if (::bind(tcpFd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            return strprintf("bind 127.0.0.1:%d: %s", cfg.tcpPort,
                             strerror(errno));
        if (::listen(tcpFd, 64) < 0)
            return strprintf("listen 127.0.0.1:%d: %s", cfg.tcpPort,
                             strerror(errno));
        sockaddr_in bound{};
        socklen_t blen = sizeof(bound);
        if (::getsockname(tcpFd, reinterpret_cast<sockaddr *>(&bound),
                          &blen) == 0)
            boundTcpPort = ntohs(bound.sin_port);
    }

    if (unixFd >= 0)
        acceptThreads.emplace_back([this] { acceptLoop(unixFd); });
    if (tcpFd >= 0)
        acceptThreads.emplace_back([this] { acceptLoop(tcpFd); });
    return "";
}

void
SweepServer::acceptLoop(int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // stop() closed the listener (or it failed hard): done.
            return;
        }
        // Reap connections that have finished before spawning another,
        // so threads (and their stacks) never outlive their client.
        std::vector<std::thread> reaped;
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (shuttingDown) {
                ::close(fd);
                return;
            }
            for (std::thread::id id : finishedConns) {
                for (size_t i = 0; i < connThreads.size(); ++i) {
                    if (connThreads[i].get_id() == id) {
                        reaped.push_back(std::move(connThreads[i]));
                        connThreads[i] = std::move(connThreads.back());
                        connThreads.pop_back();
                        break;
                    }
                }
            }
            finishedConns.clear();
            connFds.push_back(fd);
            connThreads.emplace_back([this, fd] { serveConnection(fd); });
        }
        for (std::thread &t : reaped)
            t.join();
    }
}

std::string
SweepServer::handleSweep(const std::string &payload, std::string *json)
{
    SweepRequest req;
    std::string err = decodeSweepRequest(payload, &req);
    if (!err.empty())
        return err;

    SweepGrid grid;
    unsigned jobs_echo = 0;
    err = svc.requestToGrid(req, &grid, &jobs_echo);
    if (!err.empty())
        return err;

    SweepResult result;
    err = svc.run(grid, &result);
    if (!err.empty())
        return err;

    std::ostringstream os;
    writeSweepJson(os, result, jobs_echo);
    *json = os.str();
    return "";
}

std::string
SweepServer::statsJson() const
{
    const CacheStats s = svc.cacheStats();
    std::ostringstream os;
    os << "{\n  \"requests_served\": " << svc.requestsServed()
       << ",\n  \"cache\": {\n    \"hits\": " << s.hits
       << ",\n    \"misses\": " << s.misses
       << ",\n    \"insertions\": " << s.insertions
       << ",\n    \"evictions\": " << s.evictions
       << ",\n    \"entries\": " << s.entries
       << ",\n    \"bytes\": " << s.bytes
       << ",\n    \"budget_bytes\": " << s.budgetBytes << "\n  }\n}\n";
    return os.str();
}

void
SweepServer::serveConnection(int fd)
{
    for (;;) {
        MsgType type{};
        std::string payload;
        bool eof = false;
        std::string err =
            readFrame(fd, &type, &payload, kMaxRequestBytes, &eof);
        if (eof)
            break;
        if (!err.empty()) {
            // A frame error poisons the stream (we cannot resync); try
            // to tell the client why, then drop the connection.
            writeFrame(fd, MsgType::ErrResp, err);
            break;
        }

        switch (type) {
        case MsgType::SweepReq: {
            // A rejected request is an answered request, not a dead
            // connection: only a failed *write* ends the loop.
            std::string json;
            const std::string req_err = handleSweep(payload, &json);
            err = req_err.empty()
                      ? writeFrame(fd, MsgType::JsonResp, json)
                      : writeFrame(fd, MsgType::ErrResp, req_err);
            break;
        }
        case MsgType::StatsReq:
            err = writeFrame(fd, MsgType::StatsResp, statsJson());
            break;
        case MsgType::PingReq:
            err = writeFrame(fd, MsgType::PongResp, "pong");
            break;
        case MsgType::ShutdownReq: {
            writeFrame(fd, MsgType::PongResp, "shutting down");
            std::lock_guard<std::mutex> lock(mtx);
            shuttingDown = true;
            shutdownCv.notify_all();
            break;
        }
        default:
            writeFrame(fd, MsgType::ErrResp,
                       strprintf("unknown request type 0x%02x",
                                 static_cast<unsigned>(type)));
            break;
        }
        if (!err.empty())
            break; // response write failed: client is gone
        std::lock_guard<std::mutex> lock(mtx);
        if (shuttingDown)
            break;
    }
    // Deregister before closing so stop() can never shutdown() a
    // number the kernel has already reassigned.
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (size_t i = 0; i < connFds.size(); ++i) {
            if (connFds[i] == fd) {
                connFds.erase(connFds.begin() + i);
                break;
            }
        }
        finishedConns.push_back(std::this_thread::get_id());
    }
    ::close(fd);
}

void
SweepServer::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(mtx);
    shutdownCv.wait(lock, [this] { return shuttingDown; });
}

void
SweepServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        shuttingDown = true;
        shutdownCv.notify_all();
    }
    // Closing the listeners unblocks accept(); shutdown() on the
    // connection fds unblocks any read() so the threads can exit (the
    // serving thread still owns the close of its own fd).
    closeListener(unixFd);
    closeListener(tcpFd);
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (int fd : connFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &t : acceptThreads)
        t.join();
    acceptThreads.clear();
    // connThreads only grows under mtx while accept threads run; with
    // them joined the vector is stable.
    for (std::thread &t : connThreads) {
        if (t.joinable())
            t.join();
    }
    connThreads.clear();
    finishedConns.clear();
    if (!cfg.socketPath.empty())
        ::unlink(cfg.socketPath.c_str());
}

} // namespace loopspec
