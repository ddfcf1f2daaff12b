#include "serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/frame.hpp"
#include "common/json.hpp"
#include "vqa/storefmt.hpp"

namespace eftvqa {
namespace serve {

namespace {

std::string
makeRunFrame(long long id, const std::string &workload,
             const std::string &mode, const std::string &key,
             const std::string &isolation)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", "run");
    json.field("id", id);
    json.field("workload", workload);
    json.field("mode", mode);
    json.field("key", key);
    if (!isolation.empty())
        json.field("isolation", isolation);
    json.endInlineObject();
    return oss.str();
}

std::string
makeTypeIdFrame(const char *type, long long id)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", type);
    json.field("id", id);
    json.endInlineObject();
    return oss.str();
}

} // namespace

DaemonClient
DaemonClient::connectUnix(const std::string &socket_path)
{
    sockaddr_un addr{};
    if (socket_path.empty() ||
        socket_path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("vqad client: bad socket path '" +
                                 socket_path + "'");
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(
            std::string("vqad client: socket(AF_UNIX): ") +
            std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        const std::string what = "vqad client: cannot connect to '" +
                                 socket_path +
                                 "': " + std::strerror(errno);
        close(fd);
        throw std::runtime_error(what);
    }
    return DaemonClient(fd);
}

DaemonClient
DaemonClient::connectTcp(uint16_t port)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(
            std::string("vqad client: socket(AF_INET): ") +
            std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        const std::string what =
            "vqad client: cannot connect to 127.0.0.1:" +
            std::to_string(port) + ": " + std::strerror(errno);
        close(fd);
        throw std::runtime_error(what);
    }
    return DaemonClient(fd);
}

DaemonClient::DaemonClient(DaemonClient &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

DaemonClient &
DaemonClient::operator=(DaemonClient &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            close(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

DaemonClient::~DaemonClient()
{
    if (fd_ >= 0)
        close(fd_);
}

bool
DaemonClient::sendRun(long long id, const std::string &workload,
                      const std::string &mode, const std::string &key,
                      const std::string &isolation)
{
    return writeFrame(fd_,
                      makeRunFrame(id, workload, mode, key, isolation));
}

bool
DaemonClient::sendStats(long long id)
{
    return writeFrame(fd_, makeTypeIdFrame("stats", id));
}

bool
DaemonClient::sendPing(long long id)
{
    return writeFrame(fd_, makeTypeIdFrame("ping", id));
}

bool
DaemonClient::readReply(DaemonReply &out)
{
    std::string payload;
    if (!readFrame(fd_, payload))
        return false;
    std::string key;
    std::string label;
    SweepRow fields;
    if (!storefmt::parseCellPayload(payload, key, label, fields) ||
        !fields.has("type"))
        throw std::runtime_error(
            "vqad client: unparseable reply frame: " + payload);
    out = DaemonReply{};
    out.type = fields.str("type");
    out.id = fields.has("id") ? fields.integer("id") : 0;
    out.key = key;
    if (fields.has("payload"))
        out.payload = fields.str("payload");
    if (fields.has("code"))
        out.code = fields.str("code");
    if (fields.has("category"))
        out.category = fields.str("category");
    if (fields.has("error"))
        out.error = fields.str("error");
    out.fields = std::move(fields);
    return true;
}

DaemonReply
DaemonClient::stats()
{
    if (!sendStats(0))
        throw std::runtime_error("vqad client: daemon hung up");
    DaemonReply reply;
    // Replies to earlier runs may be interleaved ahead of the stats
    // frame; this convenience helper is for idle connections, so any
    // non-stats frame here is a protocol surprise worth throwing on.
    if (!readReply(reply) || reply.type != "stats")
        throw std::runtime_error(
            "vqad client: expected a stats reply");
    return reply;
}

SweepReport
runSweepViaDaemon(DaemonClient &client,
                  const std::vector<SweepCell> &cells,
                  const DaemonRunOptions &options, SweepSink *sink)
{
    if (options.workload.empty())
        throw std::invalid_argument(
            "runSweepViaDaemon: options.workload must name the "
            "registered workload");
    const size_t n = cells.size();
    const size_t max_inflight =
        options.max_inflight > 0 ? options.max_inflight : 1;

    SweepReport report;
    report.cells = n;
    std::vector<SweepRow> rows(n);
    std::vector<CellOutcome> outcomes(n);
    std::vector<char> done(n, 0);
    std::vector<char> failed(n, 0);
    std::vector<char> fresh(n, 0);

    // Resume contract, exactly like SweepRunner::run: cells the sink
    // already holds are carried, not re-requested.
    std::vector<size_t> pending;
    for (size_t i = 0; i < n; ++i) {
        if (sink && sink->contains(cells[i])) {
            rows[i] = sink->storedRow(cells[i]);
            if (sink->quarantined(cells[i])) {
                outcomes[i] = sink->storedOutcome(cells[i]);
                failed[i] = 1;
            }
            done[i] = 1;
            ++report.skipped;
            continue;
        }
        fresh[i] = 1;
        pending.push_back(i);
    }
    report.executed = pending.size();

    // Pipeline: keep up to max_inflight requests outstanding; request
    // id i+1 tags cell i. The daemon may answer out of order (another
    // client can finish a coalesced cell first), so completions are
    // buffered in rows[] and fresh ones flushed to the sink in serial
    // cell order (carried cells are already stored).
    std::map<long long, size_t> outstanding;
    size_t next_send = 0;
    size_t flushed = 0;

    auto flush_prefix = [&] {
        for (; flushed < n && done[flushed] != 0; ++flushed) {
            if (!sink || fresh[flushed] == 0)
                continue;
            if (failed[flushed] != 0)
                sink->writeQuarantined(cells[flushed],
                                       outcomes[flushed]);
            else
                sink->write(cells[flushed], rows[flushed]);
        }
    };
    flush_prefix();

    while (next_send < pending.size() || !outstanding.empty()) {
        while (next_send < pending.size() &&
               outstanding.size() < max_inflight) {
            const size_t i = pending[next_send];
            const long long id = static_cast<long long>(i) + 1;
            if (!client.sendRun(id, options.workload, options.mode,
                                cells[i].keyString(),
                                options.isolation))
                throw std::runtime_error(
                    "runSweepViaDaemon: daemon hung up mid-send");
            outstanding[id] = i;
            ++next_send;
        }

        DaemonReply reply;
        if (!client.readReply(reply))
            throw std::runtime_error(
                "runSweepViaDaemon: daemon connection closed with " +
                std::to_string(outstanding.size()) +
                " request(s) outstanding");
        const auto it = outstanding.find(reply.id);
        if (it == outstanding.end())
            continue; // stray frame (e.g. a stats reply); ignore
        const size_t i = it->second;
        outstanding.erase(it);

        CellOutcome outcome;
        outcome.attempts = 1;
        if (reply.type == "ok") {
            std::string key;
            std::string label;
            SweepRow row;
            if (!storefmt::parseChecksummedLine(reply.payload, key,
                                                label, row))
                throw std::runtime_error(
                    "runSweepViaDaemon: daemon returned a corrupt "
                    "result line for cell '" + cells[i].label + "'");
            if (key != cells[i].keyString())
                throw std::runtime_error(
                    "runSweepViaDaemon: daemon returned a result for "
                    "key " + key + " to cell '" + cells[i].label +
                    "' (" + cells[i].keyString() + ")");
            rows[i] = std::move(row);
            outcome.ok = true;
        } else if (reply.type == "err") {
            outcome.ok = false;
            outcome.category = errorCategoryFromName(reply.category);
            outcome.error = reply.code.empty()
                                ? reply.error
                                : reply.code + ": " + reply.error;
            rows[i] = quarantineRowFor(outcome);
            failed[i] = 1;
        } else {
            continue; // pong or other non-result frame with our id
        }
        outcomes[i] = std::move(outcome);
        done[i] = 1;
        flush_prefix();
    }
    flush_prefix();

    for (const char f : failed)
        report.failed += f != 0 ? 1 : 0;
    report.outcomes = std::move(outcomes);
    report.rows = std::move(rows);
    if (sink)
        sink->finish();
    return report;
}

} // namespace serve
} // namespace eftvqa
