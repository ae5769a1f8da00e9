#include "serve.h"

#include <pthread.h>

#include "assembler/assembler.h"
#include "faults/outcome.h"
#include "sim/sim_request.h"
#include "spans.h"

namespace fb {

using namespace flexcore;

ServeHarness::ServeHarness()
{
    pool_.submit(
        [this] { pthread_getcpuclockid(pthread_self(), &worker_clock_); });
    pool_.wait();
    serve::ServeLimits limits;
    limits.quiet = true;
    server_ = std::make_unique<serve::Server>(&pool_, &cache_, limits);
    std::string error;
    check(netio::parseEndpoint("unix:" + socketPath(), &endpoint_, &error),
          "bad socket path: " + error);
    check(server_->listen(endpoint_, &error), "listen failed: " + error);
    thread_ = std::thread([this] { server_->serve(); });
}

ServeHarness::~ServeHarness()
{
    server_->beginShutdown();
    thread_.join();
}

void
ServeHarness::preassemble(const std::string &source)
{
    Span span("assembler.assemble");
    cache_.insert(fnv1a64(source), std::make_shared<const Program>(
                                       Assembler::assembleOrDie(source)));
}

ServeRequest
makeServeRequest(const std::string &cls, const std::string &identity,
                 const SimRequest &request, std::string expected_console)
{
    ServeRequest req;
    req.cls = cls;
    req.identity = identity;
    req.request_json = request.toJson();
    req.envelope = "{\"op\": \"sim\", \"request\": " + req.request_json + "}";
    req.expected_console = std::move(expected_console);
    req.fault = !request.config().faults.empty();
    req.want_stats = request.statsJsonRequested();
    return req;
}

ServeResult
verifyReply(const ServeRequest &req, const std::string &reply)
{
    SimResponse resp;
    std::string error;
    check(simResponseFromJson(reply, &resp, &error),
          req.identity + ": malformed reply: " + error);
    check(!resp.error, req.identity + ": error reply " +
                           std::string(configErrorName(resp.error.code)) +
                           ": " + resp.error.message);
    ServeResult r;
    r.identity = req.identity;
    r.cls = req.cls;
    r.exit = static_cast<u64>(resp.result.exit);
    r.cycles = resp.result.cycles;
    r.instructions = resp.result.instructions;
    if (req.fault) {
        check(resp.fault_run, req.identity + ": fault run not classified");
        r.fault_outcome = std::string(faultOutcomeName(resp.fault.outcome));
    } else {
        check(resp.result.exit == RunResult::Exit::kExited,
              req.identity + ": did not exit cleanly");
        check(resp.result.console == req.expected_console,
              req.identity + ": console differs from the golden output");
    }
    if (req.want_stats) {
        check(!resp.stats_json.empty() && !resp.profile_json.empty(),
              req.identity + ": stats or profile document missing");
    }
    return r;
}

void
digestResult(Digest *digest, const ServeResult &result)
{
    digest->add(result.identity);
    digest->add(result.exit);
    digest->add(result.cycles);
    digest->add(result.instructions);
    digest->add(result.fault_outcome);
}

ClientRun
runClient(ServeHarness &harness,
          const std::function<ServeRequest(u64)> &make, u64 first,
          u64 count)
{
    ClientRun run;
    std::string error;
    const int fd = netio::connectTo(harness.endpoint(), &error);
    check(fd >= 0, "connect failed: " + error);
    const double t0 = wallNow();
    const double cpu0 = harness.workerCpuNow();
    for (u64 i = first; i < first + count; ++i) {
        const ServeRequest req = make(i);
        std::string reply;
        double rtt;
        {
            Span span("serve.request", 1ull << 32 | i);
            check(netio::sendFrame(fd, req.envelope) &&
                      netio::recvFrame(fd, &reply, &error),
                  req.identity + ": transport failed: " + error);
            rtt = span.end();
        }
        ServeResult r = verifyReply(req, reply);
        r.rtt_s = rtt;
        run.results.push_back(std::move(r));
    }
    run.wall_s = wallNow() - t0;
    run.sim_cpu_s = harness.workerCpuNow() - cpu0;
    netio::closeSocket(fd);
    return run;
}

}  // namespace fb
