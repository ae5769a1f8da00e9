/**
 * @file
 * The serving side of the benchmark: an in-process serve::Server on a
 * unix socket inside the output directory, closed-loop clients that
 * each wait for their reply before sending the next request, and the
 * request kinds the workloads send.
 */

#ifndef FLEXBENCH_SERVE_H_
#define FLEXBENCH_SERVE_H_

#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/netio.h"
#include "common/threadpool.h"
#include "serve/server.h"
#include "sim/sim_response.h"

namespace fb {

/**
 * A listening server with its own program cache and a one-worker pool.
 * The worker runs every simulation, so its CPU-time clock is the
 * simulating thread's.
 */
class ServeHarness
{
  public:
    ServeHarness();
    ~ServeHarness();
    ServeHarness(const ServeHarness &) = delete;
    ServeHarness &operator=(const ServeHarness &) = delete;

    /** Assemble @p source into the program cache (a warm start). */
    void preassemble(const std::string &source);

    /** CPU time of the pool worker so far, seconds. */
    double workerCpuNow() const { return clockNow(worker_clock_); }

    const flexcore::netio::Endpoint &endpoint() const { return endpoint_; }
    flexcore::serve::Server &server() { return *server_; }
    flexcore::ProgramCache &cache() { return cache_; }

  private:
    flexcore::ThreadPool pool_{1};
    clockid_t worker_clock_ = CLOCK_THREAD_CPUTIME_ID;
    flexcore::ProgramCache cache_;
    std::unique_ptr<flexcore::serve::Server> server_;
    flexcore::netio::Endpoint endpoint_;
    std::thread thread_;
};

/** One request a client sends, with what a correct reply holds. */
struct ServeRequest
{
    std::string cls;        //!< hit, cold, stats, fault or probe
    std::string identity;   //!< equal identities must get equal results
    std::string request_json;   //!< SimRequest::toJson()
    std::string envelope;       //!< {"op": "sim", "request": ...}
    /** Console every core must print, core order ("" for fault runs,
     * which are classified, not verified). */
    std::string expected_console;
    bool fault = false;
    bool want_stats = false;
};

/** Wrap a SimRequest into a ServeRequest. */
ServeRequest makeServeRequest(const std::string &cls,
                              const std::string &identity,
                              const flexcore::SimRequest &request,
                              std::string expected_console);

/** The parts of a reply the digest and the metrics need. */
struct ServeResult
{
    std::string identity;
    std::string cls;
    double rtt_s = 0;
    u64 exit = 0;
    u64 cycles = 0;
    u64 instructions = 0;
    std::string fault_outcome;
};

/**
 * Decode and verify one reply document against @p req (check failure
 * on any error response or wrong output).
 */
ServeResult verifyReply(const ServeRequest &req, const std::string &reply);

/** Add one result to a digest (identity and simulated outcome). */
void digestResult(Digest *digest, const ServeResult &result);

/** What one closed-loop client saw. */
struct ClientRun
{
    std::vector<ServeResult> results;   //!< send order
    double wall_s = 0;
    double sim_cpu_s = 0;   //!< pool-worker CPU time over the run
};

/**
 * One closed-loop client on the calling thread: it sends make(first),
 * make(first + 1), ..., make(first + count - 1) on one connection,
 * each after the previous reply.
 */
ClientRun runClient(ServeHarness &harness,
                    const std::function<ServeRequest(u64 index)> &make,
                    u64 first, u64 count);

}  // namespace fb

#endif  // FLEXBENCH_SERVE_H_
