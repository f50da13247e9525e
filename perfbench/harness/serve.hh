/**
 * @file
 * Driving `sched91 serve` over its AF_UNIX wire protocol: daemon
 * lifecycle, the closed-loop client, and the traced service pass both
 * the serve workloads and the batch workload's traced run use.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** One distinct request payload: the JSON members after "id". */
struct Payload
{
    std::string members; ///< e.g. "source":"...","emit":"schedule"
    std::uint64_t insts = 0;
};

/** Render the members of a request object (no braces, no id). */
std::string requestMembers(
    const std::string &source,
    const std::vector<std::pair<std::string, std::string>> &extra);

/** What one traced service pass measured (see runServicePass). */
struct ServicePass
{
    bool isolate = false;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t instsOk = 0;
    double windowS = 0;
    double responseBytesMean = 0; ///< stable part, distinct payloads
    std::string traceDumpFile;
    /** Per request: trace id number, send ns, receive ns, the
     * response's spans.parse_ns, instructions. */
    struct Client
    {
        std::uint64_t k, sendNs, recvNs, parseNs, insts;
    };
    std::vector<Client> client;
};

/**
 * A traced pass of @p payloads through a fresh daemon: @p warmup
 * untraced requests, then each payload in turn with a client-chosen
 * trace id until @p maxRequests are sent (0 = no cap) or @p seconds
 * elapse (0 = no limit); then the daemon's trace-dump (written to a
 * file in the working directory) is scraped and the daemon drained.  False on any failure, with @p error set.
 */
bool runServicePass(const Options &opts, bool isolate,
                    const std::vector<Payload> &payloads,
                    std::uint64_t warmup, std::uint64_t maxRequests,
                    double seconds, ServicePass &out, std::string &error);

/** Write @p pass as one JSON object. */
void writeServicePass(sched91::obs::JsonWriter &w, const ServicePass &pass);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
