/**
 * @file
 * perfbench_tool: the native half of the repo benchmark (run.py is the
 * other half). Two commands:
 *
 *   corpus  generate the seeded trace corpus with the public workload
 *           generators and write it as <registry-name>.gzt files;
 *   traced  re-run a set of campaign cells in-process with host-time
 *           spans around the public simulator entry points and a
 *           timing wrapper around every prefetcher, then print the
 *           per-layer split and the cells' simulated statistics.
 *
 * Both print one JSON document on stdout; run.py turns it into metrics.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Host monotonic clock in nanoseconds (the benchmark's only clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** "--key=value" / "--key value" lookup over argv; empty when absent. */
std::string argValue(const std::vector<std::string> &args,
                     const std::string &key);

/** Split "a,b,c" on commas, dropping empty tokens. */
std::vector<std::string> splitCommas(const std::string &s);

int corpusMain(const std::vector<std::string> &args);
int tracedMain(const std::vector<std::string> &args);

} // namespace perfbench
