/**
 * @file
 * The four satbench workloads and the reference pinning tool.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench.hpp"

namespace satbench
{

/** Everything a workload is configured with. */
struct Context
{
    std::string dataDir; ///< satbench/: inputs/ and refs/ live here
    std::string workDir; ///< scratch directory inside the checkout
    std::uint32_t seed = 1;
    int workers = 1;     ///< min(4, nproc)
    bool ruleC = true;   ///< false: the rule-c-off sensitivity leg
};

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Context &ctx);

/**
 * Regenerate every pinned reference under ctx.dataDir/refs from
 * sources other than the engine under test where they exist: the
 * operational machines for the ring, the `expect` lines for litmus
 * verdicts.  Returns a process exit code.
 */
int pinReferences(const Context &ctx);

} // namespace satbench
