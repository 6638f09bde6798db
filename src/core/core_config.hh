/**
 * @file
 * Full configuration of one core (defaults = the paper's section 4.1
 * machine). Split out of core.hh so the pipeline stages and the
 * composition root can share it without a cycle.
 */

#ifndef VPR_CORE_CORE_CONFIG_HH
#define VPR_CORE_CORE_CONFIG_HH

#include "core/fetch.hh"
#include "core/fu_pool.hh"
#include "memory/cache.hh"
#include "rename/rename_iface.hh"

namespace vpr
{

class ParamVisitor;

/** Full configuration of one core (defaults = the paper's machine). */
struct CoreConfig
{
    unsigned renameWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    std::size_t robSize = 128;
    std::size_t iqSize = 128;
    std::size_t lsqSize = 128;
    unsigned regReadPorts = 16;
    unsigned regWritePorts = 8;
    unsigned cachePorts = 3;

    RenameScheme scheme = RenameScheme::VPAllocAtWriteback;
    RenameConfig rename;
    FetchConfig fetch;
    FuPoolConfig fu;
    CacheConfig cache;

    /** Run the renamer's invariant self-check every 64 cycles. */
    bool invariantChecks = false;

    /** Reflect the core parameters and every nested config struct
     *  (sim/params.hh); implemented in core.cc. */
    void visitParams(ParamVisitor &v);
};

} // namespace vpr

#endif // VPR_CORE_CORE_CONFIG_HH
