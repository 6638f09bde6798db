#include "rename/factory.hh"

#include "common/logging.hh"
#include "rename/conventional.hh"
#include "rename/early_release.hh"
#include "rename/virtual_physical.hh"

namespace vpr
{

std::unique_ptr<RenameManager>
makeRenamer(RenameScheme scheme, const RenameConfig &config)
{
    switch (scheme) {
      case RenameScheme::Conventional:
        return std::make_unique<ConventionalRename>(config);
      case RenameScheme::VPAllocAtWriteback:
        return std::make_unique<VirtualPhysicalRename>(config, false);
      case RenameScheme::VPAllocAtIssue:
        return std::make_unique<VirtualPhysicalRename>(config, true);
      case RenameScheme::ConventionalEarlyRelease:
        return std::make_unique<EarlyReleaseRename>(config);
    }
    VPR_PANIC("bad rename scheme ", static_cast<int>(scheme));
}

const char *
renameSchemeName(RenameScheme s)
{
    switch (s) {
      case RenameScheme::Conventional: return "conventional";
      case RenameScheme::VPAllocAtWriteback: return "vp-writeback";
      case RenameScheme::VPAllocAtIssue: return "vp-issue";
      case RenameScheme::ConventionalEarlyRelease:
        return "conv-early-release";
    }
    VPR_PANIC("bad rename scheme ", static_cast<int>(s));
}

} // namespace vpr
