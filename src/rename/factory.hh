/**
 * @file
 * Construction of the register-renaming schemes.
 *
 * The pipeline never names a concrete RenameManager type: it asks
 * makeRenamer for the scheme selected in its configuration. Adding a
 * scheme is one RenameScheme enumerator plus one case in each of the
 * two switches in factory.cc (makeRenamer and renameSchemeName); the
 * compiler's switch warning names any switch that misses it.
 */

#ifndef VPR_RENAME_FACTORY_HH
#define VPR_RENAME_FACTORY_HH

#include <memory>

#include "rename/rename_iface.hh"

namespace vpr
{

/** Build the rename manager implementing @p scheme. */
std::unique_ptr<RenameManager> makeRenamer(RenameScheme scheme,
                                           const RenameConfig &config);

} // namespace vpr

#endif // VPR_RENAME_FACTORY_HH
