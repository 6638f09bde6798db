#include "core/dyn_inst.hh"

#include <sstream>

namespace vpr
{

namespace
{

const char *
phaseName(InstPhase p)
{
    switch (p) {
      case InstPhase::Renamed: return "renamed";
      case InstPhase::Issued: return "issued";
      case InstPhase::Completed: return "completed";
      case InstPhase::Committed: return "committed";
      case InstPhase::Squashed: return "squashed";
      default: return "?";
    }
}

} // namespace

std::string
DynInst::toString() const
{
    std::ostringstream os;
    os << "[sn:" << seq() << " " << phaseName(phase())
       << (wrongPath ? " WP" : "") << "] " << si.disassemble();
    return os.str();
}

} // namespace vpr
