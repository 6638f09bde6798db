#include "common/logging.hh"

#include <cstdlib>
#include <iostream>

namespace vpr
{

int
runMain(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const Error &e) {
        std::cerr << "fatal: " << e.what() << std::endl;
        return 1;
    }
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "warn: " << msg << " (" << file << ":" << line << ")"
              << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cerr << "info: " << msg << std::endl;
}

} // namespace vpr
