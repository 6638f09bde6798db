#include "bench_common.hh"

#include <cmath>

namespace vpr::bench
{

SimConfig
experimentConfig()
{
    SimConfig config = driverConfig();
    // The paper skips 100 M instructions and measures 50 M per run; the
    // figures keep driverConfig's 20 k warm-up and measure 120 k, which
    // keeps the full figure suite under a few minutes while preserving
    // every qualitative result. Use VPR_INSTS_SCALE=10 (or more) for
    // higher-fidelity runs.
    config.measureInsts = 120000;
    return config;
}

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += std::log(v);
    return std::exp(s / static_cast<double>(values.size()));
}

} // namespace vpr::bench
