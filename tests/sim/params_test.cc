/**
 * @file
 * Tests for the reflective config-parameter API (sim/params.hh):
 * registry lookups, every-parameter reachability, round-trip fuzz of
 * --set / dump / load, provenance contents, execution-only invariance,
 * and the error paths.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

TEST(ConfigRegistry, FindsDottedNamesWithDefaults)
{
    SimConfig config;
    ConfigRegistry registry(config);
    EXPECT_EQ(registry.get("core.iq_size"), "128");
    EXPECT_EQ(registry.get("core.cache.miss_penalty"), "50");
    EXPECT_EQ(registry.get("core.rename.phys_regs"), "64");
    EXPECT_EQ(registry.get("core.scheme"), "vp-writeback");
    EXPECT_EQ(registry.get("core.fetch.wrong_path"), "synthesize");
    EXPECT_EQ(registry.get("seed"), "0");
    EXPECT_NE(registry.find("core.fu.fp_div_sqrt"), nullptr);
    EXPECT_EQ(registry.find("core.nope"), nullptr);
}

TEST(ConfigRegistry, SetWritesThroughToTheStruct)
{
    SimConfig config;
    ConfigRegistry registry(config);
    registry.set("core.cache.miss_penalty", "75");
    EXPECT_EQ(config.core.cache.missPenalty, 75u);
    registry.set("core.scheme", "conv");  // alias accepted...
    EXPECT_EQ(config.core.scheme, RenameScheme::Conventional);
    // ...but get() always returns the canonical name.
    EXPECT_EQ(registry.get("core.scheme"), "conventional");
    registry.set("core.fetch.wrong_path_mem", "true");
    EXPECT_TRUE(config.core.fetch.wrongPathMem);
}

TEST(ConfigRegistry, DerivedParamsApplyTheSizingRules)
{
    SimConfig config;
    ConfigRegistry registry(config);
    registry.set("core.rename.regfile_size", "48");
    EXPECT_EQ(config.core.rename.numPhysRegs, 48u);
    EXPECT_EQ(config.core.rename.nrrInt, 16u);   // max = NPR - NLR
    EXPECT_EQ(config.core.rename.nrrFp, 16u);
    EXPECT_EQ(config.core.rename.numVPRegs, 32u + 128u);

    registry.set("core.rename.nrr", "4");
    EXPECT_EQ(config.core.rename.nrrInt, 4u);
    EXPECT_EQ(config.core.rename.nrrFp, 4u);

    registry.set("core.window", "256");
    EXPECT_EQ(config.core.robSize, 256u);
    EXPECT_EQ(config.core.iqSize, 256u);
    EXPECT_EQ(config.core.lsqSize, 256u);
    EXPECT_EQ(config.core.rename.numVPRegs, 32u + 256u);
    config.validate();
}

/** Pick a value different from @p current for @p def. */
std::string
differentValue(const ParamDef &def, const std::string &current)
{
    switch (def.kind) {
      case ParamDef::Kind::Bool:
        return current == "0" ? "1" : "0";
      case ParamDef::Kind::Enum:
        for (const std::string &name : def.enumNames)
            if (name != current)
                return name;
        ADD_FAILURE() << def.name << ": single-valued enum";
        return current;
      case ParamDef::Kind::UInt:
      default:
        return current == "1" ? "2" : "1";
    }
}

TEST(ConfigRegistry, EveryParameterIsReachable)
{
    // Walk the registry: every key must actually mutate a fresh
    // SimConfig — a registered-but-disconnected parameter (or two
    // params bound to one field) would break provenance.
    SimConfig reference;
    const std::size_t count = ConfigRegistry(reference).params().size();
    ASSERT_GT(count, 30u);

    for (std::size_t i = 0; i < count; ++i) {
        SimConfig config;
        ConfigRegistry registry(config);
        const ParamDef &def = registry.params()[i];
        const std::string before = def.get();
        const std::string target = differentValue(def, before);
        ASSERT_TRUE(def.set(target)) << def.name << " <- " << target;
        EXPECT_EQ(def.get(), target) << def.name;

        if (def.derived || def.execOnly)
            continue;  // not serialized; reachability checked above
        // The mutation must surface in the dumped document too.
        std::ostringstream dumped;
        dumpConfig(dumped, config);
        EXPECT_NE(dumped.str().find("\"" + def.name + "\": \"" + target +
                                    "\""),
                  std::string::npos)
            << def.name;
    }
}

TEST(ConfigRegistry, ProvenanceIncludesSeedButNeverJobs)
{
    SimConfig config;
    config.seed = 1234;
    bool sawSeed = false;
    for (const auto &[name, value] : configProvenance(config)) {
        EXPECT_NE(name, "jobs");
        if (name == "seed") {
            sawSeed = true;
            EXPECT_EQ(value, "1234");
        }
    }
    EXPECT_TRUE(sawSeed);

    // And derived params never appear (only their underlying values).
    for (const auto &[name, value] : configProvenance(config)) {
        (void)value;
        EXPECT_NE(name, "core.rename.regfile_size");
        EXPECT_NE(name, "core.window");
    }
}

TEST(ConfigParams, AssignDumpLoadDumpIsByteIdenticalUnderFuzz)
{
    // Random --set batches must round-trip: apply -> dump -> load into
    // a fresh config -> dump again, byte-identical.
    std::mt19937_64 rng(0xc0ffee);
    SimConfig proto;
    const std::size_t count = ConfigRegistry(proto).params().size();

    for (int round = 0; round < 40; ++round) {
        SimConfig config;
        {
            ConfigRegistry registry(config);
            for (std::size_t i = 0; i < count; ++i) {
                if (rng() % 3 != 0)
                    continue;
                const ParamDef &def = registry.params()[i];
                std::string value;
                switch (def.kind) {
                  case ParamDef::Kind::Bool:
                    value = rng() % 2 ? "1" : "0";
                    break;
                  case ParamDef::Kind::Enum:
                    value = def.enumNames[rng() % def.enumNames.size()];
                    break;
                  case ParamDef::Kind::UInt:
                  default:
                    value = std::to_string(
                        rng() % (std::min<std::uint64_t>(
                                     def.maxValue, 1000000) +
                                 1));
                    break;
                }
                registry.set(def.name, value);
            }
        }

        std::ostringstream first;
        dumpConfig(first, config);

        SimConfig reloaded;
        std::istringstream in(first.str());
        loadConfig(reloaded, in, "fuzz");
        std::ostringstream second;
        dumpConfig(second, reloaded);
        ASSERT_EQ(first.str(), second.str()) << "round " << round;
    }
}

TEST(ConfigParams, LoadTakesAnyLayoutOfTheSameJson)
{
    // --config takes any flat JSON object of string values, not just
    // dumpConfig's one-key-per-line layout.
    SimConfig donor;
    donor.seed = 3;
    donor.core.scheme = RenameScheme::VPAllocAtIssue;
    donor.core.cache.missPenalty = 77;
    std::ostringstream dump;
    dumpConfig(dump, donor);

    std::string oneLine, reindented;
    for (char c : dump.str()) {
        if (c != '\n')
            oneLine += c;
        // Every token on a line of its own, tab-indented.
        reindented += c == ':' || c == ',' ? std::string("\n\t") + c + "\n"
                                           : std::string(1, c);
    }
    for (const std::string &text : {oneLine, reindented}) {
        SimConfig loaded;
        std::istringstream is(text);
        loadConfig(loaded, is, "layout");
        std::ostringstream again;
        dumpConfig(again, loaded);
        EXPECT_EQ(again.str(), dump.str()) << text;
    }

    SimConfig seeded;
    std::istringstream is("{\"seed\": \"3\"}");
    loadConfig(seeded, is, "one-line");
    EXPECT_EQ(seeded.seed, 3u);
}

TEST(ConfigParamsDeath, LoadRejectsWhatIsNotFlatStringJson)
{
    // A nested object is no flat config, however its lines are laid
    // out; nothing of it may load.
    SimConfig config;
    std::istringstream nested("{\n{\n\"seed\": \"3\"\n}\n}\n");
    EXPECT_VPR_ERROR(loadConfig(config, nested, "nested"),
                     "bad JSON in nested");
    EXPECT_EQ(config.seed, SimConfig{}.seed);
    std::istringstream array("{\"seed\": [\"3\"]}");
    EXPECT_VPR_ERROR(loadConfig(config, array, "array"),
                     "field \"seed\" must be a string");
    std::istringstream number("{\"seed\": 3}");
    EXPECT_VPR_ERROR(loadConfig(config, number, "number"), "bad JSON");
    std::istringstream trailing("{\"seed\": \"3\"} x");
    EXPECT_VPR_ERROR(loadConfig(config, trailing, "trailing"),
                     "trailing content");
}

TEST(ConfigParams, DumpExcludesExecutionOnlyKnobs)
{
    // A config file describes the machine, not how a grid is run:
    // loading one must never clobber a --result-cache given on the
    // command line, so the cache directory is not serialized at all.
    SimConfig config;
    config.resultCache.dir = "cache-a";
    std::ostringstream os;
    dumpConfig(os, config);
    EXPECT_EQ(os.str().find("sim.result_cache.dir"), std::string::npos);

    SimConfig reloaded;
    reloaded.resultCache.dir = "cache-b";
    std::istringstream is(os.str());
    loadConfig(reloaded, is, "dump");
    EXPECT_EQ(reloaded.resultCache.dir, "cache-b");
}

TEST(ConfigParams, CliContractLoadsConfigFileFirstSoSetWins)
{
    // The shared --set/--config contract: the file loads first and
    // --set assignments win, regardless of argument order (every
    // binary routes through applyConfigCli).
    SimConfig donor;
    donor.core.cache.missPenalty = 99;
    donor.core.cache.numMshrs = 2;
    const std::string path =
        testing::TempDir() + "params_test_cli_contract.json";
    {
        std::ofstream os(path);
        dumpConfig(os, donor);
    }

    ConfigCliArgs cli;
    cli.configPath = path;
    cli.assignments = {"core.cache.miss_penalty=10"};
    SimConfig config;
    applyConfigCli(config, cli);
    EXPECT_EQ(config.core.cache.missPenalty, 10u);  // --set wins
    EXPECT_EQ(config.core.cache.numMshrs, 2u);      // file applied
}

TEST(ConfigParams, ParseConfigArgRecognizesBothSetSpellings)
{
    const char *argv[] = {"prog",           "--set",
                          "core.iq_size=64", "--set=seed=3",
                          "--config=c.json", "--dump-config",
                          "positional"};
    const int argc = 7;
    ConfigCliArgs cli;
    std::vector<std::string> rest;
    for (int i = 1; i < argc; ++i)
        if (!parseConfigArg(argc, const_cast<char **>(argv), i, cli))
            rest.push_back(argv[i]);
    EXPECT_EQ(cli.assignments,
              (std::vector<std::string>{"core.iq_size=64", "seed=3"}));
    EXPECT_EQ(cli.configPath, "c.json");
    EXPECT_TRUE(cli.dumpConfig);
    EXPECT_EQ(rest, (std::vector<std::string>{"positional"}));
}

TEST(ConfigParams, ParseConfigArgExpandsTheAliasFlags)
{
    // --sampling and --result-cache=<dir> are pure aliases: each
    // becomes exactly the assignment every driver used to append on
    // its own, in command-line order with the --set flags around it.
    const char *argv[] = {"prog", "--set=seed=3", "--sampling",
                          "--result-cache=rc", "--samplingx",
                          "--result-cache"};
    const int argc = 6;
    ConfigCliArgs cli;
    std::vector<std::string> rest;
    for (int i = 1; i < argc; ++i)
        if (!parseConfigArg(argc, const_cast<char **>(argv), i, cli))
            rest.push_back(argv[i]);
    EXPECT_EQ(cli.assignments,
              (std::vector<std::string>{"seed=3", "sim.sampling.enable=1",
                                        "sim.result_cache.dir=rc"}));
    EXPECT_EQ(rest,
              (std::vector<std::string>{"--samplingx", "--result-cache"}));

    SimConfig config;
    applyConfigCli(config, cli);
    EXPECT_TRUE(config.sampling.enable);
    EXPECT_EQ(config.resultCache.dir, "rc");
}

TEST(ConfigParams, ApplyAssignmentParsesKeyEqualsValue)
{
    SimConfig config;
    applyAssignment(config, "core.cache.num_mshrs=4");
    EXPECT_EQ(config.core.cache.numMshrs, 4u);
    applyAssignments(config,
                     {"skip_insts=111", "measure_insts=222"});
    EXPECT_EQ(config.skipInsts, 111u);
    EXPECT_EQ(config.measureInsts, 222u);
}

TEST(ConfigParams, ParamReferenceDocumentsEveryParam)
{
    const std::vector<ParamInfo> reference = paramReference();
    ASSERT_GT(reference.size(), 30u);
    for (const ParamInfo &p : reference) {
        EXPECT_FALSE(p.doc.empty()) << p.name;
        EXPECT_FALSE(p.type.empty()) << p.name;
        EXPECT_FALSE(p.defaultText.empty()) << p.name;
    }
    std::ostringstream help;
    printParamHelp(help);
    EXPECT_NE(help.str().find("core.cache.miss_penalty"),
              std::string::npos);
    EXPECT_NE(help.str().find("core.rename.regfile_size"),
              std::string::npos);
}

// --- execution-only invariance ---------------------------------------------

/** The CSV export of a small grid under @p base: two benchmarks x
 *  conv/vp-wb, run on @p jobs workers. */
std::string
exportSmallGrid(const SimConfig &base, unsigned jobs)
{
    const std::vector<GridCell> cells =
        buildSweepGrid({"compress", "swim"}, base,
                       {parseSweepAxis("core.scheme=conv,vp-wb")});
    const std::vector<SimResults> results = runGrid(cells, jobs);
    std::vector<std::size_t> indices(cells.size());
    std::iota(indices.begin(), indices.end(), 0);
    std::ostringstream os;
    writeResultsCsv(os, "exec-only", ShardSpec{}, indices, cells, results);
    return os.str();
}

TEST(ConfigParams, ExecutionOnlyParamsNeverChangeARecord)
{
    // Execution-only knobs decide how a grid runs, never what it
    // computes, and neither does the worker count. Every knob gets an
    // alternate setting here (a new knob without one fails the test),
    // and each alternate runs the grid twice on 1 and on 4 workers: a
    // configured cache is cold the first time and warm the second. All
    // exports must equal the serial all-defaults export byte for byte.
    namespace fs = std::filesystem;
    const fs::path cache = fs::path(::testing::TempDir()) / "vpr_exec_only";
    const std::map<std::string, std::vector<std::string>> alternates = {
        {"sim.result_cache.dir", {"sim.result_cache.dir=" + cache.string()}},
    };
    for (const ParamInfo &p : paramReference()) {
        if (!p.execOnly)
            continue;
        EXPECT_EQ(alternates.count(p.name), 1u)
            << p.name << " is execution-only but has no alternate";
    }

    // Both run protocols: a detailed warm-up, and sampling.
    const std::map<std::string, std::vector<std::string>> protocols = {
        {"detailed", {"skip_insts=2000", "measure_insts=8000"}},
        {"sampled",
         {"skip_insts=2000", "measure_insts=8000", "sim.sampling.enable=1",
          "sim.sampling.period_insts=2000"}},
    };
    for (const auto &[protocol, settings] : protocols) {
        SimConfig base;
        applyAssignments(base, settings);
        const std::string reference = exportSmallGrid(base, 1);
        for (unsigned jobs : {1u, 4u}) {
            fs::remove_all(cache);  // each worker count starts cold
            EXPECT_TRUE(exportSmallGrid(base, jobs) == reference)
                << protocol << " grid, jobs=" << jobs
                << ": the export differs from the serial run's";
            for (const auto &[name, assignments] : alternates) {
                SimConfig alt = base;
                applyAssignments(alt, assignments);
                for (const char *pass : {"first", "second"})
                    EXPECT_TRUE(exportSmallGrid(alt, jobs) == reference)
                        << protocol << " grid, " << name << ", jobs="
                        << jobs << ", " << pass
                        << " run: the export differs from the defaults'";
            }
        }
    }
    fs::remove_all(cache);
}

// --- error paths ----------------------------------------------------------

TEST(ConfigParamsDeath, UnknownKeyIsFatal)
{
    SimConfig config;
    EXPECT_VPR_ERROR(applyAssignment(config, "core.warp_drive=9"),
                     "unknown parameter");
}

TEST(ConfigParamsDeath, WorkerCountIsNoParameter)
{
    // The worker count is a process flag (--jobs, else VPR_JOBS), not a
    // config key: --set and request bodies must not accept it.
    SimConfig config;
    EXPECT_VPR_ERROR(applyAssignment(config, "jobs=4"),
                     "unknown parameter 'jobs'");
}

TEST(ConfigParamsDeath, MalformedAssignmentIsFatal)
{
    SimConfig config;
    EXPECT_VPR_ERROR(applyAssignment(config, "core.iq_size"),
                     "malformed assignment");
}

TEST(ConfigParamsDeath, BadValueIsFatal)
{
    SimConfig config;
    EXPECT_VPR_ERROR(applyAssignment(config, "core.iq_size=lots"),
                     "bad value");
}

TEST(ConfigParamsDeath, OutOfRangeValueIsFatal)
{
    SimConfig config;
    // phys_regs is a u16 field: 70000 does not fit.
    EXPECT_VPR_ERROR(applyAssignment(config, "core.rename.phys_regs=70000"),
                     "bad value");
}

TEST(ConfigParamsDeath, BadEnumNameIsFatal)
{
    SimConfig config;
    EXPECT_VPR_ERROR(applyAssignment(config, "core.scheme=magic"),
                     "bad value");
}

TEST(ConfigParamsDeath, BadBoolIsFatal)
{
    SimConfig config;
    EXPECT_VPR_ERROR(
        applyAssignment(config, "core.fetch.wrong_path_mem=maybe"),
        "bad value");
}

TEST(ConfigParamsDeath, LoadRejectsUnknownKey)
{
    SimConfig config;
    std::istringstream is("{\n  \"core.warp_drive\": \"9\"\n}\n");
    EXPECT_VPR_ERROR(loadConfig(config, is, "bad"), "unknown parameter");
}

TEST(ConfigParamsDeath, LoadRejectsMalformedDocument)
{
    SimConfig config;
    std::istringstream is("core.iq_size: 64\n");
    EXPECT_VPR_ERROR(loadConfig(config, is, "bad"), "expected");
}

TEST(ConfigParamsDeath, LoadRejectsMissingBraces)
{
    SimConfig config;
    std::istringstream is("  \"core.iq_size\": \"64\"\n");
    EXPECT_VPR_ERROR(loadConfig(config, is, "bad"),
                     "bad JSON in bad: expected '\\{'");
}

} // namespace
} // namespace vpr
