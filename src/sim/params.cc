#include "sim/params.hh"

#include <cstring>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/config.hh"

namespace vpr
{

bool
parseParamU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

void
ParamVisitor::boolParam(const std::string &name, bool &field,
                        const std::string &doc)
{
    ParamDef def;
    def.name = prefixed(name);
    def.kind = ParamDef::Kind::Bool;
    def.maxValue = 1;
    def.type = "bool";
    def.doc = doc;
    bool *field_p = &field;
    def.get = [field_p] { return std::string(*field_p ? "1" : "0"); };
    def.set = [field_p](const std::string &text) {
        if (text == "1" || text == "true")
            *field_p = true;
        else if (text == "0" || text == "false")
            *field_p = false;
        else
            return false;
        return true;
    };
    onParam(std::move(def));
}

void
ParamVisitor::derivedUInt(const std::string &name, const std::string &doc,
                          std::uint64_t maxValue,
                          std::function<std::string()> get,
                          std::function<bool(std::uint64_t)> set)
{
    ParamDef def;
    def.name = prefixed(name);
    def.kind = ParamDef::Kind::UInt;
    def.maxValue = maxValue;
    def.type = "u" + std::to_string(
        maxValue <= std::numeric_limits<std::uint16_t>::max() ? 16
        : maxValue <= std::numeric_limits<std::uint32_t>::max() ? 32
        : 64);
    def.doc = doc;
    def.derived = true;
    def.get = std::move(get);
    def.set = [set = std::move(set), maxValue](const std::string &text) {
        std::uint64_t v = 0;
        if (!parseParamU64(text, v) || v > maxValue)
            return false;
        return set(v);
    };
    onParam(std::move(def));
}

void
ParamVisitor::pushGroup(const std::string &group)
{
    prefix += group + ".";
}

void
ParamVisitor::popGroup()
{
    VPR_ASSERT(!prefix.empty(), "popGroup without pushGroup");
    std::size_t dot = prefix.rfind('.', prefix.size() - 2);
    prefix.resize(dot == std::string::npos ? 0 : dot + 1);
}

std::string
ParamVisitor::prefixed(const std::string &name) const
{
    return prefix + name;
}

ConfigRegistry::ConfigRegistry(SimConfig &config)
{
    config.visitParams(*this);
}

void
ConfigRegistry::onParam(ParamDef def)
{
    VPR_ASSERT(index.find(def.name) == index.end(),
               "duplicate parameter name '", def.name, "'");
    index.emplace(def.name, defs.size());
    defs.push_back(std::move(def));
}

const ParamDef *
ConfigRegistry::find(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? nullptr : &defs[it->second];
}

void
ConfigRegistry::set(const std::string &name, const std::string &value)
{
    const ParamDef *def = find(name);
    if (!def)
        VPR_FATAL("unknown parameter '", name,
                  "' (run --help-params for the full list)");
    if (!def->set(value))
        VPR_FATAL("bad value '", value, "' for parameter '", name,
                  "' of type ", def->type);
}

std::string
ConfigRegistry::get(const std::string &name) const
{
    const ParamDef *def = find(name);
    if (!def)
        VPR_FATAL("unknown parameter '", name,
                  "' (run --help-params for the full list)");
    return def->get();
}

namespace
{

void
applyTo(ConfigRegistry &registry, const std::string &assignment)
{
    std::size_t eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0)
        VPR_FATAL("malformed assignment '", assignment,
                  "' (expected key=value)");
    registry.set(assignment.substr(0, eq), assignment.substr(eq + 1));
}

} // namespace

void
applyAssignment(SimConfig &config, const std::string &assignment)
{
    ConfigRegistry registry(config);
    applyTo(registry, assignment);
}

void
applyAssignments(SimConfig &config,
                 const std::vector<std::string> &assignments)
{
    // One registry for the whole list: building one costs ~40
    // ParamDefs' worth of names, docs and closures.
    if (assignments.empty())
        return;
    ConfigRegistry registry(config);
    for (const std::string &a : assignments)
        applyTo(registry, a);
}

bool
matchArg(const char *arg, const char *key, const char **value)
{
    std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') {
        *value = arg + n + 1;
        return true;
    }
    return false;
}

bool
parseConfigArg(int argc, char **argv, int &i, ConfigCliArgs &args)
{
    const char *arg = argv[i];
    const char *v = nullptr;
    if (matchArg(arg, "--set", &v)) {
        args.assignments.push_back(v);
    } else if (std::strcmp(arg, "--set") == 0 && i + 1 < argc) {
        args.assignments.push_back(argv[++i]);
    } else if (matchArg(arg, "--config", &v)) {
        // applyConfigCli reads an empty path as "no --config".
        if (*v == '\0')
            VPR_FATAL("empty --config path (want --config=<file.json>)");
        args.configPath = v;
    } else if (std::strcmp(arg, "--dump-config") == 0) {
        args.dumpConfig = true;
    } else if (std::strcmp(arg, "--sampling") == 0) {
        args.assignments.push_back("sim.sampling.enable=1");
    } else {
        return false;
    }
    return true;
}

void
applyConfigCli(SimConfig &config, const ConfigCliArgs &args)
{
    if (!args.configPath.empty())
        loadConfigFile(config, args.configPath);
    applyAssignments(config, args.assignments);
}

void
dumpConfig(std::ostream &os, const SimConfig &config)
{
    SimConfig copy = config;
    ConfigRegistry registry(copy);
    os << "{\n";
    bool first = true;
    for (const ParamDef &def : registry.params()) {
        // Derived params serialize through their underlying values.
        if (def.derived)
            continue;
        os << (first ? "" : ",\n") << "  \"" << def.name << "\": \""
           << def.get() << "\"";
        first = false;
    }
    os << "\n}\n";
}

void
loadConfig(SimConfig &config, std::istream &is, const std::string &name)
{
    std::ostringstream text;
    text << is.rdbuf();
    ConfigRegistry registry(config);
    for (const auto &[key, values] :
         parseFlatJson(text.str(), "in " + name, /*allowArrays=*/false))
        registry.set(key, values[0]);
}

void
loadConfigFile(SimConfig &config, const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        VPR_FATAL("cannot open config file '", path, "'");
    loadConfig(config, is, path);
}

std::vector<std::pair<std::string, std::string>>
configProvenance(const SimConfig &config)
{
    // Building a ConfigRegistry allocates ~40 ParamDefs' worth of
    // names, docs, and accessor closures — a fixed cost that sweeps
    // used to pay two or three times per grid cell. Keep one registry
    // per thread, permanently bound to a scratch config, and copy each
    // caller's config into that scratch: the accessor closures capture
    // fields of the scratch object, so they read the new values with
    // no rebinding. Thread-local because grid cells run on workers.
    static thread_local SimConfig scratch;
    static thread_local ConfigRegistry registry(scratch);
    scratch = config;
    std::vector<std::pair<std::string, std::string>> out;
    for (const ParamDef &def : registry.params())
        if (!def.derived)
            out.emplace_back(def.name, def.get());
    return out;
}

std::vector<ParamInfo>
paramReference()
{
    SimConfig defaults;
    ConfigRegistry registry(defaults);
    std::vector<ParamInfo> out;
    for (const ParamDef &def : registry.params()) {
        ParamInfo info;
        info.name = def.name;
        info.type = def.type;
        info.doc = def.doc;
        info.defaultText = def.get();
        info.derived = def.derived;
        out.push_back(std::move(info));
    }
    return out;
}

void
printParamHelp(std::ostream &os)
{
    const std::vector<ParamInfo> reference = paramReference();
    std::size_t nameWidth = 0, typeWidth = 0, defWidth = 0;
    for (const ParamInfo &p : reference) {
        nameWidth = std::max(nameWidth, p.name.size());
        typeWidth = std::max(typeWidth, p.type.size());
        defWidth = std::max(defWidth, p.defaultText.size());
    }

    auto printTable = [&](bool derived) {
        for (const ParamInfo &p : reference) {
            if (p.derived != derived)
                continue;
            os << "  " << std::left << std::setw(static_cast<int>(nameWidth))
               << p.name << "  " << std::setw(static_cast<int>(typeWidth))
               << p.type << "  " << std::setw(static_cast<int>(defWidth))
               << p.defaultText << "  " << p.doc << "\n";
        }
    };

    os << "Configuration parameters (set with --set <name>=<value>, "
          "sweep with --sweep <name>=<v1,v2,...>;\n"
          "see README \"Configuration & sweeps\"). Every parameter below "
          "is embedded as\ncfg.<name> provenance in exported result "
          "records.\n\n";
    printTable(false);
    os << "\nConvenience parameters (write through to the parameters "
          "above; settable and sweepable\nbut never exported — records "
          "carry the underlying values):\n\n";
    printTable(true);
}

} // namespace vpr
