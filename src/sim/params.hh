/**
 * @file
 * Reflective configuration-parameter API.
 *
 * Every config struct of the simulator (SimConfig, CoreConfig,
 * RenameConfig, FetchConfig, FuPoolConfig, CacheConfig) exposes its
 * fields as typed, documented parameters with stable dotted names
 * ("core.iq_size", "core.cache.miss_penalty", ...) through a
 * visitParams(ParamVisitor &) method — the configuration mirror of the
 * visitStats pattern the stats tree uses. On top of the visitor:
 *
 *  - ConfigRegistry binds the whole parameter tree of one SimConfig so
 *    any parameter can be read or set by dotted name ("--set key=value"
 *    in every binary);
 *  - dumpConfig/loadConfig serialize a full configuration as one
 *    dotted-key JSON document that round-trips byte-exactly
 *    ("--dump-config" / "--config=file.json");
 *  - configProvenance enumerates the (name, value) pairs of a config —
 *    what results_io embeds in every exported record ("seed" included
 *    for reproducibility). Every parameter describes the simulated
 *    run; how a grid is run (worker count, result-cache directory) is
 *    a driver flag, never a parameter;
 *  - paramReference/printParamHelp generate the parameter reference
 *    ("--help-params", checked in as docs/params.txt).
 *
 * A parameter is *derived* when setting it writes through to several
 * underlying parameters (e.g. "core.rename.regfile_size" applies the
 * paper's register-file sizing rule). Derived parameters are settable
 * and sweepable like any other but excluded from dumps and provenance,
 * which only ever contain the underlying values.
 */

#ifndef VPR_SIM_PARAMS_HH
#define VPR_SIM_PARAMS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vpr
{

struct SimConfig;

/** Strictly parse an unsigned decimal integer (whole string, no sign);
 *  false on malformed input or overflow. */
bool parseParamU64(const std::string &text, std::uint64_t &out);

/** One reflected parameter: metadata plus text accessors bound to a
 *  concrete config instance's field. */
struct ParamDef
{
    enum class Kind : std::uint8_t { UInt, Bool, Enum };

    std::string name;  ///< stable dotted name
    std::string type;  ///< "u16", "u32", "u64", "bool", "enum{a|b}"
    std::string doc;   ///< one-line description
    Kind kind = Kind::UInt;
    /** UInt params: largest storable value (the field's width). */
    std::uint64_t maxValue = 0;
    /** Enum params: the canonical value names (set() also accepts the
     *  registered aliases; get() always returns a canonical name). */
    std::vector<std::string> enumNames;
    /** Writes through to other parameters; excluded from dumps and
     *  provenance (only underlying values are serialized). */
    bool derived = false;

    std::function<std::string()> get;  ///< current value as exact text
    /** Parse and assign; false on malformed/out-of-range input. */
    std::function<bool(const std::string &)> set;
};

/**
 * Visitor over a config tree's parameters. visitParams implementations
 * call the typed registration helpers; concrete visitors receive one
 * fully bound ParamDef per parameter via onParam.
 */
class ParamVisitor
{
  public:
    virtual ~ParamVisitor() = default;

    /** Register an unsigned integral field. */
    template <typename T>
    void
    uintParam(const std::string &name, T &field, const std::string &doc)
    {
        static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                      "uintParam takes unsigned integral fields");
        ParamDef def;
        def.name = prefixed(name);
        def.kind = ParamDef::Kind::UInt;
        def.maxValue = std::numeric_limits<T>::max();
        def.type = "u" + std::to_string(sizeof(T) * 8);
        def.doc = doc;
        T *field_p = &field;
        def.get = [field_p] { return std::to_string(*field_p); };
        def.set = [field_p](const std::string &text) {
            std::uint64_t v = 0;
            if (!parseParamU64(text, v) ||
                v > std::numeric_limits<T>::max())
                return false;
            *field_p = static_cast<T>(v);
            return true;
        };
        onParam(std::move(def));
    }

    /** Register a boolean field ("0"/"1"; set also takes true/false). */
    void boolParam(const std::string &name, bool &field,
                   const std::string &doc);

    /**
     * Register an enum field. @p names maps text to values; the first
     * entry for a value is its canonical name (used by get()), further
     * entries for the same value are accepted aliases (e.g. "conv" for
     * "conventional").
     */
    template <typename E>
    void
    enumParam(const std::string &name, E &field,
              std::vector<std::pair<const char *, E>> names,
              const std::string &doc)
    {
        static_assert(std::is_enum_v<E>, "enumParam takes enum fields");
        ParamDef def;
        def.name = prefixed(name);
        def.kind = ParamDef::Kind::Enum;
        def.doc = doc;
        std::vector<E> seen;
        for (const auto &[text, value] : names) {
            bool dup = false;
            for (E s : seen)
                dup = dup || s == value;
            if (!dup) {
                seen.push_back(value);
                def.enumNames.push_back(text);
            }
        }
        def.type = "enum{";
        for (std::size_t i = 0; i < def.enumNames.size(); ++i)
            def.type += (i ? "|" : "") + def.enumNames[i];
        def.type += "}";
        E *field_p = &field;
        def.get = [field_p, names] {
            for (const auto &[text, value] : names)
                if (value == *field_p)
                    return std::string(text);
            return std::string("?");
        };
        def.set = [field_p, names](const std::string &text) {
            for (const auto &[candidate, value] : names) {
                if (text == candidate) {
                    *field_p = value;
                    return true;
                }
            }
            return false;
        };
        onParam(std::move(def));
    }

    /** Register a derived (write-through) numeric parameter. @p get
     *  returns the representative underlying value; @p set applies the
     *  sizing rule. */
    void derivedUInt(const std::string &name, const std::string &doc,
                     std::uint64_t maxValue,
                     std::function<std::string()> get,
                     std::function<bool(std::uint64_t)> set);

    /** Scoped dotted prefix: pushGroup("core") makes subsequent names
     *  "core.<name>" until the matching popGroup. @{ */
    void pushGroup(const std::string &group);
    void popGroup();
    /** @} */

  protected:
    /** Receive one bound parameter. */
    virtual void onParam(ParamDef def) = 0;

  private:
    std::string prefixed(const std::string &name) const;

    std::string prefix;
};

/**
 * The dotted-name registry over one SimConfig instance: every parameter
 * of the tree, addressable for get/set by name. The registry borrows
 * the config — it must not outlive it.
 */
class ConfigRegistry : public ParamVisitor
{
  public:
    explicit ConfigRegistry(SimConfig &config);

    /** Every parameter, in visitation (= documentation) order. */
    const std::vector<ParamDef> &params() const { return defs; }

    /** Lookup by dotted name; nullptr when unknown. */
    const ParamDef *find(const std::string &name) const;

    /** Set by dotted name; fatal()s on unknown name or bad value. */
    void set(const std::string &name, const std::string &value);

    /** Current value as round-trip-exact text; fatal()s on unknown. */
    std::string get(const std::string &name) const;

  private:
    void onParam(ParamDef def) override;

    std::vector<ParamDef> defs;
    std::unordered_map<std::string, std::size_t> index;
};

/** Apply one "key=value" assignment (the --set argument form) to
 *  @p config; fatal()s on a malformed assignment, unknown key, or bad
 *  value. */
void applyAssignment(SimConfig &config, const std::string &assignment);

/** Apply a list of assignments in order. */
void applyAssignments(SimConfig &config,
                      const std::vector<std::string> &assignments);

/**
 * The generic config-related command-line arguments every binary
 * understands, collected by parseConfigArg and applied by
 * applyConfigCli with one shared contract: the --config file loads
 * first, then the --set assignments in command-line order (--set wins).
 */
struct ConfigCliArgs
{
    std::string configPath;              ///< --config=<file.json>
    /** --set <k>=<v> and the flags that alias one, in order. */
    std::vector<std::string> assignments;
    bool dumpConfig = false;             ///< --dump-config
};

/** Match a "<key>=<value>" argument: when @p arg is @p key followed
 *  by '=', point @p value just past the '=' and return true. Every
 *  argv loop of the tools reads its valued flags through it. */
bool matchArg(const char *arg, const char *key, const char **value);

/** Recognize one of --set <k>=<v>, --set=<k>=<v>, --config=<file>,
 *  --dump-config or --sampling (= --set sim.sampling.enable=1) at
 *  argv[i]; consumes a second argv slot for the two-token --set form.
 *  An empty --config= path is an Error naming --config.
 *  @return true when the argument was taken. */
bool parseConfigArg(int argc, char **argv, int &i, ConfigCliArgs &args);

/** Apply @p args to @p config: config file first, then assignments. */
void applyConfigCli(SimConfig &config, const ConfigCliArgs &args);

/**
 * Write @p config as a JSON document of dotted keys to string values,
 * one parameter per line in registry order. Derived parameters are
 * skipped (their underlying values carry the information).
 * loadConfig inverts it: dump -> load -> dump is byte-identical.
 */
void dumpConfig(std::ostream &os, const SimConfig &config);

/** Parse a config document — any flat JSON object of string values,
 *  e.g. a dumpConfig dump — and apply every assignment in document
 *  order; @p name is used in error messages. fatal()s on malformed
 *  JSON, a value that is not a single string, or a bad key or value. */
void loadConfig(SimConfig &config, std::istream &is,
                const std::string &name);

/** loadConfig from a file path; fatal()s if unreadable. */
void loadConfigFile(SimConfig &config, const std::string &path);

/**
 * The provenance (dotted name, exact value text) pairs of @p config,
 * in registry order: every parameter but the derived ones. This is
 * what results_io embeds in every exported record.
 */
std::vector<std::pair<std::string, std::string>>
configProvenance(const SimConfig &config);

/** Static description of one parameter for reference docs. */
struct ParamInfo
{
    std::string name;
    std::string type;
    std::string doc;
    std::string defaultText;  ///< value in a default-constructed SimConfig
    bool derived = false;
};

/** Every parameter with its default value (from SimConfig{}), in
 *  registry order. */
std::vector<ParamInfo> paramReference();

/** Print the generated parameter reference (--help-params; the
 *  checked-in docs/params.txt is this output verbatim). */
void printParamHelp(std::ostream &os);

} // namespace vpr

#endif // VPR_SIM_PARAMS_HH
