/**
 * @file
 * The unified extension registry: one ExtensionDescriptor per
 * monitoring extension is the single source of truth for everything
 * the rest of the system derives per extension — CLI names and
 * aliases, the monitor factory, fabric pipeline depth, meta-data tag
 * width, the default fabric clock divisor, the CFGR forwarding-class
 * spec, the Table III synthesis inventories, and fault-campaign grid
 * membership. Each extension registers itself from its own source
 * file in src/monitors/, so adding a new extension touches exactly
 * one file (plus the bootstrap list in extensions/builtin.cc). See
 * docs/extensions.md.
 *
 * MonitorKind stays the stable in-memory handle; this registry is the
 * only place allowed to bridge between the enum and per-extension
 * data. Per-extension switch statements anywhere else are a bug.
 */

#ifndef FLEXCORE_EXTENSIONS_REGISTRY_H_
#define FLEXCORE_EXTENSIONS_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "flexcore/cfgr.h"
#include "sim/config.h"
#include "synth/resources.h"

namespace flexcore {

class Monitor;
class SoftwareMonitor;

/** Options a monitor factory may honor (from SystemConfig). */
struct MonitorOptions
{
    /** DIFT taint-tag width: 1 (default) or 4 (multi-source labels). */
    unsigned dift_tag_bits = 1;
};

/** One CFGR programming step: forward @p type under @p policy. */
struct ForwardRule
{
    InstrType type;
    ForwardPolicy policy;
};

/**
 * Everything one monitoring extension declares about itself. The
 * registered descriptor drives the simulator (factory, default
 * fabric period, CFGR programming), the synthesis model (pipeline
 * depth, tapped groups, inventory builders), and every tool (names,
 * aliases, docs, campaign grids).
 */
struct ExtensionDescriptor
{
    MonitorKind kind = MonitorKind::kNone;

    /** Canonical lowercase name; the one name in all JSON output. */
    std::string_view name;
    /** Accepted spellings besides @ref name (parse-only). */
    std::vector<std::string_view> aliases;
    /** One-line description (--list-monitors, docs). */
    std::string_view doc;

    /** Construct a fresh monitor instance. */
    std::unique_ptr<Monitor> (*make)(const MonitorOptions &options) =
        nullptr;

    /** Fabric pipeline depth in fabric cycles (§IV: 3 to 6 stages). */
    unsigned pipeline_depth = 0;
    /** Meta-data bits per data word of the default configuration
     * (0 = stateless, e.g. SEC). */
    unsigned tag_bits_per_word = 0;
    /** Default fabric clock divisor in kFlexFabric mode (§V-C). */
    u32 default_flex_period = 0;

    /**
     * Declarative CFGR forwarding spec: starting from all-ignore,
     * apply these rules in order. Replaces the per-monitor virtual
     * configureCfgr code of earlier revisions.
     */
    std::vector<ForwardRule> forward;

    /** Commit-stage signal groups tapped (Table II / Table III). */
    unsigned tapped_groups = 0;
    /**
     * Build the fabric (FPGA) inventory. The builder receives the
     * descriptor so structural facts stated there — most importantly
     * pipeline_depth, which sizes the pipeline-register stages — are
     * never restated. name/critical_levels/primitives are filled in;
     * the inventory name is derived from the canonical name.
     */
    void (*build_fabric)(const ExtensionDescriptor &desc,
                         Inventory *fabric) = nullptr;
    /** Build the extra blocks of the full-ASIC variant (optional). */
    void (*build_asic)(const ExtensionDescriptor &desc,
                       Inventory *asic) = nullptr;

    /**
     * Member of the paper's four-extension evaluation set: the
     * Table III synthesis report, the table4/fifo sweep grids, and
     * the default fault-coverage campaign all derive their extension
     * lists from this flag.
     */
    bool paper_grid = false;

    /** Append forwarding rules for @p types under one policy. */
    void forwardClasses(std::initializer_list<InstrType> types,
                        ForwardPolicy policy = ForwardPolicy::kAlways);
};

/**
 * Process-global table of registered extensions. Populated once, on
 * first use, from the per-monitor registration functions listed in
 * extensions/builtin.cc; thread-safe to read afterwards.
 */
class ExtensionRegistry
{
  public:
    /** The global registry (lazily built with all built-ins). */
    static const ExtensionRegistry &instance();

    /** Register one extension (fatal on duplicate kind or name). */
    void add(ExtensionDescriptor desc);

    /**
     * Register the software-instrumentation model of one registered
     * extension (--mode software). @p make returns a process-lifetime
     * singleton, matching the software monitor factories.
     */
    void addSoftwareModel(MonitorKind kind,
                          const SoftwareMonitor *(*make)());

    /** Descriptor for @p kind (null for kNone / unregistered). */
    const ExtensionDescriptor *find(MonitorKind kind) const;
    /** Case-insensitive lookup by canonical name or alias. */
    const ExtensionDescriptor *find(std::string_view name) const;

    /** All descriptors, sorted by MonitorKind value. */
    const std::vector<ExtensionDescriptor> &all() const
    {
        return descriptors_;
    }

    /** Kinds with paper_grid set, in registration (enum) order. */
    std::vector<MonitorKind> paperGrid() const;

    /** Software model for @p kind (null if none registered). */
    const SoftwareMonitor *softwareModel(MonitorKind kind) const;
    /** Kinds that have a software model, in enum order. */
    std::vector<MonitorKind> softwareModelKinds() const;

  private:
    struct SoftwareEntry
    {
        MonitorKind kind;
        const SoftwareMonitor *(*make)();
    };

    std::vector<ExtensionDescriptor> descriptors_;
    std::vector<SoftwareEntry> software_;
};

/** Program @p cfgr from the descriptor's forwarding spec. */
void programCfgr(const ExtensionDescriptor &desc, Cfgr *cfgr);

/**
 * Program @p cfgr for @p kind's registered forwarding spec. Returns
 * false (cfgr untouched) for kNone or an unregistered kind.
 */
bool programCfgr(MonitorKind kind, Cfgr *cfgr);

/** Comma-separated canonical names ("umc, dift, ...") for help text. */
std::string knownMonitorNames();

/**
 * Human-readable table of every registered extension (name, aliases,
 * pipeline depth, tag width, default period, doc) plus the software
 * instrumentation models — the --list-monitors output of the tools.
 */
std::string listMonitorsText();

}  // namespace flexcore

#endif  // FLEXCORE_EXTENSIONS_REGISTRY_H_
