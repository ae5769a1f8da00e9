#include "extensions/registry.h"

#include <algorithm>
#include <cctype>

#include "common/log.h"
#include "extensions/builtin.h"
#include "monitors/monitor.h"
#include "monitors/software.h"

namespace flexcore {

namespace {

bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

}  // namespace

void
ExtensionDescriptor::forwardClasses(
    std::initializer_list<InstrType> types, ForwardPolicy policy)
{
    for (InstrType type : types)
        forward.push_back({type, policy});
}

const ExtensionRegistry &
ExtensionRegistry::instance()
{
    static const ExtensionRegistry *global = [] {
        auto *registry = new ExtensionRegistry;
        registerBuiltinExtensions(*registry);
        return registry;
    }();
    return *global;
}

void
ExtensionRegistry::add(ExtensionDescriptor desc)
{
    if (desc.kind == MonitorKind::kNone || desc.name.empty() ||
        !desc.make || !desc.build_fabric) {
        FLEX_FATAL("incomplete extension descriptor '", desc.name, "'");
    }
    for (const ExtensionDescriptor &existing : descriptors_) {
        if (existing.kind == desc.kind ||
            equalsIgnoreCase(existing.name, desc.name)) {
            FLEX_FATAL("duplicate extension registration '", desc.name,
                       "'");
        }
    }
    descriptors_.push_back(std::move(desc));
    std::sort(descriptors_.begin(), descriptors_.end(),
              [](const ExtensionDescriptor &a,
                 const ExtensionDescriptor &b) {
                  return static_cast<u8>(a.kind) <
                         static_cast<u8>(b.kind);
              });
}

void
ExtensionRegistry::addSoftwareModel(MonitorKind kind,
                                    const SoftwareMonitor *(*make)())
{
    if (!find(kind))
        FLEX_FATAL("software model for unregistered extension kind ",
                   static_cast<int>(kind));
    for (const SoftwareEntry &entry : software_) {
        if (entry.kind == kind)
            FLEX_FATAL("duplicate software model registration");
    }
    software_.push_back({kind, make});
}

const ExtensionDescriptor *
ExtensionRegistry::find(MonitorKind kind) const
{
    for (const ExtensionDescriptor &desc : descriptors_) {
        if (desc.kind == kind)
            return &desc;
    }
    return nullptr;
}

const ExtensionDescriptor *
ExtensionRegistry::find(std::string_view name) const
{
    for (const ExtensionDescriptor &desc : descriptors_) {
        if (equalsIgnoreCase(desc.name, name))
            return &desc;
        for (std::string_view alias : desc.aliases) {
            if (equalsIgnoreCase(alias, name))
                return &desc;
        }
    }
    return nullptr;
}

std::vector<MonitorKind>
ExtensionRegistry::paperGrid() const
{
    std::vector<MonitorKind> kinds;
    for (const ExtensionDescriptor &desc : descriptors_) {
        if (desc.paper_grid)
            kinds.push_back(desc.kind);
    }
    return kinds;
}

const SoftwareMonitor *
ExtensionRegistry::softwareModel(MonitorKind kind) const
{
    for (const SoftwareEntry &entry : software_) {
        if (entry.kind == kind)
            return entry.make();
    }
    return nullptr;
}

std::vector<MonitorKind>
ExtensionRegistry::softwareModelKinds() const
{
    std::vector<MonitorKind> kinds;
    for (const SoftwareEntry &entry : software_)
        kinds.push_back(entry.kind);
    std::sort(kinds.begin(), kinds.end(),
              [](MonitorKind a, MonitorKind b) {
                  return static_cast<u8>(a) < static_cast<u8>(b);
              });
    return kinds;
}

void
programCfgr(const ExtensionDescriptor &desc, Cfgr *cfgr)
{
    cfgr->setAll(ForwardPolicy::kIgnore);
    for (const ForwardRule &rule : desc.forward)
        cfgr->setPolicy(rule.type, rule.policy);
}

bool
programCfgr(MonitorKind kind, Cfgr *cfgr)
{
    const ExtensionDescriptor *desc =
        ExtensionRegistry::instance().find(kind);
    if (!desc)
        return false;
    programCfgr(*desc, cfgr);
    return true;
}

std::string
knownMonitorNames()
{
    std::string names;
    for (const ExtensionDescriptor &desc :
         ExtensionRegistry::instance().all()) {
        if (!names.empty())
            names += ", ";
        names += desc.name;
    }
    return names;
}

std::string
listMonitorsText()
{
    const ExtensionRegistry &registry = ExtensionRegistry::instance();
    std::string out = "registered monitoring extensions:\n";
    auto row = [&out](std::string_view name, std::string aliases,
                      std::string depth, std::string tags,
                      std::string period, std::string_view doc) {
        out += "  ";
        out += name;
        out.append(name.size() < 10 ? 10 - name.size() : 1, ' ');
        auto col = [&out](const std::string &text, size_t width) {
            out += text;
            out.append(text.size() < width ? width - text.size() : 1,
                       ' ');
        };
        col(depth, 7);
        col(tags, 6);
        col(period, 8);
        col(aliases, 10);
        out += doc;
        out += '\n';
    };
    row("name", "aliases", "depth", "tags", "period", "description");
    for (const ExtensionDescriptor &desc : registry.all()) {
        std::string aliases;
        for (std::string_view alias : desc.aliases) {
            if (!aliases.empty())
                aliases += ",";
            aliases += alias;
        }
        if (aliases.empty())
            aliases = "-";
        row(desc.name, aliases, std::to_string(desc.pipeline_depth),
            std::to_string(desc.tag_bits_per_word),
            std::to_string(desc.default_flex_period), desc.doc);
    }
    std::string sw_names;
    for (MonitorKind kind : registry.softwareModelKinds()) {
        if (!sw_names.empty())
            sw_names += ", ";
        sw_names += registry.find(kind)->name;
    }
    std::string sw_doc = "inline software-instrumentation models "
                         "(--mode software) of: " +
                         sw_names;
    row("software", "-", "-", "-", "-", sw_doc);
    return out;
}

}  // namespace flexcore
