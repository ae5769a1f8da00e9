#include "sim/config.h"

#include <cctype>

#include "common/log.h"
#include "extensions/registry.h"

namespace flexcore {

std::string_view
monitorKindName(MonitorKind kind)
{
    if (kind == MonitorKind::kNone)
        return "none";
    const ExtensionDescriptor *desc =
        ExtensionRegistry::instance().find(kind);
    return desc ? desc->name : "?";
}

bool
parseMonitorKind(std::string_view name, MonitorKind *kind)
{
    auto isNone = [](std::string_view text) {
        if (text.size() != 4)
            return false;
        constexpr std::string_view kNoneName = "none";
        for (size_t i = 0; i < text.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(text[i])) !=
                kNoneName[i])
                return false;
        }
        return true;
    };
    if (isNone(name)) {
        *kind = MonitorKind::kNone;
        return true;
    }
    const ExtensionDescriptor *desc =
        ExtensionRegistry::instance().find(name);
    if (!desc)
        return false;
    *kind = desc->kind;
    return true;
}

std::string_view
implModeName(ImplMode mode)
{
    switch (mode) {
      case ImplMode::kBaseline: return "baseline";
      case ImplMode::kAsic: return "asic";
      case ImplMode::kFlexFabric: return "flexcore";
      case ImplMode::kSoftware: return "software";
    }
    return "?";
}

std::string_view
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::kInterp: return "interp";
      case ExecMode::kThreaded: return "threaded";
    }
    return "?";
}

bool
parseExecMode(std::string_view name, ExecMode *mode)
{
    auto matches = [&name](std::string_view want) {
        if (name.size() != want.size())
            return false;
        for (size_t i = 0; i < name.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(name[i])) !=
                want[i])
                return false;
        }
        return true;
    };
    if (matches("interp")) {
        *mode = ExecMode::kInterp;
        return true;
    }
    if (matches("threaded")) {
        *mode = ExecMode::kThreaded;
        return true;
    }
    return false;
}

std::string_view
fabricSharingName(FabricSharing sharing)
{
    switch (sharing) {
      case FabricSharing::kPerCore: return "per_core";
      case FabricSharing::kShared: return "shared";
    }
    return "?";
}

bool
parseFabricSharing(std::string_view name, FabricSharing *sharing)
{
    auto matches = [&name](std::string_view want) {
        if (name.size() != want.size())
            return false;
        for (size_t i = 0; i < name.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(name[i])) !=
                want[i])
                return false;
        }
        return true;
    };
    if (matches("per_core")) {
        *sharing = FabricSharing::kPerCore;
        return true;
    }
    if (matches("shared")) {
        *sharing = FabricSharing::kShared;
        return true;
    }
    return false;
}

bool
parseImplMode(std::string_view name, ImplMode *mode)
{
    static constexpr ImplMode kAll[] = {
        ImplMode::kBaseline, ImplMode::kAsic, ImplMode::kFlexFabric,
        ImplMode::kSoftware};
    for (ImplMode candidate : kAll) {
        const std::string_view want = implModeName(candidate);
        if (name.size() != want.size())
            continue;
        bool match = true;
        for (size_t i = 0; i < name.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(name[i])) !=
                want[i]) {
                match = false;
                break;
            }
        }
        if (match) {
            *mode = candidate;
            return true;
        }
    }
    return false;
}

std::unique_ptr<Monitor>
makeMonitor(MonitorKind kind, unsigned dift_tag_bits)
{
    const ExtensionDescriptor *desc =
        ExtensionRegistry::instance().find(kind);
    if (!desc)
        return nullptr;
    MonitorOptions options;
    options.dift_tag_bits = dift_tag_bits;
    return desc->make(options);
}

u32
defaultFlexPeriod(MonitorKind kind)
{
    const ExtensionDescriptor *desc =
        ExtensionRegistry::instance().find(kind);
    return desc ? desc->default_flex_period : 2;
}

std::string_view
configErrorName(ConfigError::Code code)
{
    switch (code) {
      case ConfigError::Code::kNone: return "none";
      case ConfigError::Code::kMissingMonitor: return "missing_monitor";
      case ConfigError::Code::kMonitorOnBaseline:
        return "monitor_on_baseline";
      case ConfigError::Code::kBadDiftTagBits:
        return "bad_dift_tag_bits";
      case ConfigError::Code::kStrayFlexPeriod:
        return "stray_flex_period";
      case ConfigError::Code::kBadCycleLimit: return "bad_cycle_limit";
      case ConfigError::Code::kBadWatchdog: return "bad_watchdog";
      case ConfigError::Code::kBadFaultPlan: return "bad_fault_plan";
      case ConfigError::Code::kBadSampleWindow:
        return "bad_sample_window";
      case ConfigError::Code::kThreadedHistograms:
        return "threaded_histograms";
      case ConfigError::Code::kSamplingHistograms:
        return "sampling_histograms";
      case ConfigError::Code::kSamplingTrace: return "sampling_trace";
      case ConfigError::Code::kSamplingExecMode:
        return "sampling_exec_mode";
      case ConfigError::Code::kSamplingSoftware:
        return "sampling_software";
      case ConfigError::Code::kBadCores: return "bad_cores";
      case ConfigError::Code::kBadFabricSharing:
        return "bad_fabric_sharing";
      case ConfigError::Code::kBadRequest: return "bad_request";
      case ConfigError::Code::kBadVersion: return "bad_version";
      case ConfigError::Code::kBadMonitor: return "bad_monitor";
      case ConfigError::Code::kBadImplMode: return "bad_impl_mode";
      case ConfigError::Code::kBadExecMode: return "bad_exec_mode";
      case ConfigError::Code::kBadWorkload: return "bad_workload";
      case ConfigError::Code::kBadSource: return "bad_source";
      case ConfigError::Code::kDeadlineExceeded:
        return "deadline_exceeded";
      case ConfigError::Code::kOverloaded: return "overloaded";
      case ConfigError::Code::kShuttingDown: return "shutting_down";
      case ConfigError::Code::kFrameTooLarge:
        return "frame_too_large";
    }
    return "?";
}

bool
parseConfigErrorName(std::string_view name, ConfigError::Code *code)
{
    static constexpr ConfigError::Code kAll[] = {
        ConfigError::Code::kNone,
        ConfigError::Code::kMissingMonitor,
        ConfigError::Code::kMonitorOnBaseline,
        ConfigError::Code::kBadDiftTagBits,
        ConfigError::Code::kStrayFlexPeriod,
        ConfigError::Code::kBadCycleLimit,
        ConfigError::Code::kBadWatchdog,
        ConfigError::Code::kBadFaultPlan,
        ConfigError::Code::kBadSampleWindow,
        ConfigError::Code::kThreadedHistograms,
        ConfigError::Code::kSamplingHistograms,
        ConfigError::Code::kSamplingTrace,
        ConfigError::Code::kSamplingExecMode,
        ConfigError::Code::kSamplingSoftware,
        ConfigError::Code::kBadCores,
        ConfigError::Code::kBadFabricSharing,
        ConfigError::Code::kBadRequest,
        ConfigError::Code::kBadVersion,
        ConfigError::Code::kBadMonitor,
        ConfigError::Code::kBadImplMode,
        ConfigError::Code::kBadExecMode,
        ConfigError::Code::kBadWorkload,
        ConfigError::Code::kBadSource,
        ConfigError::Code::kDeadlineExceeded,
        ConfigError::Code::kOverloaded,
        ConfigError::Code::kShuttingDown,
        ConfigError::Code::kFrameTooLarge,
    };
    for (ConfigError::Code candidate : kAll) {
        if (name == configErrorName(candidate)) {
            *code = candidate;
            return true;
        }
    }
    return false;
}

ConfigError
makeConfigError(ConfigError::Code code, std::string message)
{
    ConfigError error;
    error.code = code;
    error.message = std::move(message);
    return error;
}

namespace {

ConfigError
configError(ConfigError::Code code, std::string message)
{
    return makeConfigError(code, std::move(message));
}

}  // namespace

ConfigError
SystemConfig::finalize()
{
    if (finalized_)
        return {};

    // Validation: reject contradictory configurations instead of
    // silently fixing them up — a forgotten --mode or a stray --period
    // should fail loudly, not quietly change the experiment.
    if (dift_tag_bits != 1 && dift_tag_bits != 4) {
        return configError(
            ConfigError::Code::kBadDiftTagBits,
            "dift_tag_bits must be 1 or 4, not " +
                std::to_string(dift_tag_bits));
    }
    if (flex_period != 0 && mode != ImplMode::kFlexFabric) {
        return configError(
            ConfigError::Code::kStrayFlexPeriod,
            std::string("flex_period is only meaningful in flexcore "
                        "mode (mode is ") +
                std::string(implModeName(mode)) + ")");
    }
    if (mode == ImplMode::kBaseline && monitor != MonitorKind::kNone) {
        return configError(
            ConfigError::Code::kMonitorOnBaseline,
            std::string("baseline mode has no monitor hardware; drop "
                        "the monitor or pick asic/flexcore/software "
                        "mode (monitor is ") +
                std::string(monitorKindName(monitor)) + ")");
    }
    if ((mode == ImplMode::kAsic || mode == ImplMode::kFlexFabric) &&
        monitor == MonitorKind::kNone) {
        return configError(ConfigError::Code::kMissingMonitor,
                           "ASIC/FlexCore mode requires a monitor kind");
    }
    if (max_cycles == 0) {
        return configError(ConfigError::Code::kBadCycleLimit,
                           "max_cycles must be non-zero");
    }
    if (watchdog_commits != 0 && watchdog_commits >= max_cycles) {
        return configError(
            ConfigError::Code::kBadWatchdog,
            "watchdog_commits (" + std::to_string(watchdog_commits) +
                ") must be below max_cycles (" +
                std::to_string(max_cycles) +
                ") or the watchdog can never fire first");
    }
    if (std::string why = validateFaultPlan(faults); !why.empty()) {
        return configError(ConfigError::Code::kBadFaultPlan,
                           "invalid fault plan: " + why);
    }
    if (exec_mode == ExecMode::kThreaded && histograms) {
        return configError(
            ConfigError::Code::kThreadedHistograms,
            "threaded dispatch skips per-cycle bookkeeping and cannot "
            "populate per-cycle histograms; use --exec-mode interp for "
            "histogram runs");
    }
    // Note trace capture (trace_events) is legal under kThreaded: a
    // run with a trace sink attached falls back from burst dispatch to
    // the per-cycle interpreter loop (System::run), which produces a
    // byte-identical trace — and the streaming binary trace needs no
    // flag at all (tools attach a TraceStreamWriter directly).
    if (sample_period != 0 || sample_window != 0) {
        if (sample_window == 0 || sample_period == 0 ||
            sample_window > sample_period) {
            return configError(
                ConfigError::Code::kBadSampleWindow,
                "sampled timing needs 0 < sample_window (" +
                    std::to_string(sample_window) +
                    ") <= sample_period (" +
                    std::to_string(sample_period) + ")");
        }
        if (histograms) {
            return configError(
                ConfigError::Code::kSamplingHistograms,
                "sampled timing skips cycle simulation between detailed "
                "windows and cannot populate per-cycle histograms");
        }
        if (trace_events) {
            return configError(
                ConfigError::Code::kSamplingTrace,
                "sampled timing cannot capture full trace-event files; "
                "drop --trace-json or the sampling flags");
        }
        if (exec_mode != ExecMode::kInterp) {
            return configError(
                ConfigError::Code::kSamplingExecMode,
                "sampled timing replaces the execution engine; leave "
                "--exec-mode at interp");
        }
        if (mode == ImplMode::kSoftware) {
            return configError(
                ConfigError::Code::kSamplingSoftware,
                "sampled timing cannot warm through software "
                "instrumentation (the expansion is timing-driven); use "
                "asic/flexcore mode or drop the sampling flags");
        }
    }
    if (num_cores == 0 || num_cores > kMaxCores) {
        return configError(
            ConfigError::Code::kBadCores,
            "num_cores must be 1.." + std::to_string(kMaxCores) +
                ", not " + std::to_string(num_cores));
    }
    if (num_cores > 1) {
        // Multi-core runs are interpreter-only: every engine that
        // bypasses the per-cycle loop (burst dispatch, sampled
        // warming, software expansion) reasons about exactly one core,
        // and the buffering trace sink has no core column.
        if (exec_mode == ExecMode::kThreaded) {
            return configError(
                ConfigError::Code::kBadCores,
                "multi-core runs are interpreter-only; drop "
                "--exec-mode threaded or run with --cores 1");
        }
        if (sample_period != 0 || sample_window != 0) {
            return configError(
                ConfigError::Code::kBadCores,
                "sampled timing models exactly one core; drop the "
                "sampling flags or run with --cores 1");
        }
        if (mode == ImplMode::kSoftware) {
            return configError(
                ConfigError::Code::kBadCores,
                "software instrumentation models exactly one core; "
                "use asic/flexcore mode or run with --cores 1");
        }
        if (trace_events) {
            return configError(
                ConfigError::Code::kBadCores,
                "trace-event capture has no core column; use the "
                "binary --trace-out stream or run with --cores 1");
        }
    }
    for (const FaultSpec &spec : faults.specs) {
        if (spec.core >= num_cores) {
            return configError(
                ConfigError::Code::kBadFaultPlan,
                "fault spec targets core " + std::to_string(spec.core) +
                    " but the system has " + std::to_string(num_cores) +
                    (num_cores == 1 ? " core" : " cores"));
        }
    }

    if (mode == ImplMode::kAsic) {
        fabric.period = 1;
        iface.sync_cycles = 0;   // same clock domain, direct taps
    } else if (mode == ImplMode::kFlexFabric) {
        fabric.period =
            flex_period ? flex_period : defaultFlexPeriod(monitor);
        iface.sync_cycles = 1;
    }
    finalized_ = true;
    return {};
}

}  // namespace flexcore
