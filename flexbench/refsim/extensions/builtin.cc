#include "extensions/builtin.h"

#include "extensions/registry.h"

namespace flexcore {

void
registerBuiltinExtensions(ExtensionRegistry &registry)
{
    // Enum order; ExtensionRegistry::all() relies on it being sorted.
    registerUmcExtension(registry);
    registerDiftExtension(registry);
    registerBcExtension(registry);
    registerSecExtension(registry);
    registerProfExtension(registry);
    registerMemProtExtension(registry);
    registerWatchExtension(registry);
    registerRefCountExtension(registry);
    registerSoftwareModels(registry);
}

}  // namespace flexcore
