/**
 * @file
 * Registration entry points of the built-in extensions. Each function
 * lives in the extension's own source file under src/monitors/ and
 * registers that extension's complete ExtensionDescriptor; the
 * bootstrap list in builtin.cc calls them all exactly once before the
 * registry is first read. A static library would silently drop
 * initializer-based self-registration objects whose object files
 * nothing references, so registration is an explicit call instead.
 */

#ifndef FLEXCORE_EXTENSIONS_BUILTIN_H_
#define FLEXCORE_EXTENSIONS_BUILTIN_H_

namespace flexcore {

class ExtensionRegistry;

void registerUmcExtension(ExtensionRegistry &registry);
void registerDiftExtension(ExtensionRegistry &registry);
void registerBcExtension(ExtensionRegistry &registry);
void registerSecExtension(ExtensionRegistry &registry);
void registerProfExtension(ExtensionRegistry &registry);
void registerMemProtExtension(ExtensionRegistry &registry);
void registerWatchExtension(ExtensionRegistry &registry);
void registerRefCountExtension(ExtensionRegistry &registry);
/** Software-instrumentation models (--mode software) of the above. */
void registerSoftwareModels(ExtensionRegistry &registry);

/** Run every registration above against @p registry. */
void registerBuiltinExtensions(ExtensionRegistry &registry);

}  // namespace flexcore

#endif  // FLEXCORE_EXTENSIONS_BUILTIN_H_
