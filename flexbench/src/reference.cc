// Compiled with the frozen simulator (flexbench/refsim/) and its
// namespace renamed; see reference.h.

#include "reference.h"

#include <memory>

#include "assembler/assembler.h"
#include "sim/system.h"

namespace fb {

unsigned long long
runReference()
{
    using namespace flexcore;
    static const std::vector<std::shared_ptr<const Program>> programs = [] {
        std::vector<std::shared_ptr<const Program>> out;
        for (const std::string &source : referencePrograms())
            out.push_back(std::make_shared<const Program>(
                Assembler::assembleOrDie(source)));
        return out;
    }();
    unsigned long long cycles = 0;
    for (const std::shared_ptr<const Program> &program : programs) {
        for (bool monitored : {false, true}) {
            SystemConfig config;
            if (monitored) {
                config.monitor = MonitorKind::kDift;
                config.mode = ImplMode::kFlexFabric;
            }
            System system(config);
            system.load(*program);
            cycles += system.run().cycles;
        }
    }
    return cycles;
}

}  // namespace fb
