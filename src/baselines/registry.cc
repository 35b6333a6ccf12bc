#include "baselines/registry.h"

#include <mutex>

#include "baselines/lut.h"
#include "baselines/two_surrogate.h"
#include "core/surrogate.h"

namespace hwpr::baselines
{

void
registerBaselineLoaders()
{
    static std::once_flag flag;
    std::call_once(flag, [] {
        for (const TwoSurrogateMethod *method :
             {&kBrpNasMethod, &kGatesMethod})
            core::registerSurrogateLoader(
                method->kind,
                [method](const std::string &path)
                    -> std::unique_ptr<core::Surrogate> {
                    return TwoSurrogateBaseline::load(path, *method);
                });
        core::registerSurrogateLoader(
            "lut",
            [](const std::string &path) -> std::unique_ptr<core::Surrogate> {
                return LatencyLut::load(path);
            });
    });
}

} // namespace hwpr::baselines
