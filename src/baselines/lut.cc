#include "baselines/lut.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <sstream>

#include "common/logging.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"
#include "nasbench/space.h"

namespace hwpr::baselines
{

LatencyLut::LatencyLut(nasbench::DatasetId dataset,
                       hw::PlatformId platform)
    : core::Surrogate("lut"), dataset_(dataset), platform_(platform),
      model_(hw::costModelFor(platform))
{
    archMemo_.init(1);
}

std::uint64_t
LatencyLut::key(const hw::OpWorkload &op)
{
    // FNV-1a over the discrete signature fields.
    std::uint64_t x = 1469598103934665603ull;
    auto mix = [&x](std::uint64_t v) {
        x ^= v + 0x9e3779b97f4a7c15ull;
        x *= 1099511628211ull;
    };
    mix(std::uint64_t(op.kind));
    mix(std::uint64_t(op.h));
    mix(std::uint64_t(op.w));
    mix(std::uint64_t(op.cin));
    mix(std::uint64_t(op.cout));
    mix(std::uint64_t(op.kernel));
    mix(std::uint64_t(op.stride));
    mix(std::uint64_t(op.groups));
    return x;
}

double
LatencyLut::opLatencySec(const hw::OpWorkload &op) const
{
    const std::uint64_t k = key(op);
    {
        std::shared_lock lock(tableMu_);
        auto it = table_.find(k);
        if (it != table_.end())
            return it->second;
    }
    // "Measure" the operator in isolation on the device. Profiled
    // outside the lock: opCost is a pure function of the signature,
    // so a racing thread derives the identical value and whichever
    // emplace lands first wins harmlessly.
    const double lat = model_.opCost(op).latencySec;
    std::unique_lock lock(tableMu_);
    table_.emplace(k, lat);
    return lat;
}

void
LatencyLut::build(
    const std::vector<nasbench::Architecture> &calibration)
{
    for (const auto &arch : calibration)
        for (const auto &op :
             nasbench::spaceFor(arch.space).lower(arch, dataset_))
            opLatencySec(op);
}

double
LatencyLut::estimateMs(const nasbench::Architecture &arch) const
{
    double total = model_.spec().baseLatencySec;
    for (const auto &op :
         nasbench::spaceFor(arch.space).lower(arch, dataset_))
        total += opLatencySec(op);
    return total * 1e3;
}

void
LatencyLut::fit(const core::SurrogateDataset &data, ExecContext &)
{
    HWPR_CHECK(data.platform == platform_,
               "LUT built for a different platform");
    std::vector<nasbench::Architecture> calibration;
    calibration.reserve(data.train.size());
    for (const auto *rec : data.train)
        calibration.push_back(rec->arch);
    build(calibration);
}

void
LatencyLut::chunk(const core::ChunkPass &pass, Matrix &out) const
{
    const bool memo = pass.ranking();
    for (std::size_t r = 0; r < pass.archs.size(); ++r) {
        const nasbench::Architecture &arch = pass.archs[r];
        double &ms = out(pass.row0 + r, 0);
        if (!memo)
            ms = estimateMs(arch);
        else if (!archMemo_.lookup(arch, &ms)) {
            ms = estimateMs(arch);
            archMemo_.insert(arch, &ms);
        }
    }
}

bool
LatencyLut::save(const std::string &path) const
{
    return atomicSave(path, [this](BinaryWriter &w) {
        writeHeader(w, "lut", 1);
        w.writeU64(std::uint64_t(dataset_));
        w.writeU64(std::uint64_t(platform_));

        // Sorted by key: the hash map's iteration order is not
        // deterministic, the file should be.
        std::shared_lock lock(tableMu_);
        std::vector<std::pair<std::uint64_t, double>> entries(
            table_.begin(), table_.end());
        std::sort(entries.begin(), entries.end());
        w.writeU64(entries.size());
        for (const auto &[k, v] : entries) {
            w.writeU64(k);
            w.writeDouble(v);
        }
    });
}

std::unique_ptr<LatencyLut>
LatencyLut::load(const std::string &path)
{
    std::string body;
    return readVerified(path, body) ? fromVerified(body)
                                    : nullptr;
}

std::unique_ptr<LatencyLut>
LatencyLut::fromVerified(const std::string &body)
{
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, "lut") != 1)
        return nullptr;

    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    const std::uint64_t count = r.readU64();
    constexpr std::uint64_t kMaxEntries = 1ull << 24;
    if (!r.ok() || dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms || count > kMaxEntries)
        return nullptr;

    auto lut = std::make_unique<LatencyLut>(
        nasbench::DatasetId(dataset_raw), hw::PlatformId(platform_raw));
    lut->table_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t k = r.readU64();
        const double v = r.readDouble();
        if (!r.ok())
            return nullptr;
        lut->table_.emplace(k, v);
    }
    return lut;
}

} // namespace hwpr::baselines
