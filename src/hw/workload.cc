#include "hw/workload.h"

#include "common/logging.h"

namespace hwpr::hw
{

std::string
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Conv:
        return "conv";
      case OpKind::AvgPool:
        return "avg_pool";
      case OpKind::Skip:
        return "skip";
      case OpKind::Zero:
        return "zero";
      case OpKind::Add:
        return "add";
      case OpKind::GlobalAvgPool:
        return "global_avg_pool";
      case OpKind::Linear:
        return "linear";
    }
    panic("unknown OpKind");
}

double
OpWorkload::macs() const
{
    const double out_spatial = double(outH()) * double(outW());
    switch (kind) {
      case OpKind::Conv:
        // Per output element: (cin/groups) * k * k MACs per channel.
        return out_spatial * double(cout) *
               (double(cin) / double(groups)) * double(kernel) *
               double(kernel);
      case OpKind::Linear:
        return double(cin) * double(cout);
      case OpKind::AvgPool:
        return out_spatial * double(cout) * double(kernel) *
               double(kernel);
      case OpKind::Add:
        return double(h) * double(w) * double(cout);
      case OpKind::GlobalAvgPool:
        return double(h) * double(w) * double(cin);
      case OpKind::Skip:
      case OpKind::Zero:
        return 0.0;
    }
    panic("unknown OpKind");
}

double
OpWorkload::flops() const
{
    switch (kind) {
      case OpKind::Conv:
      case OpKind::Linear:
        return 2.0 * macs();
      default:
        return macs();
    }
}

double
OpWorkload::params() const
{
    switch (kind) {
      case OpKind::Conv:
        return double(cout) * (double(cin) / double(groups)) *
                   double(kernel) * double(kernel) +
               double(cout); // + bias/BN scale
      case OpKind::Linear:
        return double(cin) * double(cout) + double(cout);
      default:
        return 0.0;
    }
}

double
OpWorkload::inputElems() const
{
    return double(h) * double(w) * double(cin);
}

double
OpWorkload::outputElems() const
{
    if (kind == OpKind::Zero)
        return 0.0;
    if (kind == OpKind::Linear)
        return double(cout);
    if (kind == OpKind::GlobalAvgPool)
        return double(cin);
    return double(outH()) * double(outW()) * double(cout);
}

} // namespace hwpr::hw
