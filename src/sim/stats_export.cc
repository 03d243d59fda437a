#include "sim/stats_export.hh"

namespace netsparse {

void
writeStatsJson(const StatRegistry &reg, std::ostream &os)
{
    os << "{";
    bool first = true;
    auto comma = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
    };

    for (const auto &[name, value] : reg.all()) {
        comma();
        os << '"' << jsonEscape(name) << "\": {\"type\":\"scalar\","
           << "\"value\":";
        writeJsonNumber(os, value);
        os << '}';
    }
    for (const auto &[name, avg] : reg.averages()) {
        comma();
        os << '"' << jsonEscape(name) << "\": {\"type\":\"average\","
           << "\"count\":" << avg.count() << ",\"sum\":";
        writeJsonNumber(os, avg.sum());
        os << ",\"mean\":";
        writeJsonNumber(os, avg.mean());
        os << ",\"min\":";
        writeJsonNumber(os, avg.min());
        os << ",\"max\":";
        writeJsonNumber(os, avg.max());
        os << '}';
    }
    for (const auto &[name, hist] : reg.histograms()) {
        comma();
        os << '"' << jsonEscape(name) << "\": {\"type\":\"histogram\","
           << "\"lo\":";
        writeJsonNumber(os, hist.lo());
        os << ",\"hi\":";
        writeJsonNumber(os, hist.hi());
        os << ",\"total\":" << hist.totalSamples() << ",\"p50\":";
        writeJsonNumber(os, hist.percentile(50.0));
        os << ",\"p99\":";
        writeJsonNumber(os, hist.percentile(99.0));
        os << ",\"buckets\":[";
        for (std::size_t b = 0; b < hist.numBuckets(); ++b) {
            if (b)
                os << ',';
            os << hist.bucket(b);
        }
        os << "]}";
    }
    os << "\n}";
}

void
RunFormat<StatRegistry>::write(std::ostream &os, const StatRegistry &reg)
{
    os << ",\"stats\":";
    writeStatsJson(reg, os);
    os << '}';
}

} // namespace netsparse
