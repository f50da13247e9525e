#include "obs/exposition.hh"

#include <cmath>
#include <cstdio>

namespace sched91::obs
{

namespace
{

bool
validMetricChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/**
 * Format a gauge value: integers print exactly (Prometheus accepts
 * either form, but `3` reads better than `3.000000`), everything else
 * with enough digits to round-trip a scrape interval.
 */
std::string
formatValue(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/** The `{a="b",c="d"}` block for @p labels, empty string when none. */
std::string
labelBlock(const std::vector<std::pair<std::string, std::string>>
               &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += k;
        out += "=\"";
        out += promEscapeLabel(v);
        out += '"';
    }
    out += '}';
    return out;
}

/** Same, with one extra `le` label appended (histogram buckets). */
std::string
bucketLabelBlock(
    const std::vector<std::pair<std::string, std::string>> &labels,
    const std::string &le)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += k;
        out += "=\"";
        out += promEscapeLabel(v);
        out += '"';
    }
    if (!first)
        out += ',';
    out += "le=\"";
    out += le; // numeric or "+Inf": nothing to escape
    out += '"';
    out += '}';
    return out;
}

void
appendFamily(std::string &out, const std::string &name,
             const char *type)
{
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
}

} // namespace

std::string
promMetricName(std::string_view raw)
{
    std::string out = "sched91_";
    out.reserve(out.size() + raw.size());
    for (char c : raw)
        out += validMetricChar(c) ? c : '_';
    return out;
}

std::string
promEscapeLabel(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
prometheusExposition(const PromDoc &doc)
{
    std::string out;
    const std::string labels = labelBlock(doc.labels);

    if (doc.counters) {
        for (const auto &[name, value] : doc.counters->items()) {
            const std::string metric = promMetricName(name);
            const bool gauge = kindOf(name) == CounterKind::Max;
            appendFamily(out, metric, gauge ? "gauge" : "counter");
            out += metric;
            out += labels;
            out += ' ';
            out += formatValue(static_cast<double>(value));
            out += '\n';
        }
    }

    for (const PromGauge &g : doc.gauges) {
        const std::string metric = promMetricName(g.name);
        appendFamily(out, metric, "gauge");
        out += metric;
        out += labels;
        out += ' ';
        out += formatValue(g.value);
        out += '\n';
    }

    if (doc.histograms) {
        for (const auto &[name, hist] : doc.histograms->items()) {
            const std::string metric = promMetricName(name);
            appendFamily(out, metric, "histogram");
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
                const std::uint64_t n = hist.bucketCount(i);
                if (n == 0)
                    continue;
                cumulative += n;
                out += metric;
                out += "_bucket";
                out += bucketLabelBlock(
                    doc.labels,
                    formatValue(static_cast<double>(
                        Histogram::bucketHi(i))));
                out += ' ';
                out += formatValue(static_cast<double>(cumulative));
                out += '\n';
            }
            out += metric;
            out += "_bucket";
            out += bucketLabelBlock(doc.labels, "+Inf");
            out += ' ';
            out += formatValue(static_cast<double>(hist.count()));
            out += '\n';
            out += metric;
            out += "_sum";
            out += labels;
            out += ' ';
            out += formatValue(static_cast<double>(hist.sum()));
            out += '\n';
            out += metric;
            out += "_count";
            out += labels;
            out += ' ';
            out += formatValue(static_cast<double>(hist.count()));
            out += '\n';
        }
    }

    return out;
}

} // namespace sched91::obs
