/**
 * @file
 * Prometheus-style text exposition for the live `stats` endpoint:
 * turns counter sets, gauges, and log2 histograms into the plain-text
 * format scrapers expect — `# TYPE` metadata lines, mangled metric
 * names (`svc.request_ns` -> `sched91_svc_request_ns`), escaped label
 * values, and cumulative `_bucket{le="..."}` series derived from the
 * 65 power-of-two histogram buckets.
 *
 * Format reference: the Prometheus "Exposition formats" document
 * (text-based format, version 0.0.4).  Only the subset the daemon
 * needs is produced: counter, gauge, and histogram families, one
 * optional constant label set applied to every sample.
 */

#ifndef SCHED91_OBS_EXPOSITION_HH
#define SCHED91_OBS_EXPOSITION_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/counters.hh"
#include "obs/histogram.hh"

namespace sched91::obs
{

/**
 * Mangle a counter/histogram name into a valid Prometheus metric
 * name: every character outside [a-zA-Z0-9_:] becomes '_', and the
 * result is prefixed with "sched91_" so all exported series share one
 * namespace (`svc.request_ns` -> `sched91_svc_request_ns`).
 */
std::string promMetricName(std::string_view raw);

/**
 * Escape a label value for the text exposition: backslash, double
 * quote, and newline become \\, \", and \n (the only escapes the
 * format defines).
 */
std::string promEscapeLabel(std::string_view raw);

/** One free-standing gauge sample (uptime, queue depth, RSS, ...). */
struct PromGauge
{
    std::string name; ///< raw (unmangled) metric name
    double value = 0.0;
};

/** Everything one exposition document is built from. */
struct PromDoc
{
    /** Counter samples, exported by their roster kind (Sum ->
     * counter, Max -> gauge; a name outside the roster is a counter).
     * May be null. */
    const CounterSet *counters = nullptr;

    /** Histogram families, exported as cumulative bucket series. */
    const HistogramSet *histograms = nullptr;

    /** Free-standing gauges, exported in the given order. */
    std::vector<PromGauge> gauges;

    /** Constant labels stamped onto every sample (values are escaped
     * by the renderer; names must already be valid). */
    std::vector<std::pair<std::string, std::string>> labels;
};

/**
 * Render the full text exposition: counters first (ascending name
 * order, as CounterSet stores them), then gauges, then histograms.
 * Every family gets one `# TYPE` line; histogram buckets are emitted
 * cumulatively for each non-empty log2 bucket, closed by the
 * mandatory `le="+Inf"` bucket, `_sum`, and `_count` samples.
 */
std::string prometheusExposition(const PromDoc &doc);

} // namespace sched91::obs

#endif // SCHED91_OBS_EXPOSITION_HH
