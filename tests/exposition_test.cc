/**
 * @file
 * Prometheus text exposition (obs/exposition.hh): metric-name
 * mangling, label escaping, `# TYPE` metadata, kind-aware counter vs
 * gauge export, and cumulative histogram bucket series — pinned by a
 * golden document so any format drift is a conscious choice.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/counters.hh"
#include "obs/exposition.hh"
#include "obs/histogram.hh"

using namespace sched91;

TEST(Exposition, MetricNamesAreManglesIntoOneNamespace)
{
    EXPECT_EQ(obs::promMetricName("svc.request_ns"),
              "sched91_svc_request_ns");
    EXPECT_EQ(obs::promMetricName("dag.arcs"), "sched91_dag_arcs");
    // Colons and underscores are legal and survive; anything else
    // collapses to '_'.
    EXPECT_EQ(obs::promMetricName("a:b_c"), "sched91_a:b_c");
    EXPECT_EQ(obs::promMetricName("odd name-1%"),
              "sched91_odd_name_1_");
    EXPECT_EQ(obs::promMetricName(""), "sched91_");
}

TEST(Exposition, LabelValuesEscapeOnlyWhatTheFormatDefines)
{
    EXPECT_EQ(obs::promEscapeLabel("mips-like"), "mips-like");
    EXPECT_EQ(obs::promEscapeLabel("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::promEscapeLabel("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::promEscapeLabel("a\nb"), "a\\nb");
    // Other control characters pass through untouched — the format
    // only defines the three escapes above.
    EXPECT_EQ(obs::promEscapeLabel("a\tb"), "a\tb");
}

TEST(Exposition, CounterKindSelectsCounterVersusGauge)
{
    // The roster's Max gauge exports as a gauge; an svc.* tally, which
    // the roster does not list, as a counter.
    obs::CounterSet set;
    set.set("svc.requests", 5);
    set.set("sched.ready_list_peak", 9);

    obs::PromDoc doc;
    doc.counters = &set;
    const std::string text = obs::prometheusExposition(doc);

    EXPECT_NE(text.find("# TYPE sched91_sched_ready_list_peak gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sched91_svc_requests counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("sched91_sched_ready_list_peak 9\n"),
              std::string::npos);
    EXPECT_NE(text.find("sched91_svc_requests 5\n"),
              std::string::npos);
}

TEST(Exposition, HistogramBucketsAreCumulativeAndClosed)
{
    obs::HistogramSet hists;
    obs::Histogram &h = hists.get("lat.ns");
    h.record(1);   // bucket hi = 1
    h.record(3);   // bucket hi = 3
    h.record(100); // bucket hi = 127
    h.record(100);

    obs::PromDoc doc;
    doc.histograms = &hists;
    const std::string text = obs::prometheusExposition(doc);

    const std::string expected =
        "# TYPE sched91_lat_ns histogram\n"
        "sched91_lat_ns_bucket{le=\"1\"} 1\n"
        "sched91_lat_ns_bucket{le=\"3\"} 2\n"
        "sched91_lat_ns_bucket{le=\"127\"} 4\n"
        "sched91_lat_ns_bucket{le=\"+Inf\"} 4\n"
        "sched91_lat_ns_sum 204\n"
        "sched91_lat_ns_count 4\n";
    EXPECT_EQ(text, expected);
}

TEST(Exposition, GoldenDocumentWithLabels)
{
    obs::CounterSet set;
    set.set("svc.requests_ok", 3);

    obs::HistogramSet hists;
    hists.get("svc.queue_wait_ns").record(7); // bucket hi = 7

    obs::PromDoc doc;
    doc.counters = &set;
    doc.histograms = &hists;
    doc.gauges.push_back({"svc.queue_depth", 2.0});
    doc.gauges.push_back({"svc.uptime_seconds", 1.5});
    doc.labels.emplace_back("machine", "mips\"8\"");

    // One golden string covering every family type, label escaping,
    // sample ordering (counters, gauges, histograms), and the integer
    // vs float value formatting rule.
    const std::string expected =
        "# TYPE sched91_svc_requests_ok counter\n"
        "sched91_svc_requests_ok{machine=\"mips\\\"8\\\"\"} 3\n"
        "# TYPE sched91_svc_queue_depth gauge\n"
        "sched91_svc_queue_depth{machine=\"mips\\\"8\\\"\"} 2\n"
        "# TYPE sched91_svc_uptime_seconds gauge\n"
        "sched91_svc_uptime_seconds{machine=\"mips\\\"8\\\"\"} 1.5\n"
        "# TYPE sched91_svc_queue_wait_ns histogram\n"
        "sched91_svc_queue_wait_ns_bucket{machine=\"mips\\\"8\\\"\","
        "le=\"7\"} 1\n"
        "sched91_svc_queue_wait_ns_bucket{machine=\"mips\\\"8\\\"\","
        "le=\"+Inf\"} 1\n"
        "sched91_svc_queue_wait_ns_sum{machine=\"mips\\\"8\\\"\"} 7\n"
        "sched91_svc_queue_wait_ns_count{machine=\"mips\\\"8\\\"\"} "
        "1\n";
    EXPECT_EQ(obs::prometheusExposition(doc), expected);
}

TEST(Exposition, EmptyDocumentRendersEmpty)
{
    obs::PromDoc doc;
    EXPECT_EQ(obs::prometheusExposition(doc), "");
}
