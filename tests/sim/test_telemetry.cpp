/**
 * @file
 * Tests for the interval-telemetry probe and sink: the lazy boundary
 * sampling semantics ("a sample at B observes exactly the events with
 * tick < B") and the netsparse-telemetry-v1 document shape. The
 * collector lifecycle is covered in test_run_document.cpp.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/json_lite.hh"
#include "sim/event_queue.hh"
#include "sim/telemetry.hh"

using namespace netsparse;

TEST(TelemetryProbe, SamplesObserveExactlyEventsBeforeBoundary)
{
    EventQueue eq;
    TelemetryProbe probe(100);

    int counter = 0;
    std::vector<Tick> boundaries;
    probe.addEntity(0, "c", "test", {"count"},
                    [&](Tick boundary, std::vector<double> &out) {
                        boundaries.push_back(boundary);
                        out.push_back(static_cast<double>(counter));
                    });
    probe.attachTo(eq);

    for (Tick t : {Tick{50}, Tick{150}, Tick{250}})
        eq.schedule(t, [&] { ++counter; });
    eq.run();
    // Boundary 100 fired before the tick-150 event (counter was 1),
    // boundary 200 before the tick-250 event (counter was 2). The
    // trailing boundary needs the end-of-run flush.
    probe.flushUntil(300);

    EXPECT_EQ(probe.numSamples(), 3u);
    EXPECT_EQ(boundaries, (std::vector<Tick>{100, 200, 300}));
    std::vector<TelemetryEntity> entities = probe.takeEntities();
    ASSERT_EQ(entities.size(), 1u);
    EXPECT_EQ(entities[0].series[0],
              (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(probe.eventsPerInterval(),
              (std::vector<double>{1.0, 1.0, 1.0}));
}

TEST(TelemetryProbe, OneEventCanCrossManyBoundaries)
{
    EventQueue eq;
    TelemetryProbe probe(10);
    int counter = 0;
    probe.addEntity(0, "c", "test", {"count"},
                    [&](Tick, std::vector<double> &out) {
                        out.push_back(static_cast<double>(counter));
                    });
    probe.attachTo(eq);

    eq.schedule(35, [&] { ++counter; });
    eq.run();
    // Boundaries 10, 20 and 30 all precede the single tick-35 event.
    EXPECT_EQ(probe.numSamples(), 3u);
    probe.flushUntil(40);
    EXPECT_EQ(probe.numSamples(), 4u);
    std::vector<TelemetryEntity> entities = probe.takeEntities();
    EXPECT_EQ(entities[0].series[0],
              (std::vector<double>{0.0, 0.0, 0.0, 1.0}));
}

TEST(TelemetrySink, DocumentMatchesSchema)
{
    TelemetrySink sink;
    sink.setCollect(true);
    ASSERT_TRUE(sink.enabled());

    TelemetryRun &run = sink.beginRun();
    run.intervalTicks = 100;
    run.finalTick = 250;
    run.sampleTicks = {100, 200};
    TelemetryEntity ent;
    ent.id = "lk0";
    ent.kind = "link";
    ent.seriesNames = {"utilization"};
    ent.series = {{0.5, 1.0}};
    run.entities.push_back(std::move(ent));

    jsonlite::Value doc = jsonlite::parse(sink.toJson());
    EXPECT_EQ(doc.at("schema").string, "netsparse-telemetry-v1");
    const jsonlite::Value &r0 = doc.at("runs").at(0);
    EXPECT_EQ(r0.at("label").string, "gather0"); // empty -> index
    EXPECT_EQ(r0.at("intervalTicks").number, 100.0);
    EXPECT_EQ(r0.at("finalTick").number, 250.0);
    EXPECT_EQ(r0.at("sampleTicks").array.size(), 2u);
    const jsonlite::Value &e0 = r0.at("entities").at(0);
    EXPECT_EQ(e0.at("id").string, "lk0");
    EXPECT_EQ(e0.at("kind").string, "link");
    EXPECT_EQ(e0.at("series").at("utilization").at(1).number, 1.0);
}
