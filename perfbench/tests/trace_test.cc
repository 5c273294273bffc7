#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "trace.hh"

using namespace perfbench;

namespace {

Span
span(SpanId id, SpanId parent, const char *name, double start, double end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.startUs = start;
    s.endUs = end;
    return s;
}

} // namespace

TEST(CoveredLength, MergesOverlapsAndClipsToTheWindow)
{
    EXPECT_DOUBLE_EQ(coveredLength({}, 0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(coveredLength({{2.0, 4.0}, {3.0, 6.0}}, 0.0, 10.0),
                     4.0);
    EXPECT_DOUBLE_EQ(coveredLength({{-5.0, 1.0}, {9.0, 20.0}}, 0.0, 10.0),
                     2.0);
    EXPECT_DOUBLE_EQ(coveredLength({{1.0, 2.0}, {1.0, 2.0}}, 0.0, 10.0),
                     1.0);
    EXPECT_DOUBLE_EQ(coveredLength({{5.0, 6.0}, {1.0, 2.0}}, 0.0, 10.0),
                     2.0);
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren)
{
    const std::vector<Span> spans = {
        span(1, 0, "gda.run", 0.0, 100.0),
        span(2, 1, "sched.place", 10.0, 30.0),
        // Overlaps the first child: the overlap counts once.
        span(3, 1, "scenario.apply", 20.0, 40.0),
        // A grandchild is already covered by its parent's interval.
        span(4, 2, "core.predict", 12.0, 14.0),
        span(5, 0, "gda.run", 200.0, 250.0),
    };
    const auto self = selfTimesUs(spans, "gda.run");
    ASSERT_EQ(self.size(), 2u);
    EXPECT_DOUBLE_EQ(self[0], 70.0);
    EXPECT_DOUBLE_EQ(self[1], 50.0);
    const auto place = selfTimesUs(spans, "sched.place");
    ASSERT_EQ(place.size(), 1u);
    EXPECT_DOUBLE_EQ(place[0], 18.0);
}

TEST(SelfTime, ClipsChildrenThatOutliveTheirParent)
{
    const std::vector<Span> spans = {
        span(1, 0, "serve.drain", 0.0, 10.0),
        span(2, 1, "net.advance", 8.0, 15.0),
    };
    EXPECT_DOUBLE_EQ(selfTimesUs(spans, "serve.drain").at(0), 8.0);
}

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.9), 7.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
    std::vector<double> hundred;
    for (int i = 1; i <= 101; ++i)
        hundred.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(hundred, 0.9), 91.0);
    EXPECT_DOUBLE_EQ(percentile(hundred, 0.95), 96.0);
}

TEST(Recorder, NestsScopedSpansUnderTheContext)
{
    SpanRecorder rec;
    {
        ScopedSpan run(rec, "gda.run", 0, 7);
        rec.setContext(run.id(), 7);
        ScopedSpan place(rec, "sched.place");
    }
    const auto spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].query, 7);
    EXPECT_LE(spans[0].startUs, spans[1].startUs);
    EXPECT_GE(spans[0].endUs, spans[1].endUs);
}

TEST(ChromeTrace, WritesOneCompleteEventPerSpan)
{
    const std::vector<Span> spans = {span(1, 0, "gda.run", 0.0, 5.0),
                                     span(2, 1, "sched.place", 1.0, 2.0)};
    const std::string path = ::testing::TempDir() + "perfbench_trace.json";
    ASSERT_TRUE(writeChromeTrace(path, spans));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"sched.place\", \"cat\": \"sched\""),
              std::string::npos);
    EXPECT_NE(json.find("\"parent\": 1"), std::string::npos);
    std::remove(path.c_str());
}
