/**
 * @file
 * Property tests for the hwpr-serve wire readers: json::parse,
 * serve::FrameReader and serve::parseArchs fed generated hostile
 * input — nesting up to 100,000 levels, arrays of 10^5 elements,
 * valid requests truncated at every byte, and random bytes. Every
 * call must return, throw std::runtime_error (the parser's one
 * documented failure), or poison the stream; none may crash. Without
 * the parser's 64-level nesting cap the deep documents overflow the
 * stack and this binary dies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/prop.h"
#include "nasbench/space.h"
#include "prop_gens.h"
#include "serve/proto.h"

using namespace hwpr;

namespace
{

/** Deepest nesting the generators build. */
constexpr std::size_t kMaxGenDepth = 100000;
/** Element count of the huge arrays. */
constexpr std::size_t kHugeArray = 100000;

/** Short, printable view of a possibly huge payload. */
std::string
showPayload(const std::string &s)
{
    std::string head;
    for (std::size_t i = 0; i < s.size() && i < 64; ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        head += c >= 0x20 && c < 0x7f ? char(c) : '?';
    }
    return std::to_string(s.size()) + " bytes: \"" + head +
           (s.size() > 64 ? "...\"" : "\"");
}

/** Halves, then one byte off the end. */
std::vector<std::string>
shrinkBytes(const std::string &s)
{
    std::vector<std::string> out;
    if (s.empty())
        return out;
    out.push_back(s.substr(0, s.size() / 2));
    out.push_back(s.substr(s.size() / 2));
    out.push_back(s.substr(0, s.size() - 1));
    return out;
}

/** A well-formed predict/rank request over random architectures. */
std::string
validRequest(Rng &rng)
{
    const prop::Gen<nasbench::Architecture> arch = proptest::archGen();
    std::string out = "{\"op\": \"";
    out += rng.bernoulli(0.5) ? "predict" : "rank";
    out += "\", \"id\": " + std::to_string(rng.intIn(0, 1000)) +
           ", \"archs\": [";
    const std::size_t n = rng.index(5);
    for (std::size_t i = 0; i < n; ++i) {
        const nasbench::Architecture a = arch.sample(rng);
        out += i ? ", " : "";
        out += "{\"space\": \"";
        out += serve::spaceName(a.space);
        out += "\", \"genome\": [";
        for (std::size_t g = 0; g < a.genome.size(); ++g)
            out += (g ? ", " : "") + std::to_string(a.genome[g]);
        out += "]}";
    }
    return out + "]}";
}

/**
 * Nested arrays/objects up to kMaxGenDepth levels: log-uniform depth
 * plus the cap's edges, all '[' / all '{"k": ' / alternating, closed
 * or left open, bare or as a request's "archs" value.
 */
std::string
deepNesting(Rng &rng)
{
    static const std::size_t edges[] = {63, 64, 65, 30000, kMaxGenDepth};
    const std::size_t depth =
        rng.bernoulli(0.3)
            ? edges[rng.index(std::size(edges))]
            : std::size_t(std::exp(rng.uniform() *
                                   std::log(double(kMaxGenDepth))));
    const int shape = rng.intIn(0, 2);
    std::string out;
    for (std::size_t d = 0; d < depth; ++d)
        out += shape == 0 || (shape == 2 && d % 2 == 0) ? "[" : "{\"k\": ";
    out += "1";
    if (rng.bernoulli(0.5))
        for (std::size_t d = depth; d-- > 0;)
            out += shape == 0 || (shape == 2 && d % 2 == 0) ? "]" : "}";
    if (rng.bernoulli(0.3))
        out = "{\"op\": \"predict\", \"archs\": " + out + "}";
    return out;
}

/** kHugeArray numbers or empty objects, bare or as "archs". */
std::string
hugeArray(Rng &rng)
{
    const char *elem = rng.bernoulli(0.5) ? "0" : "{}";
    std::string out = "[";
    for (std::size_t i = 0; i < kHugeArray; ++i)
        out += (i ? "," : "") + std::string(elem);
    out += "]";
    if (rng.bernoulli(0.5))
        out = "{\"op\": \"rank\", \"archs\": " + out + "}";
    return out;
}

/** Random bytes, biased towards JSON punctuation half the time. */
std::string
randomBytes(Rng &rng)
{
    static const char json_chars[] = "[]{}\":,0123456789.eE-+ ntrufals\\";
    const bool jsonish = rng.bernoulli(0.5);
    std::string out(rng.index(300), '\0');
    for (char &c : out)
        c = jsonish ? json_chars[rng.index(sizeof(json_chars) - 1)]
                    : char(rng.intIn(0, 255));
    return out;
}

/**
 * Parse @p payload and, when it parses, run parseArchs on it. Fails
 * only on an exception other than the documented runtime_error, or
 * on a parseArchs result that breaks its contract.
 */
std::optional<std::string>
parseAndValidate(const std::string &payload)
{
    json::Value req;
    try {
        req = json::parse(payload);
    } catch (const std::runtime_error &) {
        return std::nullopt;
    } catch (const std::exception &e) {
        return std::string("json::parse threw a non-runtime_error: ") +
               e.what();
    }
    std::vector<nasbench::Architecture> archs;
    std::string err;
    if (!serve::parseArchs(req, archs, err)) {
        if (err.empty())
            return std::string("parseArchs failed without a message");
        return std::nullopt;
    }
    for (const nasbench::Architecture &a : archs) {
        const auto &space = nasbench::spaceFor(a.space);
        if (a.genome.size() != space.genomeLength())
            return std::string("parseArchs accepted a bad genome length");
        for (std::size_t pos = 0; pos < a.genome.size(); ++pos)
            if (a.genome[pos] < 0 ||
                std::size_t(a.genome[pos]) >= space.numOptions(pos))
                return std::string("parseArchs accepted a bad gene");
    }
    return std::nullopt;
}

/** Nesting depth of a parsed value (containers count one level). */
std::size_t
depthOf(const json::Value &v)
{
    std::size_t deepest = 0;
    if (v.isArray())
        for (const json::Value &item : v.asArray())
            deepest = std::max(deepest, depthOf(item));
    else if (v.isObject())
        for (const auto &member : v.asObject())
            deepest = std::max(deepest, depthOf(member.second));
    else
        return 0;
    return deepest + 1;
}

} // namespace

TEST(PropWire, DeepNestingIsAnErrorNotACrash)
{
    prop::Gen<std::string> gen;
    gen.sample = deepNesting;
    gen.shrink = shrinkBytes;
    const auto r = prop::forAll<std::string>(
        prop::Config::fromEnv(0x3E57ED01, 60), gen, showPayload,
        [](const std::string &doc) -> std::optional<std::string> {
            if (auto err = parseAndValidate(doc))
                return err;
            // Whatever parses stays within the cap.
            try {
                if (depthOf(json::parse(doc)) > 64)
                    return std::string("parsed past the nesting cap");
            } catch (const std::runtime_error &) {
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropWire, HugeArraysParseOrAreRejected)
{
    prop::Gen<std::string> gen;
    gen.sample = hugeArray;
    gen.shrink = shrinkBytes;
    const auto r = prop::forAll<std::string>(
        prop::Config::fromEnv(0x3E57ED02, 6), gen, showPayload,
        [](const std::string &doc) -> std::optional<std::string> {
            if (auto err = parseAndValidate(doc))
                return err;
            // 10^5 archs is past the 4096-per-request cap.
            const json::Value v = json::parse(doc);
            std::vector<nasbench::Architecture> archs;
            std::string err;
            if (v.isObject() && serve::parseArchs(v, archs, err))
                return std::string("parseArchs took 10^5 archs");
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropWire, RequestTruncatedAtEveryByte)
{
    prop::Gen<std::string> gen;
    gen.sample = validRequest;
    const auto r = prop::forAll<std::string>(
        prop::Config::fromEnv(0x3E57ED03, 40), gen, showPayload,
        [](const std::string &req) -> std::optional<std::string> {
            if (auto err = parseAndValidate(req))
                return err;
            const std::string frame = serve::encodeFrame(req);
            for (std::size_t cut = 0; cut < frame.size(); ++cut) {
                // Every strict prefix of the JSON text is incomplete.
                if (cut < req.size()) {
                    try {
                        json::parse(req.substr(0, cut));
                        return "prefix of " + std::to_string(cut) +
                               " bytes parsed";
                    } catch (const std::runtime_error &) {
                    }
                }
                // A frame cut short yields nothing; the rest of it,
                // fed later, yields exactly the request.
                serve::FrameReader reader;
                std::string payload;
                reader.feed(frame.data(), cut);
                if (reader.next(payload) || reader.poisoned())
                    return "truncated frame of " + std::to_string(cut) +
                           " bytes produced output";
                reader.feed(frame.data() + cut, frame.size() - cut);
                if (!reader.next(payload) || payload != req)
                    return "completed frame after a cut at " +
                           std::to_string(cut) + " lost the request";
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropWire, RandomBytesThroughTheFrameReader)
{
    prop::Gen<std::string> gen;
    gen.sample = [](Rng &rng) {
        // A few frames: random payloads, valid requests, deep nesting
        // and random bytes in the length headers too.
        std::string stream;
        const std::size_t frames = 1 + rng.index(4);
        for (std::size_t f = 0; f < frames; ++f) {
            switch (rng.intIn(0, 3)) {
            case 0:
                stream += serve::encodeFrame(randomBytes(rng));
                break;
            case 1:
                stream += serve::encodeFrame(validRequest(rng));
                break;
            case 2:
                stream += serve::encodeFrame(deepNesting(rng));
                break;
            default:
                stream += randomBytes(rng);
            }
        }
        return stream;
    };
    gen.shrink = shrinkBytes;
    const auto r = prop::forAll<std::string>(
        prop::Config::fromEnv(0x3E57ED04, 200), gen, showPayload,
        [](const std::string &stream) -> std::optional<std::string> {
            // Fed in fragments of 1 to 99 bytes, as a socket delivers.
            serve::FrameReader reader;
            std::string payload;
            std::size_t off = 0, step = 1;
            while (off < stream.size()) {
                const std::size_t n =
                    std::min(stream.size() - off, step);
                reader.feed(stream.data() + off, n);
                off += n;
                step = step % 97 + 7;
                while (reader.next(payload)) {
                    if (payload.size() > serve::kMaxFrameBytes)
                        return std::string("oversize payload");
                    if (auto err = parseAndValidate(payload))
                        return err;
                }
            }
            if (reader.poisoned() && reader.next(payload))
                return std::string("poisoned reader produced a frame");
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}
