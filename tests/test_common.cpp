/**
 * @file
 * Unit tests for the common utilities: bit tricks, RNG determinism, and
 * the kernel-time breakdown accounting used for Table 1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/bits.h"
#include "common/cli.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace unizk {
namespace {

TEST(Bits, PowerOfTwoPredicates)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(uint64_t{1} << 63));
    EXPECT_FALSE(isPowerOfTwo((uint64_t{1} << 63) + 1));
}

TEST(Bits, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(1024), 10u);
    EXPECT_EQ(log2Exact(uint64_t{1} << 40), 40u);
}

TEST(Bits, NextPowerOfTwo)
{
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(3), 4u);
    EXPECT_EQ(nextPowerOfTwo(4), 4u);
    EXPECT_EQ(nextPowerOfTwo(1000), 1024u);
}

TEST(Bits, ReverseBits)
{
    EXPECT_EQ(reverseBits(0b001, 3), 0b100u);
    EXPECT_EQ(reverseBits(0b110, 3), 0b011u);
    EXPECT_EQ(reverseBits(1, 10), uint64_t{1} << 9);
    // Involution.
    for (uint64_t x = 0; x < 64; ++x)
        EXPECT_EQ(reverseBits(reverseBits(x, 6), 6), x);
}

TEST(Bits, BitReversePermuteIsInvolution)
{
    std::vector<int> v(16);
    for (size_t i = 0; i < 16; ++i)
        v[i] = static_cast<int>(i);
    auto orig = v;
    bitReversePermute(v);
    EXPECT_NE(v, orig);
    bitReversePermute(v);
    EXPECT_EQ(v, orig);
}

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 5), 2u);
    EXPECT_EQ(ceilDiv(11, 5), 3u);
    EXPECT_EQ(ceilDiv(1, 5), 1u);
}

TEST(Rng, Deterministic)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    SplitMix64 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Stats, BreakdownFractionsSumToOne)
{
    KernelTimeBreakdown b;
    b.add(KernelClass::Ntt, 2.0);
    b.add(KernelClass::MerkleTree, 6.0);
    b.add(KernelClass::Polynomial, 1.5);
    b.add(KernelClass::LayoutTransform, 0.5);
    EXPECT_DOUBLE_EQ(b.total(), 10.0);
    EXPECT_DOUBLE_EQ(b.fraction(KernelClass::MerkleTree), 0.6);
    double sum = 0;
    for (size_t i = 0; i < static_cast<size_t>(KernelClass::NumClasses);
         ++i) {
        sum += b.fraction(static_cast<KernelClass>(i));
    }
    EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(Stats, Accumulate)
{
    KernelTimeBreakdown a, b;
    a.add(KernelClass::Ntt, 1.0);
    b.add(KernelClass::Ntt, 2.0);
    b.add(KernelClass::OtherHash, 3.0);
    a += b;
    EXPECT_DOUBLE_EQ(a.seconds(KernelClass::Ntt), 3.0);
    EXPECT_DOUBLE_EQ(a.seconds(KernelClass::OtherHash), 3.0);
}

TEST(Stats, EmptyBreakdownFractionIsZero)
{
    KernelTimeBreakdown b;
    EXPECT_DOUBLE_EQ(b.fraction(KernelClass::Ntt), 0.0);
}

TEST(Cli, ParsesKeyValuePairs)
{
    const char *argv[] = {"prog", "--rows", "4096", "--name", "mvm"};
    CliOptions cli(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.getUint("rows", 0), 4096u);
    EXPECT_EQ(cli.getString("name", ""), "mvm");
}

TEST(Cli, DefaultsWhenMissing)
{
    const char *argv[] = {"prog"};
    CliOptions cli(1, const_cast<char **>(argv));
    EXPECT_EQ(cli.getUint("rows", 77), 77u);
    EXPECT_DOUBLE_EQ(cli.getDouble("scale", 1.5), 1.5);
    EXPECT_EQ(cli.getString("name", "def"), "def");
    EXPECT_FALSE(cli.has("rows"));
}

TEST(Cli, BareFlags)
{
    const char *argv[] = {"prog", "--fast", "--rows", "8"};
    CliOptions cli(4, const_cast<char **>(argv));
    EXPECT_TRUE(cli.has("fast"));
    EXPECT_EQ(cli.getUint("rows", 0), 8u);
    // A bare flag queried as an integer falls back to the default.
    EXPECT_EQ(cli.getUint("fast", 3), 3u);
}

TEST(Cli, HexAndDoubleValues)
{
    const char *argv[] = {"prog", "--addr", "0x40", "--f", "2.25"};
    CliOptions cli(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.getUint("addr", 0), 64u);
    EXPECT_DOUBLE_EQ(cli.getDouble("f", 0), 2.25);
}

TEST(Cli, LastOccurrenceWins)
{
    const char *argv[] = {"prog", "--rows", "1", "--rows", "2"};
    CliOptions cli(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.getUint("rows", 0), 2u);
}

TEST(Stats, ScaledBy)
{
    KernelTimeBreakdown b;
    b.add(KernelClass::Ntt, 4.0);
    b.add(KernelClass::MerkleTree, 6.0);
    const KernelTimeBreakdown s = b.scaledBy(0.5);
    EXPECT_DOUBLE_EQ(s.seconds(KernelClass::Ntt), 2.0);
    EXPECT_DOUBLE_EQ(s.total(), 5.0);
    // Fractions are scale-invariant.
    EXPECT_DOUBLE_EQ(s.fraction(KernelClass::MerkleTree),
                     b.fraction(KernelClass::MerkleTree));
}

class ThreadPoolCounts : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ThreadPoolCounts, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(GetParam());
    EXPECT_EQ(pool.threadCount(), GetParam());
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                           size_t{1000}}) {
        for (const size_t grain : {size_t{1}, size_t{3}, size_t{64},
                                   size_t{4096}}) {
            std::vector<std::atomic<uint32_t>> hits(n);
            pool.parallelFor(0, n, grain, [&](size_t lo, size_t hi) {
                EXPECT_LE(lo, hi);
                EXPECT_LE(hi, n);
                for (size_t i = lo; i < hi; ++i)
                    hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1u)
                    << "n=" << n << " grain=" << grain << " i=" << i;
        }
    }
}

TEST_P(ThreadPoolCounts, NonZeroBeginOffset)
{
    ThreadPool pool(GetParam());
    std::vector<std::atomic<uint32_t>> hits(100);
    pool.parallelFor(25, 100, 10, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(hits[i].load(), i >= 25 ? 1u : 0u) << "i=" << i;
}

TEST_P(ThreadPoolCounts, NestedParallelForRunsInline)
{
    // A parallelFor issued from inside a pool worker must not deadlock
    // waiting for the (busy) workers; it runs inline instead.
    ThreadPool pool(GetParam());
    std::vector<std::atomic<uint32_t>> hits(64 * 8);
    pool.parallelFor(0, 64, 4, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            pool.parallelFor(0, 8, 1, [&, i](size_t lo2, size_t hi2) {
                for (size_t j = lo2; j < hi2; ++j)
                    hits[i * 8 + j].fetch_add(1,
                                              std::memory_order_relaxed);
            });
    });
    for (size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1u) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Counts, ThreadPoolCounts,
                         ::testing::Values(1, 2, 4, 8));

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount)
{
    // Chunk boundaries are a pure function of (range, grain, pool
    // size); running twice on the same pool gives the same partition.
    auto boundaries = [](ThreadPool &pool, size_t n, size_t grain) {
        Mutex m;
        std::vector<std::pair<size_t, size_t>> out;
        pool.parallelFor(0, n, grain, [&](size_t lo, size_t hi) {
            MutexLock lock(m);
            out.emplace_back(lo, hi);
        });
        std::sort(out.begin(), out.end());
        return out;
    };
    ThreadPool p4(4);
    const auto a = boundaries(p4, 1000, 7);
    const auto b = boundaries(p4, 1000, 7);
    EXPECT_EQ(a, b);
    // And every boundary is grain-aligned except possibly the last end.
    for (size_t k = 0; k + 1 < a.size(); ++k)
        EXPECT_EQ(a[k].second, a[k + 1].first);
}

TEST(ThreadPool, ResizeKeepsCoverage)
{
    ThreadPool pool(2);
    pool.resize(5);
    EXPECT_EQ(pool.threadCount(), 5u);
    std::vector<std::atomic<uint32_t>> hits(333);
    pool.parallelFor(0, 333, 16, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < 333; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "i=" << i;
}

TEST(ThreadPool, GlobalPoolThreadsFlag)
{
    // applyGlobalCliOptions routes --threads to the global pool.
    const char *argv[] = {"prog", "--threads", "3"};
    CliOptions cli(3, const_cast<char **>(argv));
    applyGlobalCliOptions(cli);
    EXPECT_EQ(globalThreadCount(), 3u);
    EXPECT_EQ(globalThreadPool().threadCount(), 3u);

    std::vector<std::atomic<uint32_t>> hits(50);
    parallelFor(0, 50, 4, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < 50; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "i=" << i;

    setGlobalThreadCount(0); // restore auto for other tests
}

TEST(ThreadPool, ConcurrentSubmittersSerialize)
{
    // Four threads submitting parallelFor on the same pool at once (the
    // service's prover lanes do this): their regions run concurrently,
    // and every region still covers its range exactly once.
    ThreadPool pool(4);
    std::vector<std::atomic<uint32_t>> hits(512);
    std::vector<std::thread> submitters;
    for (int s = 0; s < 4; ++s) {
        submitters.emplace_back([&] {
            for (int round = 0; round < 8; ++round) {
                pool.parallelFor(0, 128, 8, [&](size_t lo, size_t hi) {
                    for (size_t i = lo; i < hi; ++i)
                        hits[i].fetch_add(1,
                                          std::memory_order_relaxed);
                });
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    for (size_t i = 0; i < 128; ++i)
        EXPECT_EQ(hits[i].load(), 32u) << "i=" << i;
}

/** Poll @p flag until it is set or @p timeout_s elapses. */
bool
waitForFlag(const std::atomic<bool> &flag, double timeout_s)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (!flag.load()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(ThreadPool, ConcurrentRegionsOverlap)
{
    // Region A's chunks wait for a chunk of region B to start. B is
    // submitted only once A is running, so a pool that ran whole
    // regions one at a time would time out here.
    ThreadPool pool(4);
    std::atomic<bool> a_running{false};
    std::atomic<bool> b_running{false};
    std::atomic<uint32_t> a_saw_b{0};
    std::thread a([&] {
        pool.parallelFor(0, 2, 1, [&](size_t, size_t) {
            a_running = true;
            if (waitForFlag(b_running, 10.0))
                a_saw_b.fetch_add(1);
        });
    });
    ASSERT_TRUE(waitForFlag(a_running, 10.0));
    std::thread b([&] {
        pool.parallelFor(0, 2, 1, [&](size_t, size_t) {
            b_running = true;
        });
    });
    a.join();
    b.join();
    EXPECT_EQ(a_saw_b.load(), 2u);
}

TEST(ThreadPool, ConcurrentNestedSubmittersCoverEveryIndex)
{
    // Four submitters, each nesting a parallelFor inside its chunks, at
    // pool sizes including a non-power-of-two: every (submitter, outer,
    // inner) index runs exactly once.
    constexpr size_t kSubmitters = 4, kOuter = 48, kInner = 16;
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<uint32_t>> hits(kSubmitters * kOuter *
                                                kInner);
        std::vector<std::thread> submitters;
        for (size_t s = 0; s < kSubmitters; ++s) {
            submitters.emplace_back([&, s] {
                pool.parallelFor(0, kOuter, 3, [&](size_t lo, size_t hi) {
                    for (size_t i = lo; i < hi; ++i)
                        pool.parallelFor(
                            0, kInner, 2, [&, i](size_t lo2, size_t hi2) {
                                for (size_t j = lo2; j < hi2; ++j)
                                    hits[(s * kOuter + i) * kInner + j]
                                        .fetch_add(1);
                            });
                });
            });
        }
        for (auto &t : submitters)
            t.join();
        for (size_t k = 0; k < hits.size(); ++k)
            EXPECT_EQ(hits[k].load(), 1u)
                << "threads=" << threads << " k=" << k;
    }
}

TEST(ThreadPool, ResizeAfterConcurrentUse)
{
    ThreadPool pool(3);
    std::vector<std::atomic<uint32_t>> hits(256);
    auto hammer = [&] {
        std::vector<std::thread> submitters;
        for (int s = 0; s < 3; ++s)
            submitters.emplace_back([&] {
                pool.parallelFor(0, hits.size(), 4,
                                 [&](size_t lo, size_t hi) {
                                     for (size_t i = lo; i < hi; ++i)
                                         hits[i].fetch_add(1);
                                 });
            });
        for (auto &t : submitters)
            t.join();
    };
    hammer();
    pool.resize(5);
    EXPECT_EQ(pool.threadCount(), 5u);
    hammer();
    pool.resize(2);
    hammer();
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 9u) << "i=" << i;
}

TEST(ThreadPool, WorkerChunksCarrySubmitterTraceId)
{
    // Two lanes with different trace ids share the pool; every chunk,
    // whichever thread runs it, sees its own submitter's id. An
    // untraced region afterwards sees 0 (workers restore the id).
    ThreadPool pool(4);
    std::atomic<uint32_t> chunks{0};
    std::atomic<uint32_t> on_workers{0};
    std::atomic<uint32_t> mismatches{0};
    auto lane = [&](uint64_t id) {
        const obs::ScopedTraceId trace(id);
        const auto submitter = std::this_thread::get_id();
        for (int round = 0; round < 16; ++round)
            pool.parallelFor(0, 64, 1, [&, id](size_t, size_t) {
                chunks.fetch_add(1);
                if (std::this_thread::get_id() != submitter)
                    on_workers.fetch_add(1);
                if (obs::currentTraceId() != id)
                    mismatches.fetch_add(1);
                // Long enough that workers wake and take chunks.
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            });
    };
    std::thread a(lane, 101);
    std::thread b(lane, 202);
    a.join();
    b.join();
    EXPECT_EQ(chunks.load(), 2u * 16 * 16); // 16 chunks per region
    EXPECT_GT(on_workers.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);

    pool.parallelFor(0, 64, 1, [&](size_t, size_t) {
        if (obs::currentTraceId() != 0)
            mismatches.fetch_add(1);
    });
    EXPECT_EQ(mismatches.load(), 0u);
}

/** RAII environment-variable override for the tests below. */
// getenv/setenv/unsetenv are mt-unsafe only against concurrent env
// mutation; the tests using ScopedEnv are single-threaded and never
// overlap with pool workers reading the environment.
// NOLINTBEGIN(concurrency-mt-unsafe)
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr)
            saved_ = old;
        had_ = old != nullptr;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::string saved_;
    bool had_ = false;
};
// NOLINTEND(concurrency-mt-unsafe)

TEST(Env, UintParsesWellFormedValues)
{
    ScopedEnv e("UNIZK_TEST_UINT", "42");
    EXPECT_EQ(envUint("UNIZK_TEST_UINT", 1, 100), 42u);
    ScopedEnv hex("UNIZK_TEST_UINT", "0x10");
    EXPECT_EQ(envUint("UNIZK_TEST_UINT", 1, 100), 16u);
}

TEST(Env, UintUnsetIsNullopt)
{
    ScopedEnv e("UNIZK_TEST_UINT", nullptr);
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 100).has_value());
}

TEST(Env, UintRejectsTrailingJunk)
{
    // Regression: bare strtoul() silently parsed "8abc" as 8.
    ScopedEnv e("UNIZK_TEST_UINT", "8abc");
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 100).has_value());
}

TEST(Env, UintRejectsOutOfRangeAndOverflow)
{
    // Regression: 2^32 + 1 wrapped to 1 on the unsigned narrowing cast.
    ScopedEnv big("UNIZK_TEST_UINT", "4294967297");
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 4096).has_value());
    ScopedEnv huge("UNIZK_TEST_UINT", "99999999999999999999999999");
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 4096).has_value());
    ScopedEnv zero("UNIZK_TEST_UINT", "0");
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 4096).has_value());
}

TEST(Env, UintRejectsSignsAndEmpty)
{
    // "-1" converts to a huge positive under strtoul's wraparound.
    ScopedEnv neg("UNIZK_TEST_UINT", "-1");
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 100).has_value());
    ScopedEnv plus("UNIZK_TEST_UINT", "+3");
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 100).has_value());
    ScopedEnv empty("UNIZK_TEST_UINT", "");
    EXPECT_FALSE(envUint("UNIZK_TEST_UINT", 1, 100).has_value());
}

TEST(Env, FlagSpellings)
{
    for (const char *on : {"1", "on", "true", "yes"}) {
        ScopedEnv e("UNIZK_TEST_FLAG", on);
        EXPECT_EQ(envFlag("UNIZK_TEST_FLAG"), true) << on;
    }
    for (const char *off : {"0", "off", "false", "no"}) {
        ScopedEnv e("UNIZK_TEST_FLAG", off);
        EXPECT_EQ(envFlag("UNIZK_TEST_FLAG"), false) << off;
    }
    // Regression: a typo like "flase" used to silently mean "enabled".
    ScopedEnv typo("UNIZK_TEST_FLAG", "flase");
    EXPECT_FALSE(envFlag("UNIZK_TEST_FLAG").has_value());
    ScopedEnv unset("UNIZK_TEST_FLAG", nullptr);
    EXPECT_FALSE(envFlag("UNIZK_TEST_FLAG").has_value());
}

TEST(Env, ChoiceMatchesAllowedSpellings)
{
    // The UNIZK_SIMD contract: exact lowercase spellings map to their
    // index in the allowed list.
    const auto allowed = {"auto", "avx2", "scalar"};
    {
        ScopedEnv e("UNIZK_TEST_CHOICE", "auto");
        EXPECT_EQ(envChoice("UNIZK_TEST_CHOICE", allowed), 0u);
    }
    {
        ScopedEnv e("UNIZK_TEST_CHOICE", "avx2");
        EXPECT_EQ(envChoice("UNIZK_TEST_CHOICE", allowed), 1u);
    }
    {
        ScopedEnv e("UNIZK_TEST_CHOICE", "scalar");
        EXPECT_EQ(envChoice("UNIZK_TEST_CHOICE", allowed), 2u);
    }
}

TEST(Env, ChoiceRejectsUnknownSpellingsAndUnset)
{
    const auto allowed = {"auto", "avx2", "scalar"};
    // Strict parsing: case variants, whitespace, and typos all warn
    // and fall back rather than silently meaning something.
    for (const char *bad : {"AVX2", " scalar", "scalar ", "sse", ""}) {
        ScopedEnv e("UNIZK_TEST_CHOICE", bad);
        EXPECT_FALSE(envChoice("UNIZK_TEST_CHOICE", allowed).has_value())
            << "'" << bad << "'";
    }
    ScopedEnv unset("UNIZK_TEST_CHOICE", nullptr);
    EXPECT_FALSE(envChoice("UNIZK_TEST_CHOICE", allowed).has_value());
}

TEST(Env, ThreadCountFallsBackOnMalformedEnv)
{
    {
        ScopedEnv e("UNIZK_THREADS", "3");
        setGlobalThreadCount(0);
        EXPECT_EQ(globalThreadCount(), 3u);
    }
    {
        // Under bare strtoul this silently became an 8-thread pool.
        ScopedEnv e("UNIZK_THREADS", "8abc");
        setGlobalThreadCount(0);
        unsigned hw = std::thread::hardware_concurrency();
        EXPECT_EQ(globalThreadCount(), hw ? hw : 1u);
    }
    ScopedEnv clear("UNIZK_THREADS", nullptr);
    setGlobalThreadCount(0); // restore auto for other tests
}

TEST(RngDeathTest, NextBelowZeroBoundAsserts)
{
    // Regression: bound == 0 divided by zero in ~0ULL / bound.
    SplitMix64 rng(7);
    EXPECT_DEATH(rng.nextBelow(0), "positive bound");
}

TEST(Rng, NextBelowBoundOneIsZero)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

} // namespace
} // namespace unizk
