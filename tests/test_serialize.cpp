/**
 * @file
 * Tests for proof serialization: byte-level primitives, round trips
 * for every proof type (the round-tripped proof must still verify),
 * and robustness against truncated / corrupted / non-canonical input,
 * including a one-bit flip in every word of small proofs.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "serialize/bytes.h"
#include "serialize/proof_io.h"
#include "workloads/apps.h"

namespace unizk {
namespace {

TEST(Bytes, U64RoundTrip)
{
    ByteWriter w;
    w.putU64(0);
    w.putU64(~0ULL);
    w.putU64(0x0123456789ABCDEFULL);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_EQ(r.getU64(), ~0ULL);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFULL);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, ReadPastEndFails)
{
    ByteWriter w;
    w.putU64(5);
    ByteReader r(w.bytes());
    r.getU64();
    r.getU64(); // past end
    EXPECT_FALSE(r.ok());
}

TEST(Bytes, NonCanonicalFieldElementRejected)
{
    ByteWriter w;
    w.putU64(Fp::modulus); // not a canonical residue
    ByteReader r(w.bytes());
    r.getFp();
    EXPECT_FALSE(r.ok());
}

TEST(Bytes, FailedReaderStaysFailed)
{
    std::vector<uint8_t> empty;
    ByteReader r(empty);
    r.getU64();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_FALSE(r.exhausted());
}

TEST(Bytes, FpVectorBounded)
{
    ByteWriter w;
    w.putU64(1000); // claimed length far beyond limit
    ByteReader r(w.bytes());
    r.getFpVector(10);
    EXPECT_FALSE(r.ok());
}

TEST(Bytes, FpVectorLengthBoundedByRemainingBytes)
{
    // A length prefix within the structural limit but beyond the bytes
    // actually present must fail before sizing the vector -- this is
    // what stops a tiny input from forcing a huge allocation even when
    // the caller's structural bound is generous.
    ByteWriter w;
    w.putU64(uint64_t{1} << 28); // claims 2^28 elements, provides none
    ByteReader r(w.bytes());
    const auto v = r.getFpVector(uint64_t{1} << 28);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(v.empty());
}

TEST(Bytes, RemainingAndCanRead)
{
    ByteWriter w;
    w.putU64(1);
    w.putU64(2);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.remaining(), 16u);
    EXPECT_TRUE(r.canRead(2, 8));
    EXPECT_FALSE(r.canRead(3, 8));
    EXPECT_FALSE(r.canRead(uint64_t{1} << 60, 8)); // no overflow trap
    r.getU64();
    EXPECT_EQ(r.remaining(), 8u);
    r.getU64();
    r.getU64(); // fails
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_FALSE(r.canRead(1, 8));
}

/** Build a small verified Plonk proof once for the suite. */
struct PlonkProofFixture
{
    FriConfig cfg = FriConfig::testing();
    PlonkApp app = buildPlonkApp(AppId::Fibonacci, 64, 2);
    PlonkProvingKey key;
    PlonkProof proof;

    PlonkProofFixture()
    {
        ProverContext ctx;
        key = plonkSetup(app.circuit, cfg, ctx);
        proof = plonkProve(app.circuit, key, app.witnesses, cfg, ctx);
    }
};

TEST(ProofIo, PlonkRoundTripVerifies)
{
    PlonkProofFixture f;
    const auto bytes = serializePlonkProof(f.proof);
    EXPECT_GT(bytes.size(), 1000u);
    const auto back = deserializePlonkProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(plonkVerify(f.key.constants->cap(), *back, f.cfg));
    // Re-serialization is byte-identical (canonical encoding).
    EXPECT_EQ(serializePlonkProof(*back), bytes);
}

TEST(ProofIo, PlonkTruncatedRejected)
{
    PlonkProofFixture f;
    auto bytes = serializePlonkProof(f.proof);
    for (const size_t keep :
         {size_t{0}, size_t{7}, bytes.size() / 2, bytes.size() - 1}) {
        std::vector<uint8_t> cut(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_FALSE(deserializePlonkProof(cut).has_value())
            << "kept " << keep;
    }
}

// ---- DoS regressions: crafted headers whose length prefixes claim
// enormous vectors must be rejected up front. Before the remaining-bytes
// bound, each of these forced the deserializer to resize() gigabytes
// from a few dozen input bytes.

TEST(ProofIo, HugeFinalPolyClaimRejected)
{
    ByteWriter w;
    w.putU64(0);                 // no layer caps
    w.putU64(uint64_t{1} << 28); // finalPoly claims 2^28 Fp2 = 4 GiB
    const auto bytes = w.take();
    EXPECT_LT(bytes.size(), 64u);
    EXPECT_FALSE(deserializeFriProof(bytes).has_value());
}

TEST(ProofIo, HugeCapClaimRejected)
{
    ByteWriter w;
    w.putU64(1);                 // one layer cap...
    w.putU64(uint64_t{1} << 16); // ...claiming 2^16 hashes = 2 MiB
    const auto bytes = w.take();
    EXPECT_LT(bytes.size(), 64u);
    EXPECT_FALSE(deserializeFriProof(bytes).has_value());
}

TEST(ProofIo, HugeOpeningsClaimRejected)
{
    ByteWriter w;
    w.putU64(16);                // rows
    w.putU64(1);                 // columns
    w.putU64(1);                 // quotient chunks
    w.putU64(0);                 // trace cap (empty)
    w.putU64(0);                 // quotient cap (empty)
    w.putU64(1);                 // one openings row...
    w.putU64(uint64_t{1} << 28); // ...claiming 2^28 Fp2 values
    const auto bytes = w.take();
    EXPECT_LT(bytes.size(), 64u);
    EXPECT_FALSE(deserializeStarkProof(bytes).has_value());
}

TEST(ProofIo, HugeQueryVectorClaimRejected)
{
    ByteWriter w;
    w.putU64(0);                 // no layer caps
    w.putU64(0);                 // empty final poly
    w.putU64(7);                 // pow nonce
    w.putU64(1);                 // one query round
    w.putU64(1);                 // one initial opening...
    w.putU64(uint64_t{1} << 28); // ...whose values claim 2^28 Fp
    const auto bytes = w.take();
    EXPECT_LT(bytes.size(), 80u);
    EXPECT_FALSE(deserializeFriProof(bytes).has_value());
}

TEST(ProofIo, HugeMerkleProofClaimRejected)
{
    ByteWriter w;
    w.putU64(0); // no layer caps
    w.putU64(0); // empty final poly
    w.putU64(7); // pow nonce
    w.putU64(1); // one query round
    w.putU64(1); // one initial opening
    w.putU64(0); // empty values vector
    w.putU64(64); // merkle proof claims 64 siblings, provides none
    const auto bytes = w.take();
    EXPECT_LT(bytes.size(), 80u);
    EXPECT_FALSE(deserializeFriProof(bytes).has_value());
}

TEST(ProofIo, HugePublicInputRowsClaimRejected)
{
    ByteWriter w;
    w.putU64(64);   // rows
    w.putU64(2);    // repetitions
    w.putU64(4096); // public-input rows claimed, none present
    const auto bytes = w.take();
    EXPECT_LT(bytes.size(), 64u);
    EXPECT_FALSE(deserializePlonkProof(bytes).has_value());
}

TEST(ProofIo, TruncatedSumcheckRoundsRejected)
{
    ByteWriter w;
    w.putFp(Fp(1)); // claimed sum
    w.putU64(64);   // claims 64 rounds, provides none
    const auto bytes = w.take();
    EXPECT_FALSE(deserializeSumcheckProof(bytes).has_value());
}

TEST(ProofIo, PlonkTrailingGarbageRejected)
{
    PlonkProofFixture f;
    auto bytes = serializePlonkProof(f.proof);
    bytes.push_back(0);
    EXPECT_FALSE(deserializePlonkProof(bytes).has_value());
}

/**
 * Flip one bit in every 8-byte word of @p bytes -- bit w mod 64 of word
 * w, so the flips sweep every bit position -- and expect @p accepts
 * (decode, then verify) to refuse each mutant, at 1 and 4 pool threads.
 */
template <typename Accepts>
void
expectEveryWordFlipRejected(std::vector<uint8_t> bytes, Accepts accepts)
{
    ASSERT_EQ(bytes.size() % 8, 0u);
    for (const unsigned threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        for (size_t w = 0; w < bytes.size() / 8; ++w) {
            const size_t bit = w % 64;
            uint8_t &byte = bytes[8 * w + bit / 8];
            const auto mask = static_cast<uint8_t>(uint64_t{1} << (bit % 8));
            byte ^= mask;
            EXPECT_FALSE(accepts(bytes))
                << "word " << w << " bit " << bit << " threads " << threads;
            byte ^= mask;
        }
    }
    setGlobalThreadCount(0);
}

TEST(ProofIo, PlonkCorruptedEitherRejectedOrFailsVerify)
{
    PlonkProofFixture f;
    const auto bytes = serializePlonkProof(f.proof);
    SplitMix64 rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        auto bad = bytes;
        bad[rng.nextBelow(bad.size())] ^=
            static_cast<uint8_t>(1 + rng.nextBelow(255));
        const auto back = deserializePlonkProof(bad);
        if (back.has_value()) {
            EXPECT_FALSE(
                plonkVerify(f.key.constants->cap(), *back, f.cfg))
                << "trial " << trial;
        }
    }
    expectEveryWordFlipRejected(bytes, [&](const auto &bad) {
        const auto back = deserializePlonkProof(bad);
        return back.has_value() &&
               plonkVerify(f.key.constants->cap(), *back, f.cfg);
    });
}

TEST(ProofIo, StarkRoundTripVerifies)
{
    FriConfig cfg = FriConfig::testing();
    cfg.blowupBits = 1;
    cfg.numQueries = 10;
    const StarkApp app = buildStarkApp(AppId::Fibonacci, 128);
    ProverContext ctx;
    const StarkProof proof = starkProve(*app.air, app.trace, cfg, ctx);

    const auto bytes = serializeStarkProof(proof);
    const auto back = deserializeStarkProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(starkVerify(*app.air, *back, cfg));
    EXPECT_EQ(serializeStarkProof(*back), bytes);
}

TEST(ProofIo, StarkCorruptedEitherRejectedOrFailsVerify)
{
    FriConfig cfg = FriConfig::testing();
    cfg.blowupBits = 1;
    cfg.numQueries = 10;
    const StarkApp app = buildStarkApp(AppId::Fibonacci, 128);
    ProverContext ctx;
    const StarkProof proof = starkProve(*app.air, app.trace, cfg, ctx);
    const auto bytes = serializeStarkProof(proof);
    ASSERT_TRUE(starkVerify(*app.air, proof, cfg));
    expectEveryWordFlipRejected(bytes, [&](const auto &bad) {
        const auto back = deserializeStarkProof(bad);
        return back.has_value() && starkVerify(*app.air, *back, cfg);
    });
}

TEST(ProofIo, StarkTruncatedRejected)
{
    FriConfig cfg = FriConfig::testing();
    const StarkApp app = buildStarkApp(AppId::Factorial, 64);
    ProverContext ctx;
    const StarkProof proof = starkProve(*app.air, app.trace, cfg, ctx);
    auto bytes = serializeStarkProof(proof);
    bytes.resize(bytes.size() / 3);
    EXPECT_FALSE(deserializeStarkProof(bytes).has_value());
}

TEST(ProofIo, FriRoundTrip)
{
    PlonkProofFixture f;
    const auto bytes = serializeFriProof(f.proof.fri);
    const auto back = deserializeFriProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serializeFriProof(*back), bytes);
    EXPECT_EQ(back->powNonce, f.proof.fri.powNonce);
    EXPECT_EQ(back->finalPoly.size(), f.proof.fri.finalPoly.size());
    EXPECT_EQ(back->queries.size(), f.proof.fri.queries.size());
}

TEST(ProofIo, SumcheckRoundTripVerifies)
{
    SplitMix64 rng(3);
    std::vector<Fp> table(1 << 6);
    for (auto &x : table)
        x = randomFp(rng);
    Challenger ch;
    const SumcheckProof proof = sumcheckProve(table, ch);

    const auto bytes = serializeSumcheckProof(proof);
    const auto back = deserializeSumcheckProof(bytes);
    ASSERT_TRUE(back.has_value());
    Challenger vch;
    EXPECT_TRUE(sumcheckVerify(*back, 6, vch));
    EXPECT_EQ(serializeSumcheckProof(*back), bytes);
}

TEST(ProofIo, SumcheckGarbageRejected)
{
    std::vector<uint8_t> garbage(100, 0xFF);
    EXPECT_FALSE(deserializeSumcheckProof(garbage).has_value());
}

TEST(ProofIo, SerializedSizeTracksByteSizeEstimate)
{
    // The analytic byteSize() used for Table 5 must be close to the
    // real wire size (within the length-prefix overhead).
    PlonkProofFixture f;
    const auto bytes = serializePlonkProof(f.proof);
    const double ratio = static_cast<double>(bytes.size()) /
                         static_cast<double>(f.proof.byteSize());
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.5);
}

} // namespace
} // namespace unizk
