#include "unizk/pipeline.h"

#include "obs/obs.h"
#include "serialize/proof_io.h"

namespace unizk {

namespace {

/** Bytes of a committed batch: coefficients, LDE leaves, digests. */
size_t
batchBytes(const PolynomialBatch &batch)
{
    const size_t polys = batch.polyCount();
    const size_t lde = batch.ldeSize();
    return polys * batch.degreeBound() * sizeof(Fp) +
           lde * (polys * sizeof(Fp) + sizeof(std::vector<Fp>)) +
           2 * lde * sizeof(HashOut);
}

} // namespace

size_t
PreparedApp::estimatedBytes() const
{
    if (stark) {
        size_t cells = 0;
        for (const std::vector<Fp> &column : stark->trace)
            cells += column.size();
        return cells * sizeof(Fp);
    }
    // Five selector and one permutation column in the circuit, three
    // sigma value columns in the key, plus the witness inputs.
    size_t bytes = batchBytes(*key.constants) + 9 * rows * sizeof(Fp);
    for (const std::vector<Fp> &inputs : plonk->witnesses)
        bytes += inputs.size() * sizeof(Fp);
    return bytes;
}

PreparedApp
preparePlonky2App(AppId app, size_t rows, size_t repetitions,
                  const FriConfig &cfg)
{
    UNIZK_SPAN("pipeline/prepare");
    PreparedApp prepared;
    prepared.app = app;
    prepared.repetitions = repetitions;
    prepared.cfg = cfg;
    prepared.plonk = buildPlonkApp(app, rows, repetitions);
    prepared.rows = prepared.plonk->circuit.rows();
    prepared.key =
        plonkSetup(prepared.plonk->circuit, cfg, ProverContext{});
    return prepared;
}

PreparedApp
prepareStarkyApp(AppId app, size_t rows, const FriConfig &cfg)
{
    UNIZK_SPAN("pipeline/prepare");
    PreparedApp prepared;
    prepared.app = app;
    prepared.rows = rows;
    prepared.cfg = cfg;
    prepared.stark = buildStarkApp(app, rows);
    return prepared;
}

AppRunResult
provePreparedApp(const PreparedApp &prepared, const HardwareConfig &hw,
                 bool verify_proof)
{
    AppRunResult result;
    result.app = appName(prepared.app);
    result.rows = prepared.rows;
    result.repetitions = prepared.repetitions;

    TraceRecorder recorder;
    ProverContext ctx;
    ctx.breakdown = &result.cpuBreakdown;
    ctx.recorder = &recorder;

    const FriConfig &cfg = prepared.cfg;
    const Stopwatch watch;
    if (prepared.plonk) {
        const PlonkApp &instance = *prepared.plonk;
        const PlonkProof proof = plonkProve(
            instance.circuit, prepared.key, instance.witnesses, cfg, ctx);
        result.cpuSeconds = watch.elapsedSeconds();
        result.proofBytes = proof.byteSize();
        result.proofBlob = serializePlonkProof(proof);
        UNIZK_SPAN("pipeline/verify");
        result.verified =
            !verify_proof ||
            plonkVerify(prepared.key.constants->cap(), proof, cfg);
    } else {
        const StarkApp &instance = *prepared.stark;
        const StarkProof proof =
            starkProve(*instance.air, instance.trace, cfg, ctx);
        result.cpuSeconds = watch.elapsedSeconds();
        result.proofBytes = proof.byteSize();
        result.proofBlob = serializeStarkProof(proof);
        UNIZK_SPAN("pipeline/verify");
        result.verified =
            !verify_proof || starkVerify(*instance.air, proof, cfg);
    }

    result.trace = recorder.takeTrace();
    result.sim = simulateTrace(result.trace, hw);
    return result;
}

AppRunResult
runPlonky2App(AppId app, size_t rows, size_t repetitions,
              const FriConfig &cfg, const HardwareConfig &hw,
              bool verify_proof)
{
    UNIZK_SPAN("pipeline/plonky2-app");
    return provePreparedApp(preparePlonky2App(app, rows, repetitions, cfg),
                            hw, verify_proof);
}

AppRunResult
runStarkyApp(AppId app, size_t rows, const FriConfig &cfg,
             const HardwareConfig &hw, bool verify_proof)
{
    UNIZK_SPAN("pipeline/starky-app");
    return provePreparedApp(prepareStarkyApp(app, rows, cfg), hw,
                            verify_proof);
}

obs::RunStats
toRunStats(const AppRunResult &result, const std::string &protocol,
           unsigned threads)
{
    obs::RunStats stats;
    stats.app = result.app;
    stats.protocol = protocol;
    stats.rows = result.rows;
    stats.repetitions = result.repetitions;
    stats.threads = threads;
    stats.cpuSeconds = result.cpuSeconds;
    stats.cpuBreakdown = result.cpuBreakdown;
    stats.sim = result.sim;
    stats.proofBytes = result.proofBytes;
    stats.verified = result.verified;
    return stats;
}

} // namespace unizk
