#!/usr/bin/env python3
"""Self-test for unizk_lint: every rule has fixture snippets that must
trigger and snippets that must not, plus suppression-syntax coverage.

Run directly (python3 tools/lint/test_unizk_lint.py) or via ctest
(registered as `lint_selftest`).
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import unizk_lint  # noqa: E402


class LintHarness(unittest.TestCase):
    """Writes a snippet to a synthetic repo-relative path and lints it."""

    def lint(self, relpath, source):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(source)
            return unizk_lint.lint_file(path, root)

    def assert_rules(self, relpath, source, expected_rules):
        findings = self.lint(relpath, source)
        self.assertEqual(
            sorted({f.rule for f in findings}),
            sorted(set(expected_rules)),
            msg="findings were: "
            + "; ".join(f.render() for f in findings),
        )

    def assert_clean(self, relpath, source):
        self.assert_rules(relpath, source, [])


class TestFpRawArith(LintHarness):
    def test_modulo_on_value_triggers(self):
        self.assert_rules(
            "src/fri/query.cpp",
            "size_t idx = c.challenge().value() % domain;\n",
            ["fp-raw-arith"],
        )

    def test_shift_on_value_triggers(self):
        self.assert_rules(
            "src/hash/pow.cpp",
            "uint64_t hi = h.value() >> (64 - bits);\n",
            ["fp-raw-arith"],
        )

    def test_add_into_value_triggers(self):
        self.assert_rules(
            "tests/test_x.cpp",
            "uint64_t s = base + x.value();\n",
            ["fp-raw-arith"],
        )

    def test_allowed_inside_field_dir(self):
        self.assert_clean(
            "src/field/goldilocks_extra.cpp",
            "uint64_t s = a.value() + b.value();\n",
        )

    def test_comparison_is_fine(self):
        self.assert_clean(
            "src/serialize/bytes2.h",
            "if (v.value() == 0 || v.value() < bound) {}\n",
        )

    def test_passing_value_as_argument_is_fine(self):
        self.assert_clean(
            "src/serialize/bytes2.h",
            "w.putU64(v.value());\n",
        )

    def test_arith_inside_comment_is_fine(self):
        self.assert_clean(
            "src/fri/query.cpp",
            "// idx = c.challenge().value() % domain\nint x = 0;\n",
        )


class TestNondetContainer(LintHarness):
    def test_unordered_map_in_prover_path_triggers(self):
        self.assert_rules(
            "src/plonk/cache.cpp",
            "std::unordered_map<uint64_t, int> memo;\n",
            ["nondet-container"],
        )

    def test_unordered_set_in_merkle_triggers(self):
        self.assert_rules(
            "src/merkle/dedup.h",
            "std::unordered_set<uint64_t> seen;\n",
            ["nondet-container"],
        )

    def test_rand_in_fri_triggers(self):
        self.assert_rules(
            "src/fri/sample.cpp",
            "int r = rand() % 16;\n",
            ["nondet-container", "fp-raw-arith"][:1],
        )

    def test_mt19937_in_stark_triggers(self):
        self.assert_rules(
            "src/stark/noise.cpp",
            "std::mt19937_64 gen(seed);\n",
            ["nondet-container"],
        )

    def test_random_device_in_hash_triggers(self):
        self.assert_rules(
            "src/hash/seed.cpp",
            "std::random_device rd;\n",
            ["nondet-container"],
        )

    def test_unordered_map_outside_prover_path_is_fine(self):
        self.assert_clean(
            "src/sim/table.cpp",
            "std::unordered_map<uint64_t, int> memo;\n",
        )

    def test_deterministic_rng_is_fine(self):
        self.assert_clean(
            "src/fri/sample.cpp",
            "SplitMix64 rng(42);\nFp x = randomFp(rng);\n",
        )

    def test_randomFp_name_not_confused_with_rand(self):
        self.assert_clean(
            "src/merkle/leaves.cpp",
            "auto v = randomFp(rng);\n",
        )


class TestAssertSideEffect(LintHarness):
    def test_increment_triggers(self):
        self.assert_rules(
            "src/ntt/check.cpp",
            "unizk_assert(++count < limit, \"overflow\");\n",
            ["assert-side-effect"],
        )

    def test_assignment_triggers(self):
        self.assert_rules(
            "src/common/check.cpp",
            "assert(x = compute());\n",
            ["assert-side-effect"],
        )

    def test_compound_assignment_triggers(self):
        self.assert_rules(
            "src/common/check.cpp",
            "unizk_assert((total += n) < cap, \"cap\");\n",
            ["assert-side-effect"],
        )

    def test_multiline_assert_with_side_effect_triggers(self):
        self.assert_rules(
            "src/common/check.cpp",
            "unizk_assert(\n    consume(it++),\n    \"msg\");\n",
            ["assert-side-effect"],
        )

    def test_comparisons_are_fine(self):
        self.assert_clean(
            "src/ntt/check.cpp",
            'unizk_assert(a == b && c != d && e <= f && g >= h, "ok");\n',
        )

    def test_pure_call_is_fine(self):
        self.assert_clean(
            "src/ntt/check.cpp",
            'unizk_assert(isPowerOfTwo(n), "power of two");\n',
        )

    def test_message_text_cannot_trigger(self):
        self.assert_clean(
            "src/ntt/check.cpp",
            'unizk_assert(ok, "x = 1, then ++ it");\n',
        )


class TestUnguardedShift(LintHarness):
    def test_int_one_shift_by_variable_triggers(self):
        self.assert_rules(
            "src/sim/addr.cpp",
            "size_t n = 1 << log_n;\n",
            ["unguarded-shift"],
        )

    def test_unsigned_one_shift_by_variable_triggers(self):
        self.assert_rules(
            "src/fri/fold.cpp",
            "uint32_t b = 1u << blowupBits;\n",
            ["unguarded-shift"],
        )

    def test_shift_by_call_triggers(self):
        self.assert_rules(
            "src/sim/addr.cpp",
            "auto n = 2 << dims.front();\n",
            ["unguarded-shift"],
        )

    def test_literal_shift_amount_is_fine(self):
        self.assert_clean(
            "src/sim/addr.cpp",
            "size_t mb = 1 << 20;\n",
        )

    def test_ull_suffix_is_fine(self):
        self.assert_clean(
            "src/sim/addr.cpp",
            "uint64_t n = 1ULL << log_n;\n",
        )

    def test_brace_init_base_is_fine(self):
        self.assert_clean(
            "src/sim/addr.cpp",
            "const size_t n1 = size_t{1} << log_n_max;\n"
            "const uint64_t n2 = uint64_t{1} << log_size;\n",
        )

    def test_stream_output_not_confused(self):
        self.assert_clean(
            "src/sim/report.cpp",
            'oss << cycles << " cycles";\n',
        )


class TestNttCoreOutside(LintHarness):
    def test_w_len_chain_in_prover_path_triggers(self):
        self.assert_rules(
            "src/fri/fold.cpp",
            "Fp w_len = Fp::primitiveRootOfUnity(log2Exact(n));\n"
            "for (size_t j = 0; j < half; ++j) { w *= w_len; }\n",
            ["ntt-core-outside"],
        )

    def test_core_call_outside_ntt_triggers(self):
        self.assert_rules(
            "src/poly/fast_eval.cpp",
            "difTabled(a.data(), n, tw, 1);\n",
            ["ntt-core-outside"],
        )

    def test_butterfly_call_in_tests_triggers(self):
        self.assert_rules(
            "tests/test_custom.cpp",
            "ditButterfly(lo[j], hi[j], tw[j]);\n",
            ["ntt-core-outside"],
        )

    def test_allowed_inside_ntt_dir(self):
        self.assert_clean(
            "src/ntt/ntt_extra.cpp",
            "Fp w_len = forwardRoot(n);\n"
            "difTabled(a.data(), n, tw, 1);\n",
        )

    def test_entry_point_calls_are_fine(self):
        self.assert_clean(
            "src/fri/fri_extra.cpp",
            "nttNR(values);\n"
            "auto lde = lowDegreeExtension(coeffs, blowup, shift);\n",
        )

    def test_word_containing_w_len_is_fine(self):
        self.assert_clean(
            "src/plonk/gates.cpp",
            "size_t row_length = table.row_len();\n",
        )


class TestFloatInCore(LintHarness):
    def test_double_in_field_triggers(self):
        self.assert_rules(
            "src/field/approx.cpp",
            "double ratio = 0.5;\n",
            ["float-in-core"],
        )

    def test_float_in_ntt_triggers(self):
        self.assert_rules(
            "src/ntt/tuning.h",
            "float factor = 1.5f;\n",
            ["float-in-core"],
        )

    def test_double_in_hash_triggers(self):
        self.assert_rules(
            "src/hash/stats.cpp",
            "long double precise = 0.0L;\n",
            ["float-in-core"],
        )

    def test_double_outside_core_is_fine(self):
        self.assert_clean(
            "src/model/energy.cpp",
            "double joules = cycles * watts;\n",
        )

    def test_doubled_identifier_is_fine(self):
        self.assert_clean(
            "src/field/goldilocks2.h",
            "Fp doubled() const { return *this + *this; }\n"
            "Fp y = x.doubled();\n",
        )


class TestRawChrono(LintHarness):
    def test_steady_clock_in_plonk_triggers(self):
        self.assert_rules(
            "src/plonk/timing.cpp",
            "auto t0 = std::chrono::steady_clock::now();\n",
            ["raw-chrono"],
        )

    def test_chrono_include_in_ntt_triggers(self):
        self.assert_rules(
            "src/ntt/bench_helper.h",
            "#include <chrono>\n",
            ["raw-chrono"],
        )

    def test_high_resolution_clock_in_fri_triggers(self):
        self.assert_rules(
            "src/fri/prof.cpp",
            "using clk = high_resolution_clock;\n",
            ["raw-chrono"],
        )

    def test_chrono_in_cli_pipeline_triggers(self):
        self.assert_rules(
            "src/unizk/profile.cpp",
            "std::chrono::milliseconds budget(100);\n",
            ["raw-chrono"],
        )

    def test_chrono_in_stats_layer_is_fine(self):
        self.assert_clean(
            "src/common/stats2.h",
            "#include <chrono>\n"
            "auto t = std::chrono::steady_clock::now();\n",
        )

    def test_chrono_in_obs_is_fine(self):
        self.assert_clean(
            "src/obs/clock.cpp",
            "auto t = std::chrono::steady_clock::now();\n",
        )

    def test_sanctioned_timers_are_fine(self):
        self.assert_clean(
            "src/plonk/timing.cpp",
            "Stopwatch sw;\n"
            "const KernelScope scope(ctx, KernelClass::Ntt, \"ntt\");\n",
        )

    def test_chrono_in_comment_is_fine(self):
        self.assert_clean(
            "src/fri/doc.cpp",
            "// used to use std::chrono here\nint x = 0;\n",
        )


class TestRawSyncPrimitive(LintHarness):
    def test_std_mutex_member_triggers(self):
        self.assert_rules(
            "src/service/pool.h",
            "class P { std::mutex mu_; };\n",
            ["raw-sync-primitive"],
        )

    def test_condition_variable_triggers(self):
        self.assert_rules(
            "src/common/worker.cpp",
            "std::condition_variable cv;\n",
            ["raw-sync-primitive"],
        )

    def test_lock_guard_triggers(self):
        self.assert_rules(
            "src/obs/reg.cpp",
            "std::lock_guard<std::mutex> lock(mu);\n",
            ["raw-sync-primitive"],
        )

    def test_unique_lock_in_tests_triggers(self):
        self.assert_rules(
            "tests/test_x.cpp",
            "std::unique_lock<std::mutex> lock(mu);\n",
            ["raw-sync-primitive"],
        )

    def test_mutex_include_triggers(self):
        self.assert_rules(
            "src/ntt/cache.cpp",
            "#include <mutex>\n",
            ["raw-sync-primitive"],
        )

    def test_allowed_inside_sync_header(self):
        self.assert_clean(
            "src/common/sync.h",
            "#include <mutex>\n#include <condition_variable>\n"
            "std::mutex mu_;\nstd::condition_variable cv_;\n",
        )

    def test_wrappers_are_fine(self):
        self.assert_clean(
            "src/service/pool.h",
            "Mutex mu_ UNIZK_GUARDED_BY(mu_);\nCondVar cv_;\n"
            "MutexLock lock(mu_);\n"
            "ReleasableMutexLock rlock(mu_);\n",
        )

    def test_atomics_and_threads_are_fine(self):
        self.assert_clean(
            "src/service/pool.h",
            "#include <atomic>\n#include <thread>\n"
            "std::atomic<bool> stop{false};\nstd::thread worker;\n",
        )

    def test_mention_in_comment_is_fine(self):
        self.assert_clean(
            "src/service/pool.h",
            "// previously used a std::mutex here\nint x = 0;\n",
        )

    def test_same_line_suppression(self):
        self.assert_clean(
            "src/service/legacy.h",
            "std::mutex mu_;  "
            "// unizk-lint: disable=raw-sync-primitive\n",
        )


class TestRawSimdIntrinsic(LintHarness):
    def test_mm256_call_outside_simd_layer_triggers(self):
        self.assert_rules(
            "src/ntt/butterfly.cpp",
            "__m256i s = _mm256_add_epi64(a, b);\n",
            ["raw-simd-intrinsic"],
        )

    def test_mm_prefix_without_width_triggers(self):
        self.assert_rules(
            "src/merkle/fast.cpp",
            "auto x = _mm_shuffle_epi8(v, mask);\n",
            ["raw-simd-intrinsic"],
        )

    def test_vector_type_triggers(self):
        self.assert_rules(
            "src/poly/eval.h",
            "struct Lane { __m512d v; };\n",
            # __m512d also trips float-in-core? no: poly not in scope;
            # the d suffix is matched by the [id]? group.
            ["raw-simd-intrinsic"],
        )

    def test_immintrin_include_triggers(self):
        self.assert_rules(
            "tests/test_x.cpp",
            "#include <immintrin.h>\n",
            ["raw-simd-intrinsic"],
        )

    def test_allowed_in_goldilocks_simd_header(self):
        self.assert_clean(
            "src/field/goldilocks_simd.h",
            "__m256i v;\n",
        )

    def test_allowed_in_avx2_backend_tu(self):
        # The exclude is a path *prefix*, so the separate -mavx2 TU is
        # covered too.
        self.assert_clean(
            "src/field/goldilocks_simd_avx2.cpp",
            "#include <immintrin.h>\n"
            "__m256i s = _mm256_mul_epu32(a, b);\n",
        )

    def test_allowed_in_avx2_lane_header(self):
        self.assert_clean(
            "src/field/goldilocks_simd_avx2.h",
            "inline __m256i f(__m256i a)\n"
            "{ return _mm256_srli_epi64(a, 32); }\n",
        )

    def test_old_hash_location_no_longer_allowed(self):
        # The lane layer moved to src/field; intrinsics back under
        # src/hash would escape the one confined file set.
        self.assert_rules(
            "src/hash/goldilocks_simd_avx2.cpp",
            "__m256i s = _mm256_mul_epu32(a, b);\n",
            ["raw-simd-intrinsic"],
        )

    def test_batch_template_without_intrinsics_is_fine(self):
        self.assert_clean(
            "src/hash/poseidon_batch.h",
            "template <typename V> void f(V &x) { x = V::add(x, x); }\n",
        )

    def test_mention_in_comment_is_fine(self):
        self.assert_clean(
            "src/ntt/butterfly.cpp",
            "// could use _mm256_add_epi64 here one day\nint x = 0;\n",
        )


class TestUnguardedMutexMember(LintHarness):
    GUARDED = (
        "class Q {\n"
        "    Mutex mutex_;\n"
        "    int depth_ UNIZK_GUARDED_BY(mutex_) = 0;\n"
        "};\n"
    )

    def test_unguarded_member_triggers(self):
        self.assert_rules(
            "src/service/queue.h",
            "class Q {\n    Mutex mutex_;\n    int depth_ = 0;\n};\n",
            ["unguarded-mutex-member"],
        )

    def test_unizk_qualified_decl_triggers(self):
        self.assert_rules(
            "src/obs/reg.cpp",
            "unizk::Mutex g_mutex;\nint g_count = 0;\n",
            ["unguarded-mutex-member"],
        )

    def test_decl_with_annotation_macro_still_checked(self):
        # `Mutex a_ UNIZK_ACQUIRED_BEFORE(b_);` declares a_ without a
        # trailing ';' right after the name; it must still be found.
        self.assert_rules(
            "src/common/pool.h",
            "Mutex a_ UNIZK_ACQUIRED_BEFORE(b_);\n"
            "Mutex b_;\n"
            "int jobs_ UNIZK_GUARDED_BY(b_) = 0;\n",
            ["unguarded-mutex-member"],
        )

    def test_guarded_member_is_fine(self):
        self.assert_clean("src/service/queue.h", self.GUARDED)

    def test_pt_guarded_counts(self):
        self.assert_clean(
            "src/service/queue.h",
            "class Q {\n"
            "    Mutex mutex_;\n"
            "    Job *job_ UNIZK_PT_GUARDED_BY(mutex_) = nullptr;\n"
            "};\n",
        )

    def test_member_access_guard_expression_counts(self):
        # UNIZK_GUARDED_BY(r.mutex) guards against the Registry's own
        # mutex member (the twiddle-registry shape).
        self.assert_clean(
            "src/ntt/reg.cpp",
            "struct R {\n"
            "    Mutex mutex;\n"
            "    bool enabled UNIZK_GUARDED_BY(mutex) = true;\n"
            "};\n",
        )

    def test_mutex_reference_is_not_a_declaration(self):
        self.assert_clean(
            "src/common/sync2.h",
            "class L {\n    Mutex &mu_;\n    Mutex *pmu_;\n};\n",
        )

    def test_outside_src_is_not_checked(self):
        self.assert_clean(
            "tests/test_q.cpp",
            "Mutex m;\nint unguarded = 0;\n",
        )

    def test_next_line_suppression(self):
        self.assert_clean(
            "src/common/pool.h",
            "// ordering-only mutex (condvar handshake)\n"
            "// unizk-lint: disable-next-line=unguarded-mutex-member\n"
            "Mutex stop_mutex_;\n",
        )

    def test_suppressing_it_keeps_other_rules(self):
        findings = self.lint(
            "src/service/queue.h",
            "Mutex m_;  // unizk-lint: disable=unguarded-mutex-member\n"
            "std::mutex raw_;\n",
        )
        self.assertEqual(
            {f.rule for f in findings}, {"raw-sync-primitive"}
        )


class TestObsRegistryDirect(LintHarness):
    def test_registry_include_outside_obs_triggers(self):
        self.assert_rules(
            "src/service/exporter.cpp",
            '#include "obs/registry.h"\n',
            ["obs-registry-direct"],
        )

    def test_internal_namespace_reference_triggers(self):
        self.assert_rules(
            "src/service/exporter.cpp",
            "auto &reg = obs::internal::Registry::instance();\n",
            ["obs-registry-direct"],
        )

    def test_using_directive_then_registry_triggers(self):
        # `using namespace unizk::obs;` followed by a bare
        # internal::Registry reference must still be caught.
        self.assert_rules(
            "tests/test_stats.cpp",
            "using namespace unizk::obs;\n"
            "auto &reg = internal::Registry::instance();\n",
            ["obs-registry-direct"],
        )

    def test_block_type_reference_triggers(self):
        self.assert_rules(
            "src/unizk/dump.cpp",
            "const internal::HistoSlot *slot = lookup(name);\n",
            ["obs-registry-direct"],
        )

    def test_allowed_inside_obs_dir(self):
        self.assert_clean(
            "src/obs/stats_export2.cpp",
            '#include "obs/registry.h"\n'
            "auto &reg = internal::Registry::instance();\n",
        )

    def test_snapshot_apis_are_fine(self):
        self.assert_clean(
            "src/service/exporter.cpp",
            '#include "obs/obs.h"\n'
            "const obs::StatsSnapshot snap = obs::snapshotDelta();\n"
            "const auto counters = obs::counterSnapshot();\n"
            "const auto bufs = obs::spanBufferStats();\n",
        )

    def test_unrelated_internal_namespace_is_fine(self):
        self.assert_clean(
            "src/service/exporter.cpp",
            "int x = detail::internalHelper();\n"
            "auto r = internal::Frame{};\n",
        )

    def test_mention_in_comment_is_fine(self):
        self.assert_clean(
            "src/service/exporter.cpp",
            "// the registry (obs::internal::Registry) stays private\n"
            "int x = 0;\n",
        )


class TestSuppressions(LintHarness):
    SNIPPET = "size_t n = 1 << log_n;"

    def test_same_line_suppression(self):
        self.assert_clean(
            "src/sim/addr.cpp",
            self.SNIPPET + "  // unizk-lint: disable=unguarded-shift\n",
        )

    def test_next_line_suppression(self):
        self.assert_clean(
            "src/sim/addr.cpp",
            "// unizk-lint: disable-next-line=unguarded-shift\n"
            + self.SNIPPET
            + "\n",
        )

    def test_file_wide_suppression(self):
        self.assert_clean(
            "src/sim/addr.cpp",
            "// unizk-lint: disable-file=unguarded-shift\n"
            + self.SNIPPET
            + "\n"
            + self.SNIPPET
            + "\n",
        )

    def test_suppressing_one_rule_keeps_others(self):
        findings = self.lint(
            "src/fri/both.cpp",
            "std::unordered_map<int, int> m; size_t n = 1 << log_n; "
            "// unizk-lint: disable=unguarded-shift\n",
        )
        self.assertEqual({f.rule for f in findings}, {"nondet-container"})

    def test_unrelated_suppression_does_not_hide(self):
        self.assert_rules(
            "src/sim/addr.cpp",
            self.SNIPPET + "  // unizk-lint: disable=float-in-core\n",
            ["unguarded-shift"],
        )


class TestEngine(LintHarness):
    def test_multiline_block_comment_is_stripped(self):
        self.assert_clean(
            "src/fri/doc.cpp",
            "/* rand() in prover\n   1 << log_n\n   more */\nint x;\n",
        )

    def test_rule_names_are_unique(self):
        self.assertEqual(
            len(unizk_lint.RULES), len(unizk_lint.RULE_NAMES)
        )

    def test_every_rule_has_exactly_one_matcher(self):
        for rule in unizk_lint.RULES:
            self.assertTrue(
                (rule.pattern is None) != (rule.checker is None),
                msg=rule.name,
            )

    def test_exit_status_contract(self):
        with tempfile.TemporaryDirectory() as root:
            src_dir = os.path.join(root, "src", "sim")
            os.makedirs(src_dir)
            bad = os.path.join(src_dir, "bad.cpp")
            with open(bad, "w", encoding="utf-8") as f:
                f.write("size_t n = 1 << log_n;\n")
            status = unizk_lint.main(["--repo-root", root, bad])
            self.assertEqual(status, 1)
            with open(bad, "w", encoding="utf-8") as f:
                f.write("size_t n = size_t{1} << log_n;\n")
            status = unizk_lint.main(["--repo-root", root, bad])
            self.assertEqual(status, 0)


if __name__ == "__main__":
    unittest.main()
