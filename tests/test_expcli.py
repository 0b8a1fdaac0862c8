import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import primesum
from primesum.errors import ConfigurationError, DomainError, InvariantViolation
from primesum.expcli.cli import main, parse_set_spec
from primesum.expcli.config import ExperimentConfig, build_subset, parse_rule
from primesum.expcli.pipeline import _Ledger, run_pipeline
from primesum.expcli.reports import _sanitize, write_report
from primesum.ntheory import sieve_primes
from primesum.zm_sumsets import cyclic_sumset_size

from oracles import render_csv, render_json, trial_primes, units_of


def record_calls(monkeypatch, name: str) -> list:
    """The first argument of every call of ``ntheory.<name>``, made through
    any primesum module that holds the function."""
    import primesum.ntheory as ntheory

    original = getattr(ntheory, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("primesum"):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording)
    return calls


def small_config(**overrides):
    base = dict(n=20000, w=3, rule=parse_rule("all-primes"))
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def pipeline_report():
    return run_pipeline(small_config())


class TestParseRule:
    def test_all_primes(self):
        rule = parse_rule("all-primes")
        assert rule.kind == "all-primes"
        assert rule.spec_string() == "all-primes"

    def test_residue_filter(self):
        rule = parse_rule("residue-filter:1:6")
        assert (rule.kind, rule.b0, rule.m0) == ("residue-filter", 1, 6)

    def test_random_thinning(self):
        assert parse_rule("random-thinning").kind == "random-thinning"

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            parse_rule("bogus")

    def test_missing_parameters(self):
        with pytest.raises(ConfigurationError):
            parse_rule("residue-filter:1")


class TestParseSetSpec:
    def test_units(self):
        s = parse_set_spec("units", 10)
        assert sorted(s.members_array().tolist()) == [1, 3, 7, 9]

    def test_list(self):
        s = parse_set_spec("list:1,7,13", 30)
        assert sorted(s.members_array().tolist()) == [1, 7, 13]

    def test_units_filter(self):
        s = parse_set_spec("units-filter:1:4", 30)
        assert sorted(s.members_array().tolist()) == [1, 13, 17, 29]

    def test_random_is_deterministic(self):
        a = parse_set_spec("random:0.5:3", 64)
        b = parse_set_spec("random:0.5:3", 64)
        assert a.members_array().tolist() == b.members_array().tolist()
        assert a.cardinality == 32

    def test_units_random_subsets_units(self):
        s = parse_set_spec("units-random:0.5:1", 30)
        assert all(math.gcd(int(x), 30) == 1 for x in s.members_array())

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            parse_set_spec("nope", 30)

    def test_units_filter_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            parse_set_spec("units-filter:a:6", 30)

    def test_member_out_of_range(self):
        with pytest.raises(DomainError):
            parse_set_spec("list:50", 30)

    def test_list_spec_builds_no_unit_list(self):
        # the unit list of Z_(10^7) takes about 0.5 s; a list spec reads none
        start = time.perf_counter()
        s = parse_set_spec("list:1,7,13", 10_000_000)
        assert time.perf_counter() - start < 0.1
        assert s.members_array().tolist() == [1, 7, 13]


class TestExperimentConfig:
    def test_validate_passes(self):
        small_config().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 50},
            {"n": 20000.5},
            {"w": 1},
            {"delta": 0.0},
            {"delta": 1.5},
            {"eps": 0.0},
            {"eps": 1.0},
            {"sigma": -0.1},
            {"k": 1},
            {"seed": -1},
            {"output_format": "xml"},
            {"n": 100, "w": 7},
        ],
    )
    def test_validate_rejects(self, overrides):
        with pytest.raises(ConfigurationError):
            small_config(**overrides).validate()

    def test_huge_w_rejected_without_a_large_sieve(self, monkeypatch):
        import primesum.expcli.config as config
        import primesum.ntheory as ntheory

        sieve = ntheory.sieve_primes

        def small_sieve_only(limit):
            assert limit <= 100, f"sieved up to {limit}"
            return sieve(limit)

        monkeypatch.setattr(config, "sieve_primes", small_sieve_only, raising=False)
        monkeypatch.setattr(ntheory, "sieve_primes", small_sieve_only)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n=10**7, w=3 * 10**7).validate()

    def test_default_sigma_tracks_eps(self):
        cfg = small_config(eps=0.4)
        assert cfg.resolved_sigma() == 0.02

    def test_eps0_clamp(self):
        cfg = small_config(sigma=0.5)
        want = min(0.5**6 * 0.8**4 / 400.0, 0.01)
        assert abs(cfg.resolved_eps0(0.8) - want) < 1e-18

    def test_echo_roundtrips_rule(self):
        cfg = small_config(rule=parse_rule("residue-filter:1:6"))
        assert cfg.echo()["rule"] == "residue-filter:1:6"


class TestBuildSubset:
    def test_residue_filter(self):
        cfg = ExperimentConfig(n=100, w=3, rule=parse_rule("residue-filter:1:6"))
        table = sieve_primes(100)
        got = build_subset(cfg, table)
        assert got.tolist() == [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97]

    def test_all_primes_identity(self):
        cfg = ExperimentConfig(n=100, w=3, rule=parse_rule("all-primes"))
        got = build_subset(cfg, sieve_primes(100))
        assert got.tolist() == trial_primes(100)

    def test_thinning_size_and_determinism(self):
        cfg = ExperimentConfig(
            n=100, w=3, delta=0.5, rule=parse_rule("random-thinning"), seed=7
        )
        table = sieve_primes(100)
        first = build_subset(cfg, table)
        second = build_subset(cfg, table)
        assert first.tolist() == second.tolist()
        assert first.size == math.ceil(0.5 * 25)
        assert np.all(np.diff(first) > 0)

    def test_different_seed_differs(self):
        table = sieve_primes(1000)
        a = build_subset(
            ExperimentConfig(
                n=1000, w=3, delta=0.5, rule=parse_rule("random-thinning"), seed=1
            ),
            table,
        )
        b = build_subset(
            ExperimentConfig(
                n=1000, w=3, delta=0.5, rule=parse_rule("random-thinning"), seed=2
            ),
            table,
        )
        assert a.tolist() != b.tolist()


class TestPipeline:
    def test_summary_shape(self, pipeline_report):
        s = pipeline_report.summary
        assert s["delta"] == 1.0
        assert s["good_classes"] == [1, 5]
        assert s["witness_ok"] is True
        assert s["lower_bound"] <= s["actual_sumset"]
        assert s["checks_passed"] <= s["checks_total"]

    def test_assert_rows_all_pass(self, pipeline_report):
        hard = [c for c in pipeline_report.checks if c.kind == "assert"]
        assert hard, "expected unconditional check rows"
        assert all(c.passed for c in hard)

    def test_class_counts_reconcile(self, pipeline_report):
        s = pipeline_report.summary
        class_p = sum(pipeline_report.per_class["prime_count"])
        assert class_p + s["residual_primes"] == s["prime_count"]

    def test_residue_chain(self, pipeline_report):
        for row in pipeline_report.residue_density.rows():
            assert row["gamma_x"] <= row["delta_x"] + 1e-12
            assert row["contribution"] >= 0.0
            if row["contribution"] > 0:
                assert row["witness_certified"]

    def test_sumset_residue_masses_total(self, pipeline_report):
        s = pipeline_report.summary
        total = sum(pipeline_report.sumset_residues["count"])
        assert total == s["actual_sumset"]

    def test_residue_table_counted_in_blocks(self, monkeypatch, pipeline_report):
        import primesum.expcli.pipeline as pipeline
        from primesum.zm_sumsets import integer_sumset_flags

        cfg = small_config()
        a = build_subset(cfg, sieve_primes(cfg.n))
        lo, flags = integer_sumset_flags(a)
        m = pipeline_report.summary["m"]
        counts = np.bincount((np.flatnonzero(flags) + lo) % m, minlength=m)
        hit = np.flatnonzero(counts)
        expected = {"x": hit.tolist(), "count": counts[hit].tolist()}
        assert dict(pipeline_report.sumset_residues) == expected
        # blocks of 7 flags, a length prime to m = 6
        monkeypatch.setattr(pipeline, "_RESIDUE_BLOCK", 7)
        blocked = run_pipeline(cfg)
        assert dict(blocked.sumset_residues) == expected
        assert blocked.summary["actual_sumset"] == int(np.count_nonzero(flags))

    def test_rerun_is_identical(self, pipeline_report):
        again = run_pipeline(small_config())
        assert render_json(again) == render_json(pipeline_report)

    # Bohr sets that are nontrivial and depend on the pair (split-n3000)
    SPLIT = dict(
        n=3000, w=5, eps0=1.0, sigma=8.0, delta=0.5, rule=parse_rule("random-thinning")
    )

    def test_pair_block_size_leaves_report_unchanged(self, monkeypatch):
        import primesum.zn_spectral as zs

        split = small_config(**self.SPLIT)
        expected = render_json(run_pipeline(split))
        monkeypatch.setattr(zs, "BLOCK_BYTES", 1)
        assert render_json(run_pipeline(split)) == expected

    def test_pair_stage_starts_no_thread(self, monkeypatch):
        # the retired thread-count variable is ignored: the run starts no
        # thread and renders the same bytes
        import threading

        split = small_config(**self.SPLIT)
        expected = render_json(run_pipeline(split))

        def no_thread(self):
            raise AssertionError("the pipeline started a thread")

        monkeypatch.setenv("PRIMESUM_THREADS", "4")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert render_json(run_pipeline(split)) == expected

    def test_one_self_convolution_per_run(self, monkeypatch):
        import primesum.zm_sumsets as zm

        counts = zm._sumset_counts
        calls = []

        def counting(b):
            calls.append(b.m)
            return counts(b)

        monkeypatch.setattr(zm, "_sumset_counts", counting)
        run_pipeline(small_config(n=3000, w=5))
        # the certificate of m = 30 runs on Z_15
        assert calls == [15]

    def test_one_sieve_past_w_per_run(self, monkeypatch):
        from primesum.prime_embed import choose_N

        limits = record_calls(monkeypatch, "sieve_primes")
        run_pipeline(small_config(n=3000, w=5))
        assert [x for x in limits if x > 5] == [30 * choose_N(3000, 30) + 30]
        assert len(limits) <= 3

    def test_class_transforms_stacked(self, monkeypatch):
        # the weights nu go through stacked blocks that nothing keeps, then
        # the densities f of the good classes go through blocks of their
        # own, made and dropped by the splits, and the embedding keeps only
        # its read-only rows of f
        import primesum.expcli.pipeline as pl
        import primesum.prime_embed as pe
        import primesum.zn_spectral as zs

        cfg = small_config(
            n=6000, w=7, delta=0.5, rule=parse_rule("random-thinning"), seed=1
        )
        expected = run_pipeline(cfg).per_class
        big_n, phi = pe.choose_N(cfg.n, 210), 48
        shapes, embedded = [], []
        fft, embed_classes = np.fft.fft, pl.embed_classes

        def counting_fft(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fft(a, *args, **kwargs)

        def keeping(*args):
            embedded.append(embed_classes(*args))
            return embedded[-1]

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        monkeypatch.setattr(pl, "embed_classes", keeping)
        monkeypatch.setattr(zs, "BLOCK_BYTES", 20 * 32 * big_n)
        report = run_pipeline(cfg)
        assert report.pair_reports.size and report.per_class == expected
        # a class that is not good is never transformed
        good = report.summary["good_count"]
        assert 40 < good < phi
        nu_blocks = [(20, big_n), (20, big_n), (8, big_n)]
        assert shapes == nu_blocks + [(20, big_n), (20, big_n), (good - 40, big_n)]
        (emb,) = embedded
        assert emb.f.shape == (phi, big_n) and not emb.f.flags.writeable
        assert [k for k, v in vars(emb).items() if isinstance(v, np.ndarray)] == ["f"]

    @staticmethod
    def count_decompositions(monkeypatch) -> list:
        # one entry (density bytes, level) per split the pair stage makes
        import primesum.zn_spectral as zs

        split = zs._split_rows
        calls = []

        def counting(densities, levels):
            calls.extend((f.tobytes(), level) for f, level in zip(densities, levels))
            return split(densities, levels)

        monkeypatch.setattr(zs, "_split_rows", counting)
        return calls

    @staticmethod
    def record_splits(monkeypatch) -> tuple[list, object]:
        # one entry ((bytes of the density, level), split) per split made;
        # also returns the unpatched splitter of checked rows
        import primesum.zn_spectral as zs

        split, made = zs._split_rows, []

        def recording(densities, levels):
            out = split(densities, levels)
            made.extend(
                ((f.tobytes(), level), d) for f, level, d in zip(densities, levels, out)
            )
            return out

        monkeypatch.setattr(zs, "_split_rows", recording)
        return made, split

    def test_one_split_per_class(self, monkeypatch):
        calls = self.count_decompositions(monkeypatch)
        cfg = small_config(
            n=6000, w=7, delta=0.5, rule=parse_rule("random-thinning"), seed=1
        )
        report = run_pipeline(cfg)
        assert set(report.splits["bohr_size"].tolist()) <= {1}
        assert len(calls) == report.splits.size == report.summary["good_count"]

    def test_exact_splits_leave_zero_error_columns(self):
        cfg = small_config(
            n=6000, w=7, delta=0.5, rule=parse_rule("random-thinning"), seed=1
        )
        report = run_pipeline(cfg)
        cols = report.pair_reports
        assert cols.size and set(report.splits["bohr_size"].tolist()) == {1}
        for k in ("12", "21", "22"):
            assert set(cols[f"err{k}_l2sq"]) == {0.0}
            assert set(cols[f"err{k}_count"]) == {0}

    def test_pair_rows_match_per_pair_splits(self, monkeypatch):
        from primesum.ntheory import primorial
        from primesum.prime_embed import choose_N, embed_class, partition_and_densities
        from primesum.zn_spectral import split_densities

        from oracles import pair_pieces_oracle, positive_support

        # at this level the Bohr sets are nontrivial and depend on the pair,
        # so the pair stage splits some classes again at the pair's level
        calls = self.count_decompositions(monkeypatch)
        cfg = small_config(**self.SPLIT)
        report = run_pipeline(cfg)
        # the splits below are the reference, not the run's
        monkeypatch.undo()
        good = report.summary["good_classes"]
        assert len(calls) > len(good)
        cols, splits = report.pair_reports, report.splits
        sizes = {}
        for b, size in zip(splits["b"].tolist(), splits["bohr_size"].tolist()):
            sizes.setdefault(b, set()).add(size)
        assert any(len(v) > 1 for v in sizes.values())

        mod = primorial(cfg.w)
        m = mod.m
        big_n = choose_N(cfg.n, m)
        table = sieve_primes(m * big_n + m)
        primes = table.upto(cfg.n)
        part = partition_and_densities(build_subset(cfg, primes), primes, cfg.w, mod)
        rows = {b: embed_class(part, b, table).f[0] for b in good}

        def mean(f):
            return float(np.sum(f)) / f.size

        def level(f):
            return min(1.0, 8.0**6 * mean(f) ** 4 / 400.0)

        # one split per (class, level): each class at its highest pair
        # level, which is its own, that of the pair (b, b); and a class whose
        # split there is not exact again at each lower pair level
        own = {b: split_densities([f], [level(f)])[0] for b, f in rows.items()}
        keys = {(b, level(f)) for b, f in rows.items()}
        for row in cols.rows():
            b1, b2 = row["b1"], row["b2"]
            f, g = rows[b1], rows[b2]
            pair_level = level(f if mean(f) <= mean(g) else g)
            for b, h in ((b1, f), (b2, g)):
                keys.add((b, level(h) if own[b].bohr.size == 1 else pair_level))
            df, dg = split_densities([f, g], [pair_level] * 2)
            q = pair_pieces_oracle(f, df.f1, f - df.f1, g, dg.f1, g - dg.f1, 8.0)
            expected = {
                "support_count": positive_support(f, g),
                "main_count": q["main_count"],
                **{f"err{k}_count": q[f"err{k}_count"] for k in ("12", "21", "22")},
            }
            assert {k: row[k] for k in expected} == expected
            sf, sg = row["split_f"], row["split_g"]
            assert splits["b"][[sf, sg]].tolist() == [b1, b2]
            assert splits["mean"][[sf, sg]].tolist() == [mean(f), mean(g)]
            assert splits["bohr_size"][[sf, sg]].tolist() == [df.bohr.size, dg.bohr.size]
            assert splits["f1_max"][[sf, sg]].tolist() == [df.f1_max, dg.f1_max]
            # irfft and ifft round differently; pieces that are 0 in exact
            # arithmetic sit at rounding level, under the floor of 1
            for k in ("12", "21", "22"):
                assert row[f"err{k}_l2sq"] == pytest.approx(
                    q[f"err{k}_l2sq"], rel=1e-12, abs=1e-12
                )
        by_values = {f.tobytes(): b for b, f in rows.items()}
        assert len(calls) == len(set(calls))
        assert {(by_values[v], eps0) for v, eps0 in calls} == keys

    # exact splits only (W=7), and Bohr sets that are nontrivial and depend
    # on the pair (SPLIT)
    PLAN_CONFIGS = {
        "w7": dict(n=6000, w=7, delta=0.5, rule=parse_rule("random-thinning"), seed=1),
        "split": SPLIT,
    }

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("name", ["w7", "split"])
    def test_batched_splits_match_one_density_splits(self, monkeypatch, name, rows):
        # blocks of one row, of three rows (the last one partial) and one
        # block of every density give the splits of each density alone
        import primesum.prime_embed as pe
        import primesum.zn_spectral as zs

        from oracles import split_oracle

        def same_bits(a, b):
            return a.shape == b.shape and a.tobytes() == b.tobytes()

        cfg = small_config(**self.PLAN_CONFIGS[name])
        if rows is not None:
            big_n = pe.choose_N(cfg.n, 210 if cfg.w == 7 else 30)
            monkeypatch.setattr(zs, "BLOCK_BYTES", rows * 32 * big_n)
        rows_split, made = zs._split_rows, []

        def keeping(densities, levels):
            out = rows_split(densities, levels)
            made.extend(zip(densities, levels, out))
            return out

        monkeypatch.setattr(zs, "_split_rows", keeping)
        run_pipeline(cfg)
        monkeypatch.setattr(zs, "_split_rows", rows_split)
        assert len(made) >= 8
        sizes = set()
        for f, level, d in made:
            (one,) = zs.split_densities([f], [level])
            f1, members = split_oracle(f, level)
            for got in (d, one):
                assert got.bohr.tolist() == members.tolist()
                assert same_bits(got.f1, f1)
            sizes.add(d.bohr.size)
        assert (max(sizes) > 1) == (name == "split")

    @pytest.mark.parametrize("name", ["w7", "split"])
    def test_pair_plan_matches_the_loop(self, monkeypatch, name):
        import primesum.prime_embed as pe
        import primesum.zn_spectral as zs

        from oracles import pair_plan_oracle

        convolve, seen = pe.convolve_pairs, []

        def keeping(*args, **kwargs):
            seen.append((*args, convolve(*args, **kwargs)))
            return seen[-1][-1]

        monkeypatch.setattr(pe, "convolve_pairs", keeping)
        made, rows_split = self.record_splits(monkeypatch)
        report = run_pipeline(small_config(**self.PLAN_CONFIGS[name]))
        monkeypatch.setattr(zs, "_split_rows", rows_split)
        split = zs.split_densities
        ((densities, pairs, pair_levels, _, conv),) = seen
        # each class's level: eps0 clamped to split_level of its mean
        means = [float(np.sum(f)) / f.size for f in densities]
        eps0, sigma = report.summary["eps0"], report.summary["sigma"]
        caps = [pe.split_level(sigma, x) for x in means]
        eps0_used, live, reference = pair_plan_oracle(
            means,
            [min(eps0, cap) if cap > 0 else eps0 for cap in caps],
            eps0,
            lambda c, level: split([densities[c]], [level])[0],
        )
        c1, c2 = np.triu_indices(len(densities))
        runs = np.minimum(np.take(means, c1), np.take(means, c2)) > 0
        assert np.asarray(pair_levels).tolist() == np.asarray(eps0_used)[runs].tolist()
        assert np.asarray(pairs).tolist() == [[c1, c2] for c1, c2, _, _ in live]
        # the report holds the pair stage's splits and sides
        table = report.splits
        assert table["level"].tolist() == conv.split_level.tolist()
        assert table["bohr_size"].tolist() == conv.bohr_size.tolist()
        assert table["f1_max"].tolist() == conv.f1_max.tolist()
        sides = [report.pair_reports[k][runs].tolist() for k in ("split_f", "split_g")]
        assert np.transpose(sides).tolist() == conv.sides.tolist()
        # each (class, level) is split once, and each side of a pair takes
        # the split the oracle gives it
        by_key = dict(made)
        assert len(by_key) == len(made) == len(reference)
        for p, (c1, c2, s1, s2) in enumerate(live):
            for side, (c, s) in enumerate(((c1, s1), (c2, s2))):
                level, expected = reference[s]
                got = by_key[densities[c].tobytes(), level]
                assert got.bohr.tolist() == expected.bohr.tolist()
                assert got.f1.tobytes() == expected.f1.tobytes()
                k = conv.sides[p, side]
                assert (conv.split_row[k], conv.split_level[k]) == (c, level)
                assert conv.bohr_size[k] == expected.bohr.size
                assert conv.f1_max[k] == expected.f1_max
        read = {c for c1, c2, _, _ in live for c in (c1, c2)}
        assert (len(reference) > len(read)) == (name == "split")

    def test_pair_results_do_not_depend_on_the_other_pairs(self, monkeypatch):
        # at the split-n20000 levels some sides are split again at the
        # pair's level, and some of those splits come back exact
        import dataclasses

        import primesum.prime_embed as pe

        convolve, seen = pe.convolve_pairs, []

        def keeping(*args, **kwargs):
            seen.append((args, kwargs))
            return convolve(*args, **kwargs)

        monkeypatch.setattr(pe, "convolve_pairs", keeping)
        run_pipeline(
            small_config(
                n=20000, w=5, eps0=1.0, sigma=6.0, delta=0.5,
                rule=parse_rule("random-thinning"),
            )
        )
        (((densities, pairs, pair_levels, sigma), kwargs),) = seen
        made, _ = self.record_splits(monkeypatch)
        full = convolve(densities, pairs, pair_levels, sigma, **kwargs)
        # the first splits are one per density that a pair reads
        g = np.unique(pairs).size
        assert len(dict(made)) == len(made)
        again = [d.bohr.size for _, d in made[g:]]
        assert min(again) == 1 < max(again)

        pick = np.random.default_rng(1).permutation(len(pairs))[: len(pairs) // 2]
        made.clear()
        part = convolve(densities, pairs[pick], pair_levels[pick], sigma, **kwargs)
        assert len(dict(made)) == len(made) > np.unique(pairs[pick]).size
        # per pair, and per split through each pair's sides; an exact side
        # may take its split at another level, which depends on the other
        # pairs, with the same f1 = f and |B| = 1
        per_split = ("split_row", "bohr_size", "f1_max")
        for field in dataclasses.fields(full):
            if field.name in ("sides", "split_level"):
                continue
            got, expected = getattr(part, field.name), getattr(full, field.name)
            if field.name in per_split:
                got, expected = got[part.sides], expected[full.sides]
            expected = expected[pick]
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "field, message",
        [
            ("gamma", "average pair density exceeds its maximum"),
            ("count", "pair multiplicity mismatch"),
        ],
    )
    def test_residue_gates_raise(self, monkeypatch, field, message):
        import dataclasses

        import primesum.expcli.pipeline as pipeline

        aggregate = pipeline.aggregate_delta
        bumped_at = []

        def broken(part, eps):
            agg = aggregate(part, eps)
            bumped = getattr(agg, field).copy()
            bumped[0] += 1
            bumped_at.append(agg.x[0])
            return dataclasses.replace(agg, **{field: bumped})

        monkeypatch.setattr(pipeline, "aggregate_delta", broken)
        with pytest.raises(InvariantViolation, match=message) as info:
            run_pipeline(small_config(n=3000, w=5))
        assert str(info.value).endswith(f"at residue {bumped_at[0]}")

    def test_empty_subset_degrades_gracefully(self):
        cfg = small_config(rule=parse_rule("residue-filter:0:4"))
        report = run_pipeline(cfg)
        s = report.summary
        assert s["delta"] == 0.0
        assert s["good_count"] == 0
        assert s["lower_bound"] == 0.0
        assert s["actual_sumset"] is None
        assert s["witness_ok"] is None
        hard = [c for c in report.checks if c.kind == "assert"]
        assert all(c.passed for c in hard)

    def test_aggregate_bound_binds_when_every_witness_passes(
        self, monkeypatch, pipeline_report
    ):
        import primesum.expcli.pipeline as pipeline

        s = pipeline_report.summary
        (row,) = [c for c in pipeline_report.checks if c.name == "aggregate-bound-vs-sumset"]
        assert s["witness_ok"] is True and s["lower_bound"] > 0
        assert vars(row) == dict(
            name="aggregate-bound-vs-sumset",
            kind="assert",
            lhs=s["lower_bound"],
            rhs=s["actual_sumset"],
            relation="<= (binding when witnesses pass)",
            passed=True,
        )
        integer_sumset = pipeline._integer_sumset

        def no_sums(*args):
            return 0, integer_sumset(*args)[1]

        monkeypatch.setattr(pipeline, "_integer_sumset", no_sums)
        with pytest.raises(InvariantViolation) as info:
            run_pipeline(small_config())
        assert str(info.value) == (
            f"aggregated bound {s['lower_bound']:.6g} exceeds the sumset size 0 "
            "although every witness passed"
        )

    def test_aggregate_bound_is_reported_without_a_good_set(self):
        # A = {2} divides the modulus: A + A = {4}, yet no class is good
        report = run_pipeline(small_config(rule=parse_rule("residue-filter:2:4")))
        (row,) = [c for c in report.checks if c.name == "aggregate-bound-vs-sumset"]
        assert report.summary["good_count"] == 0
        assert (row.kind, row.lhs, row.rhs, row.passed) == ("report", 0.0, 1, None)


class TestPairTables:
    """The pair table holds what each pair measured, and the splits table
    each split once; every pair column of the reports before the splits
    table follows from them, the per-class table and the summary."""

    CONFIGS = {
        "pairs-w7": dict(n=52815, w=7, rule=parse_rule("random-thinning"), delta=0.5, seed=2),
        "all-primes": dict(n=200000, w=5),
        # every split smoothed over a Bohr set larger than {0}
        "inexact": dict(n=3000, w=5, eps0=0.1, sigma=8.0),
        # most classes embed no prime at N = 5: their mean is 0
        "zero-mean": dict(n=300, w=7),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_old_pair_columns_rebuild_bit_for_bit(self, name):
        import hashlib

        from oracles import old_pair_columns

        recorded = json.loads((Path(__file__).parent / "old_pair_columns.json").read_text())
        report = run_pipeline(small_config(**self.CONFIGS[name]))
        columns = old_pair_columns(report)
        moved = sorted(
            column
            for column, digest in recorded["configs"][name].items()
            if hashlib.sha256(
                columns[column].dtype.str.encode() + columns[column].tobytes()
            ).hexdigest()[:16]
            != digest
        )
        assert len(columns) == 22 and not moved, (
            f"{moved} moved; recorded with numpy {recorded['numpy']}, "
            f"run with numpy {np.__version__}"
        )
        pairs = report.pair_reports
        if name == "inexact":
            assert report.splits["bohr_size"].min() > 1
        if name == "zero-mean":
            dead = np.ma.getmaskarray(pairs["split_f"])
            assert 0 < dead.sum() < dead.size
            assert np.ma.getmaskarray(pairs["split_g"])[dead].all()
            for column in ("support_count", "main_count", "err22_l2sq"):
                assert not pairs[column][dead].any()

    def test_pair_table_columns(self):
        report = run_pipeline(small_config(**self.CONFIGS["zero-mean"]))
        pairs, splits = report.pair_reports, report.splits
        assert sorted(pairs) == sorted(
            ["b1", "b2", "split_f", "split_g", "support_count", "main_count"]
            + [f"err{p}_{kind}" for kind in ("count", "l2sq") for p in ("12", "21", "22")]
        )
        assert {str(column.dtype) for column in pairs.values()} == {"int64", "float64"}
        assert sorted(splits) == ["b", "bohr_size", "f1_max", "level", "mean"]
        # a masked split index is a null cell
        doc = json.loads(render_json(report))["tables"]
        nulls = [row["split_f"] is None for row in doc["pair_reports"]]
        assert nulls == np.ma.getmaskarray(pairs["split_f"]).tolist() and any(nulls)
        assert len(doc["splits"]) == splits.size

    @pytest.mark.parametrize("name", ["pairs-w7", "all-primes"])
    def test_witness_pairs_carry_their_support_count(self, name):
        report = run_pipeline(small_config(**self.CONFIGS[name]))
        pairs = report.pair_reports
        row = {
            (b1, b2): k
            for k, (b1, b2) in enumerate(zip(pairs["b1"].tolist(), pairs["b2"].tolist()))
        }
        residues = report.residue_density
        for b1, b2, support in zip(
            residues["witness_b1"], residues["witness_b2"], residues["witness_support"]
        ):
            assert pairs["support_count"][row[min(b1, b2), max(b1, b2)]] == support
        # on the witness scale every pair reaches its target
        checks = {check.name: check for check in report.checks}
        size = pairs.size
        for check in ("pair-support-targets", "pair-main-targets"):
            assert (checks[check].lhs, checks[check].rhs, checks[check].passed) == (
                size, size, True
            )
        assert checks["witness-support-count"].passed
        assert size == {"pairs-w7": 1176, "all-primes": 36}[name]


class TestGateCoverage:
    """Every inequality assert row holds strictly in at least one small run,
    so that no such gate is an equality by construction on all the data the
    suite runs it on."""

    CONFIGS = {
        "all-primes": dict(n=200_000, w=5),
        "thinning": dict(
            n=200_000, w=5, delta=0.5, rule=parse_rule("random-thinning"), seed=1
        ),
        "residue-filter": dict(n=200_000, w=5, rule=parse_rule("residue-filter:1:3")),
        "split-n3000": TestPipeline.SPLIT,
    }

    def test_every_inequality_row_is_strict_somewhere(self):
        strict = {}
        for name, overrides in self.CONFIGS.items():
            for row in run_pipeline(small_config(**overrides)).checks:
                less, greater = "<=" in row.relation, ">=" in row.relation
                if row.kind == "assert" and (less or greater):
                    held = row.lhs < row.rhs if less else row.lhs > row.rhs
                    strict.setdefault(row.name, set())
                    if held:
                        strict[row.name].add(name)
        assert set(strict) >= {
            "embedding-window",
            "gamma-below-delta",
            "holder-r-gamma",
            "dual-moment-monotone",
            "power-mean-domination",
            "good-set-moment-strata",
            "aggregate-bound-vs-sumset",
        }
        assert [row for row, configs in strict.items() if not configs] == []


class TestLedger:
    def test_failing_require_raises_and_records_no_row(self):
        ledger = _Ledger()
        ledger.require("holds", 1, 1, "==", True, "unused")
        ledger.report("trend", 1, 2, ">=", False)
        with pytest.raises(InvariantViolation, match="^broken$"):
            ledger.require("fails", 1, 2, "==", False, "broken")
        assert [(r.name, r.kind, r.passed) for r in ledger] == [
            ("holds", "assert", True),
            ("trend", "report", False),
        ]


class FailsAfterFirstWrite:
    """A text handle whose first write goes through (to ``inner``, if given)
    and whose later writes raise, as a full disk or a closed pipe would."""

    def __init__(self, inner=None):
        self.inner, self.calls = inner, 0

    def write(self, text: str) -> int:
        self.calls += 1
        if self.calls > 1:
            raise OSError(28, "No space left on device")
        return self.inner.write(text) if self.inner is not None else len(text)

    def flush(self) -> None:
        pass


class TestReports:
    def test_json_roundtrip(self, pipeline_report):
        parsed = json.loads(render_json(pipeline_report))
        assert parsed == _sanitize(pipeline_report.to_dict())

    def test_pair_columns_are_json_native(self, pipeline_report):
        # the pair columns reach the writer as arrays of the dtypes whose
        # blocks it encodes whole: floats by bit pattern, ints and bools in
        # one C-encoder call, every cell as a Python scalar
        table = pipeline_report.pair_reports
        assert table.size
        for name, cells in table.items():
            assert isinstance(cells, np.ndarray) and cells.ndim == 1, name
            assert cells.dtype in (np.int64, np.float64, np.bool_), name

    def test_json_key_order_stable(self, pipeline_report):
        text = render_json(pipeline_report)
        assert text == render_json(pipeline_report)
        assert text.endswith("\n")

    def test_csv_sections(self, pipeline_report):
        rows = list(csv.reader(io.StringIO(render_csv(pipeline_report))))
        names = [r[1] for r in rows if r and r[0] == "section"]
        assert names[0] == "config"
        assert "summary" in names
        assert "checks" in names

    def test_csv_rows_match_headers(self, pipeline_report):
        rows = list(csv.reader(io.StringIO(render_csv(pipeline_report))))
        width = None
        for row in rows:
            if not row:
                width = None
                continue
            if row[0] == "section":
                width = None
            elif width is None:
                width = len(row)
            else:
                assert len(row) == width

    def test_emit_to_file(self, pipeline_report, tmp_path):
        path = tmp_path / "out.json"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_report(pipeline_report, "json", handle)
        assert path.read_text() == render_json(pipeline_report)

    def test_emit_bad_path(self, pipeline_report, tmp_path):
        from primesum.expcli.cli import _write_file

        with pytest.raises(ConfigurationError):
            _write_file(pipeline_report, "json", str(tmp_path / "no" / "dir.json"))


class TestCli:
    def test_sieve_exit_zero(self, capsys):
        assert main(["sieve", "--n", "30"]) == 0
        out = capsys.readouterr().out
        assert "29" in out

    def test_partition_prints_good_empty_and_other_classes(self, capsys):
        # the primes 1 mod 3 up to 300 along the 48 classes mod 210 (a
        # multiple of 3, so each class is all in or all out): 21 good
        # classes and 27 that are not, 5 of those with no prime at all
        argv = ["partition", "--n", "300", "--W", "7", "--rule", "residue-filter:1:3"]
        assert main(argv) == 0
        head, *rows, residual = capsys.readouterr().out.splitlines()
        good = [1, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109, 127, 139, 151]
        good += [157, 163, 181, 193, 199]
        assert head == (
            "n=300 W=7 m=210 phi=48 delta=0.451612903226 good="
            + ",".join(map(str, good))
        )
        assert rows[:2] == [
            "b=1 primes=1 subset=1 delta_b=1 good=true",
            "b=11 primes=1 subset=0 delta_b=0 good=false",
        ]
        assert rows[-1] == "b=209 primes=0 subset=0 delta_b=0 good=false"
        assert residual == "residual primes=4 subset=1"
        fields = [dict(field.split("=") for field in row.split()) for row in rows]
        assert [int(row["b"]) for row in fields] == units_of(210)
        assert [int(row["b"]) for row in fields if row["good"] == "true"] == good
        assert {row["good"] for row in fields} == {"true", "false"}
        empty = [row for row in fields if row["primes"] == "0"]
        assert [int(row["b"]) for row in empty] == [121, 143, 169, 187, 209]
        assert all(row["subset"] == "0" and row["delta_b"] == "0" for row in empty)
        # every count is an integer: 62 primes up to 300, 28 of them 1 mod 3
        assert sum(int(row["primes"]) for row in fields) + 4 == 62
        assert sum(int(row["subset"]) for row in fields) + 1 == 28

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_domain_error_maps_to_two(self, capsys):
        assert main(["sumset", "--m", "30", "--set-spec", "list:50"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_set_spec_maps_to_two(self, capsys):
        assert main(["sumset", "--m", "30", "--set-spec", "units-filter:a:6"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "m, spec", [("10000000000000", "units"), ("10000001", "list:1")]
    )
    def test_modulus_above_cap_maps_to_two(self, capsys, m, spec):
        assert main(["sumset", "--m", m, "--set-spec", spec]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_huge_list_member_maps_to_two(self, capsys):
        spec = "list:1,100000000000000000000000"
        assert main(["sumset", "--m", "30", "--set-spec", spec]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_sumset_too_large_for_two_routes_counts_with_one(self, capsys):
        spec = "random:0.2:1"
        assert main(["sumset", "--m", "1000000", "--set-spec", spec]) == 0
        out = capsys.readouterr().out
        b = parse_set_spec(spec, 1_000_000)
        expected = cyclic_sumset_size(b)
        assert f" sumset={expected} " in out

    def test_config_error_maps_to_two(self, capsys):
        code = main(
            ["pipeline", "--n", "50", "--W", "3", "--format", "json", "--out", "x"]
        )
        assert code == 2

    PAIRS_W5 = ["pipeline", "--n", "20000", "--W", "5"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_holds_the_stdout_report(self, capsys, tmp_path, fmt):
        assert main([*self.PAIRS_W5, "--format", fmt]) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"r.{fmt}"
        assert main([*self.PAIRS_W5, "--format", fmt, "--out", str(path)]) == 0
        assert path.read_bytes() == text.encode("utf-8")
        assert capsys.readouterr().out.startswith(f"wrote {fmt} report to {path}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_stdout_write_failing_part_way_maps_to_two(self, monkeypatch, capsys, fmt):
        handle = FailsAfterFirstWrite()
        monkeypatch.setattr(sys, "stdout", handle)
        assert main([*self.PAIRS_W5, "--format", fmt]) == 2
        assert handle.calls == 2
        assert capsys.readouterr().err == (
            "error: cannot write report to stdout: [Errno 28] No space left on device\n"
        )

    @pytest.mark.parametrize("existed", [False, True])
    def test_an_out_write_failing_part_way_maps_to_two(
        self, monkeypatch, capsys, tmp_path, existed
    ):
        # a file the run created is removed; a path that existed is not
        import primesum.expcli.cli as cli_mod

        write, handles = cli_mod.write_report, []

        def failing(report, output_format, handle):
            handles.append(FailsAfterFirstWrite(handle))
            write(report, output_format, handles[-1])

        monkeypatch.setattr(cli_mod, "write_report", failing)
        path = tmp_path / "r.json"
        if existed:
            path.write_text("old")
        assert main([*self.PAIRS_W5, "--out", str(path)]) == 2
        assert [h.calls for h in handles] == [2]
        assert path.exists() == existed
        if existed:
            assert path.read_text() == "{"  # truncated, then the first write
        assert capsys.readouterr() == (
            "",
            f"error: cannot write report to {path}: [Errno 28] No space left on device\n",
        )

    def test_an_out_directory_maps_to_two(self, capsys, tmp_path):
        assert main([*self.PAIRS_W5, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and tmp_path.is_dir()
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write report to {tmp_path}: ")

    @staticmethod
    def assert_fails_fast(argv: list[str]) -> None:
        src = Path(primesum.__file__).resolve().parents[1]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "primesum.expcli.cli"] + argv,
            capture_output=True,
            text=True,
            timeout=2,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_decompose_exact_split_prints_zero_remainder(self, capsys):
        argv = ["decompose", "--n", "20000", "--W", "3", "--b", "1", "--eps0", "0.02"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bohr_size=1" in out and "f2_sup_coeff=0 " in out
        assert "sigma" not in out

    @pytest.mark.parametrize("b, passed", [(1, "true"), (5, "false")])
    def test_spectrum_prints_the_mass_check_in_lowercase(self, capsys, b, passed):
        # A = {5}: the class of 1 holds none of it (mass 0 against 0), and 5
        # sits at x = 0, below the window (mass 0 against delta_5 / 16 > 0)
        rule = ["--rule", "residue-filter:5:100"]
        assert main(["spectrum", "--n", "100", "--W", "3", "--b", str(b), *rule]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("mass=0 threshold=") and line.endswith(f" passed={passed}")

    def test_failing_l1_identity_maps_to_three(self, monkeypatch, capsys):
        import primesum.zn_spectral as zs

        split = zs._split_rows

        def broken(densities, levels):
            # the last split of a batch comes back with an f1 that alternates
            # in sign (N = 400 is even): the last class's pair with itself
            # misses the L1 identity ||f1*g1||_1 = ||f1||_1 ||g1||_1
            splits = split(densities, levels)
            d = splits[-1]
            sign = (-1.0) ** np.arange(d.f1.size)
            splits[-1] = zs.Decomposition(f1=d.f1 * sign, bohr=np.arange(2))
            return splits

        monkeypatch.setattr(zs, "_split_rows", broken)
        with pytest.raises(InvariantViolation, match="L1 mass"):
            run_pipeline(small_config(n=3000, w=5))
        assert main(["pipeline", "--n", "3000", "--W", "5"]) == 3
        assert "L1 mass" in capsys.readouterr().err

    CLASS_COMMANDS = [["spectrum"], ["decompose", "--eps0", "0.05"]]

    @pytest.mark.parametrize("command", CLASS_COMMANDS)
    def test_one_sieve_past_w_per_class_command(self, monkeypatch, capsys, command):
        from primesum.prime_embed import choose_N

        limits = record_calls(monkeypatch, "sieve_primes")
        assert main([*command, "--n", "20000", "--W", "5", "--b", "7"]) == 0
        assert [x for x in limits if x > 5] == [30 * choose_N(20000, 30) + 30]

    @pytest.mark.parametrize("command", CLASS_COMMANDS)
    @pytest.mark.parametrize("b", ["6", "31", "-1"])
    def test_non_unit_b_rejected_before_the_sieve(self, capsys, command, b):
        start = time.perf_counter()
        assert main([*command, "--n", "10000000", "--W", "5", "--b", b]) == 2
        assert time.perf_counter() - start < 0.3
        err = capsys.readouterr().err
        assert err == f"error: {b} is not a reduced residue of 30\n"

    @pytest.mark.parametrize(
        "command", [["partition"], *(c + ["--b", "1"] for c in CLASS_COMMANDS)]
    )
    def test_one_class_commands_run_past_the_pair_work_cap(self, capsys, command):
        # phi^2 N = 1.29e9 caps the pipeline's pairs; these commands run none
        assert main([*command, "--n", "300000", "--W", "13"]) == 0

    def test_pair_work_cap_rejects_before_the_sieve(self, monkeypatch, capsys):
        import primesum.expcli.pipeline as pl

        def no_sieve(limit):
            raise AssertionError(f"sieved up to {limit}")

        monkeypatch.setattr(pl, "sieve_primes", no_sieve)
        cfg = ExperimentConfig(n=300000, w=13)
        cfg.validate()
        with pytest.raises(ConfigurationError, match="pairwise workload"):
            run_pipeline(cfg)
        start = time.perf_counter()
        assert main(["pipeline", "--n", "300000", "--W", "13"]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            "error: pairwise workload phi^2 N = 1293926400 exceeds 1000000000; "
            "lower w or n\n"
        )

    def test_huge_w_fails_fast(self):
        self.assert_fails_fast(["partition", "--n", "1000", "--W", "3000000"])

    def test_huge_sieve_fails_fast(self):
        self.assert_fails_fast(["sieve", "--n", "1000000000000"])

    def test_invariant_maps_to_three(self, monkeypatch, capsys, tmp_path):
        import primesum.expcli.cli as cli_mod

        def boom(cfg):
            raise InvariantViolation("forced")

        monkeypatch.setattr(cli_mod, "run_pipeline", boom)
        code = main(
            [
                "pipeline",
                "--n",
                "20000",
                "--W",
                "3",
                "--format",
                "json",
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        assert "invariant" in capsys.readouterr().err
