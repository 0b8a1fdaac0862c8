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
from primesum.expcli.config import (
    ExperimentConfig,
    RandomSetExperiment,
    build_subset,
    parse_rule,
)
from primesum.expcli.pipeline import _Ledger, run_pipeline, simulate_random_host
from primesum.expcli.reports import _sanitize, emit_report, render_csv, render_json
from primesum.ntheory import sieve_primes
from primesum.zm_sumsets import SubsetOfZm, cyclic_sumset_size, holder_lower_bound

from oracles import trial_primes


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
        monkeypatch.setattr(zs, "PAIR_BLOCK_BYTES", 1)
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

        def counting(b1, b2):
            calls.append(b1 == b2)
            return counts(b1, b2)

        monkeypatch.setattr(zm, "_sumset_counts", counting)
        run_pipeline(small_config(n=3000, w=5))
        assert calls == [True]

    def test_one_sieve_past_w_per_run(self, monkeypatch):
        from primesum.prime_embed import choose_N

        limits = record_calls(monkeypatch, "sieve_primes")
        run_pipeline(small_config(n=3000, w=5))
        assert [x for x in limits if x > 5] == [30 * choose_N(3000, 30) + 30]
        assert len(limits) <= 3

    def test_class_transforms_stacked(self, monkeypatch):
        # one stacked transform serves every class density f, the weights nu
        # go through stacked blocks that nothing keeps, and no class is
        # transformed on its own
        import primesum.expcli.pipeline as pl
        import primesum.prime_embed as pe

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
        monkeypatch.setattr(pe, "PAIR_BLOCK_BYTES", 20 * 32 * big_n)
        report = run_pipeline(cfg)
        assert report.pair_reports.size and report.per_class == expected
        assert shapes == [(phi, big_n), (20, big_n), (20, big_n), (8, big_n)]
        (classes,) = embedded
        for ec in classes.values():
            assert "transform" in ec.f.__dict__
            assert "transform" not in ec.nu.__dict__

    @staticmethod
    def count_decompositions(monkeypatch) -> list:
        import primesum.prime_embed as pe

        decompose = pe.green_decompose
        calls = []

        def counting(f, eps0):
            calls.append((f.values.tobytes(), eps0))
            return decompose(f, eps0)

        monkeypatch.setattr(pe, "green_decompose", counting)
        return calls

    def test_one_split_per_class(self, monkeypatch):
        calls = self.count_decompositions(monkeypatch)
        cfg = small_config(
            n=6000, w=7, delta=0.5, rule=parse_rule("random-thinning"), seed=1
        )
        report = run_pipeline(cfg)
        cols = report.pair_reports
        assert set(cols["bohr_size_f"]) | set(cols["bohr_size_g"]) <= {1}
        assert len(calls) == report.summary["good_count"]

    def test_exact_splits_leave_zero_error_columns(self):
        cfg = small_config(
            n=6000, w=7, delta=0.5, rule=parse_rule("random-thinning"), seed=1
        )
        cols = run_pipeline(cfg).pair_reports
        assert cols.size and set(cols["bohr_size_f"]) | set(cols["bohr_size_g"]) == {1}
        for k in ("12", "21", "22"):
            assert set(cols[f"err{k}_l2sq"]) == {0.0}
            assert set(cols[f"err{k}_count"]) == {0}

    def test_pair_rows_match_per_pair_splits(self, monkeypatch):
        from primesum.ntheory import primorial
        from primesum.prime_embed import choose_N, embed_class, partition_and_densities
        from primesum.zn_spectral import green_decompose, positive_support

        from oracles import pair_pieces_oracle

        # at this level the Bohr sets are nontrivial and depend on the pair,
        # so the pair stage splits some classes again at the pair's level
        calls = self.count_decompositions(monkeypatch)
        cfg = small_config(**self.SPLIT)
        report = run_pipeline(cfg)
        good = report.summary["good_classes"]
        assert len(calls) > len(good)
        cols = report.pair_reports
        sizes = {}
        for b, size in (
            *zip(cols["b1"], cols["bohr_size_f"]),
            *zip(cols["b2"], cols["bohr_size_g"]),
        ):
            sizes.setdefault(b, set()).add(size)
        assert any(len(v) > 1 for v in sizes.values())

        mod = primorial(cfg.w)
        m = mod.m
        big_n = choose_N(cfg.n, m)
        table = sieve_primes(m * big_n + m)
        primes = table.upto(cfg.n)
        part = partition_and_densities(build_subset(cfg, primes), primes, cfg.w, mod)
        embeds = {b: embed_class(part, b, table) for b in good}

        def level(f):
            return min(1.0, 8.0**6 * f.mean() ** 4 / 400.0)

        # one split per (class, level): each class at its own level, and a
        # class whose own Bohr set is not {0} again at each pair's level
        own = {b: green_decompose(ec.f, level(ec.f)) for b, ec in embeds.items()}
        keys = {(b, level(ec.f)) for b, ec in embeds.items()}
        for row in cols.rows():
            b1, b2 = row["b1"], row["b2"]
            f, g = embeds[b1].f, embeds[b2].f
            pair_level = level(f if f.mean() <= g.mean() else g)
            for b, h in ((b1, f), (b2, g)):
                keys.add((b, level(h) if own[b].bohr.size == 1 else pair_level))
            df, dg = (green_decompose(h, pair_level) for h in (f, g))
            q = pair_pieces_oracle(
                f.values, df.f1.values, df.f2, g.values, dg.f1.values, dg.f2, 8.0
            )
            expected = {
                "alpha": min(f.mean(), g.mean()),
                "eps0_used": pair_level,
                "support_fraction": positive_support(f, g, 0.0) / big_n,
                "main_fraction": q["main_count"] / big_n,
                **{f"err{k}_count": q[f"err{k}_count"] for k in ("12", "21", "22")},
                "f1_max": df.f1_max,
                "g1_max": dg.f1_max,
                "bohr_size_f": df.bohr.size,
                "bohr_size_g": dg.bohr.size,
            }
            assert {k: row[k] for k in expected} == expected
            # irfft and ifft round differently; pieces that are 0 in exact
            # arithmetic sit at rounding level, under the floor of 1
            for k in ("12", "21", "22"):
                assert row[f"err{k}_l2sq"] == pytest.approx(
                    q[f"err{k}_l2sq"], rel=1e-12, abs=1e-12
                )
        by_values = {ec.f.values.tobytes(): b for b, ec in embeds.items()}
        assert len(calls) == len(set(calls))
        assert {(by_values[v], eps0) for v, eps0 in calls} == keys

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


class TestReports:
    def test_json_roundtrip(self, pipeline_report):
        parsed = json.loads(render_json(pipeline_report))
        assert parsed == _sanitize(pipeline_report.to_dict())

    def test_pair_columns_are_json_native(self, pipeline_report):
        # the JSON writer encodes a column in one C-encoder call only when
        # every cell is a plain number or bool
        table = pipeline_report.pair_reports
        assert table.size
        for name, cells in table.items():
            assert set(map(type, cells)) <= {int, float, bool}, name

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
        text = emit_report(pipeline_report, "json", str(path))
        assert path.read_text() == text

    def test_emit_bad_path(self, pipeline_report, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report(pipeline_report, "json", str(tmp_path / "no" / "dir.json"))


class TestRandomHost:
    def test_full_density_fills(self):
        exp = RandomSetExperiment(N=64, p=1.0, alpha=1.0, trials=3, seed=0)
        report = simulate_random_host(exp)
        assert all(r["sumset_fraction"] == 1.0 for r in report.trials)

    def test_same_seed_identical(self):
        exp = RandomSetExperiment(N=256, p=0.3, alpha=0.5, trials=4, seed=9)
        a = simulate_random_host(exp)
        b = simulate_random_host(exp)
        assert render_json(a) == render_json(b)

    def test_trials_beat_holder_bound(self):
        exp = RandomSetExperiment(N=128, p=0.4, alpha=0.6, trials=5, seed=2)
        report = simulate_random_host(exp)
        for row in report.trials:
            if row["skipped"]:
                continue
            rng = np.random.Generator(
                np.random.Philox(key=np.array([2, row["trial"]], dtype=np.uint64))
            )
            host = np.flatnonzero(rng.random(128) < 0.4).astype(np.int64)
            target = math.ceil(0.6 * host.size)
            subset = np.sort(rng.permutation(host)[:target])
            assert subset.size == row["subset_size"]
            cert = holder_lower_bound(SubsetOfZm.from_members(128, subset), 2)
            assert row["sumset_size"] >= cert.bound - 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomSetExperiment(N=0, p=0.5, alpha=0.5, trials=1).validate()
        with pytest.raises(ConfigurationError):
            RandomSetExperiment(N=10, p=0.0, alpha=0.5, trials=1).validate()


class TestCli:
    def test_sieve_exit_zero(self, capsys):
        assert main(["sieve", "--n", "30"]) == 0
        out = capsys.readouterr().out
        assert "29" in out

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
        expected = cyclic_sumset_size(b.members_array(), 1_000_000)
        assert f" sumset={expected} " in out

    def test_config_error_maps_to_two(self, capsys):
        code = main(
            ["pipeline", "--n", "50", "--W", "3", "--format", "json", "--out", "x"]
        )
        assert code == 2

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

    def test_failing_l1_identity_maps_to_three(self, monkeypatch, capsys):
        import primesum.prime_embed as pe
        from primesum.zn_spectral import DensityFunction

        convolve_pairs, l1 = pe.convolve_pairs, DensityFunction.l1

        def broken(densities, *args):
            # one class mass off by half: its pairs miss the L1 identity
            target = densities[-1]
            monkeypatch.setattr(
                DensityFunction,
                "l1",
                lambda self: l1(self) * (1.5 if self is target else 1.0),
            )
            return convolve_pairs(densities, *args)

        monkeypatch.setattr(pe, "convolve_pairs", broken)
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

    def test_one_gcd_table_per_znstar_bound(self, monkeypatch, capsys):
        tables = record_calls(monkeypatch, "gcd_table")
        argv = ["znstar-bound", "--m", "2310", "--set-spec", "units-random:0.3:1"]
        assert main(argv) == 0
        assert [mod.m for mod in tables] == [2310]

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

    def test_simulate_random_files_identical(self, tmp_path):
        args = [
            "simulate-random",
            "--N",
            "256",
            "--p",
            "0.5",
            "--alpha",
            "0.5",
            "--trials",
            "3",
            "--seed",
            "4",
            "--format",
            "csv",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
