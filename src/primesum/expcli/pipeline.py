"""End-to-end pipeline: subset -> partition -> embeddings -> pair sumsets ->
aggregated lower bound -> moment chain, with every identity checked on the way.

Identities that hold for every finite input are asserted (InvariantViolation
on failure) and also recorded as check rows; asymptotic statements are
recorded with their reference values and a pass flag, never asserted.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import InvariantViolation
from ..ntheory import sieve_primes
from ..prime_embed import (
    aggregate_delta,
    choose_N,
    class_decomposition,
    embed_class,
    embedding_mass_check,
    pair_sumset_report,
    partition_and_densities,
    pseudorandom_deficit,
)
from ..zm_sumsets import (
    SubsetOfZm,
    choose_moment_order,
    cyclic_sumset_size,
    integer_sumset_flags,
    kth_moment,
    sumset,
)
from .config import ExperimentConfig, RandomSetExperiment, build_subset

__all__ = [
    "CheckRow",
    "FinalReport",
    "RandomHostReport",
    "run_pipeline",
    "simulate_random_host",
]

_ACTUAL_SUMSET_MAX_N = 2_000_000


def _pair_workers() -> int:
    text = os.environ.get("PRIMESUM_THREADS", "")
    try:
        value = int(text)
    except ValueError:
        return 1
    return max(1, min(value, os.cpu_count() or 1))


def _sanitize(value):
    """Coerce a report value to a JSON-native one (NaN/inf become null)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset, np.ndarray)):
        return [_sanitize(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class CheckRow:
    """One line of the verification ledger.

    ``kind`` is "assert" for finite identities (a failing one raises before
    the report exists) and "report" for asymptotic comparisons.  ``passed``
    is None when the comparison could not be evaluated on this run.
    """

    name: str
    kind: str
    lhs: float | int | None
    rhs: float | int | None
    relation: str
    passed: bool | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "lhs": _sanitize(self.lhs),
            "rhs": _sanitize(self.rhs),
            "relation": self.relation,
            "passed": self.passed,
        }


@dataclass
class FinalReport:
    """Everything a pipeline run produced, already JSON-native."""

    config: dict
    summary: dict
    per_class: list[dict]
    pair_reports: list[dict]
    residue_density: list[dict]
    sumset_residues: list[dict]
    checks: list[CheckRow]

    def to_dict(self) -> dict:
        return {
            "config": _sanitize(self.config),
            "tables": {
                "summary": _sanitize(self.summary),
                "per_class": _sanitize(self.per_class),
                "pair_reports": _sanitize(self.pair_reports),
                "residue_density": _sanitize(self.residue_density),
                "sumset_residues": _sanitize(self.sumset_residues),
            },
            "checks": [row.to_dict() for row in self.checks],
        }

    def to_tables(self) -> list[tuple[str, list[str], list[list]]]:
        tables: list[tuple[str, list[str], list[list]]] = []
        tables.append(("config", ["key", "value"], _kv_rows(self.config)))
        tables.append(("summary", ["key", "value"], _kv_rows(self.summary)))
        for name, rows in (
            ("per_class", self.per_class),
            ("pair_reports", self.pair_reports),
            ("residue_density", self.residue_density),
            ("sumset_residues", self.sumset_residues),
        ):
            header = list(rows[0]) if rows else []
            tables.append(
                (name, header, [[_sanitize(r[h]) for h in header] for r in rows])
            )
        check_header = ["name", "kind", "lhs", "rhs", "relation", "passed"]
        tables.append(
            (
                "checks",
                check_header,
                [[row.to_dict()[h] for h in check_header] for row in self.checks],
            )
        )
        return tables


def _kv_rows(mapping: dict) -> list[list]:
    return [[key, _sanitize(value)] for key, value in mapping.items()]


def _rel_gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def run_pipeline(cfg: ExperimentConfig) -> FinalReport:
    cfg.validate()
    checks: list[CheckRow] = []

    table = sieve_primes(cfg.n)
    a_arr = build_subset(cfg, table)
    part = partition_and_densities(a_arr, cfg.n, cfg.w)
    mod = part.modulus
    m = mod.m
    big_n = choose_N(cfg.n, m)
    checks.append(
        CheckRow(
            name="embedding-window",
            kind="assert",
            lhs=m * big_n,
            rhs=4 * cfg.n,
            relation="2n < m N <= 4n",
            passed=True,
        )
    )

    sigma = cfg.resolved_sigma()
    eps0 = cfg.resolved_eps0(part.delta)
    checks.append(
        CheckRow(
            name="sigma-vs-eps",
            kind="report",
            lhs=sigma,
            rhs=cfg.eps / 10.0,
            relation="<",
            passed=sigma < cfg.eps / 10.0,
        )
    )

    units = part.units
    good = sorted(part.good)

    # Exact reconciliation of the partition against the raw counts.
    class_a = sum(part.classes[b][0].size for b in units)
    class_p = sum(part.classes[b][1].size for b in units)
    total_a = int(a_arr.size)
    total_p = int(table.primes.size)
    if class_a + int(part.residual_a.size) != total_a:
        raise InvariantViolation("subset classes fail to reconcile with the subset")
    if class_p + int(part.residual_primes.size) != total_p:
        raise InvariantViolation("prime classes fail to reconcile with the primes")
    checks.append(
        CheckRow(
            name="class-mass-reconciliation",
            kind="assert",
            lhs=class_a + int(part.residual_a.size),
            rhs=total_a,
            relation="==",
            passed=True,
        )
    )

    weighted = math.fsum(
        part.delta_b[b] * part.classes[b][1].size for b in units
    )
    gap = _rel_gap(weighted, class_a)
    if gap > 1e-9:
        raise InvariantViolation(
            f"density-weighted class sizes miss the subset count by {gap:.3g}"
        )
    checks.append(
        CheckRow(
            name="delta-weighted-count",
            kind="assert",
            lhs=weighted,
            rhs=class_a,
            relation="== (rel 1e-9)",
            passed=True,
        )
    )

    sum_delta_units = math.fsum(part.delta_b[b] for b in units)
    checks.append(
        CheckRow(
            name="unit-density-mass",
            kind="report",
            lhs=sum_delta_units,
            rhs=part.delta * mod.totient,
            relation=">=",
            passed=sum_delta_units >= part.delta * mod.totient,
        )
    )
    sum_delta_good = math.fsum(part.delta_b[b] for b in good)
    checks.append(
        CheckRow(
            name="good-density-mass",
            kind="report",
            lhs=sum_delta_good,
            rhs=part.delta * mod.totient / 2.0,
            relation=">=",
            passed=sum_delta_good >= part.delta * mod.totient / 2.0,
        )
    )

    # Embed every unit class against a shared sieve.
    extended = sieve_primes(m * big_n + m)
    embeds = {b: embed_class(part, b, big_n, extended) for b in units}
    per_class: list[dict] = []
    for b in units:
        ec = embeds[b]
        mass = embedding_mass_check(ec)
        deficit = pseudorandom_deficit(ec)
        per_class.append(
            {
                "b": b,
                "prime_count": int(part.classes[b][1].size),
                "subset_count": int(part.classes[b][0].size),
                "delta_b": part.delta_b[b],
                "good": b in part.good,
                "mass": mass.mass,
                "mass_threshold": mass.threshold,
                "mass_passed": mass.passed,
                "zero_mode_error": deficit.zero_mode_error,
                "offpeak_sup": deficit.offpeak_sup,
                "offpeak_reference": deficit.reference_bound,
            }
        )
    good_mass_ok = all(
        row["mass_passed"] for row in per_class if row["good"]
    )
    checks.append(
        CheckRow(
            name="good-class-weight-mass",
            kind="report",
            lhs=sum(1 for r in per_class if r["good"] and r["mass_passed"]),
            rhs=len(good),
            relation="all good classes reach delta_b/16",
            passed=good_mass_ok,
        )
    )

    # Split each good class once; the pair reports convolve the splits.
    splits = {b: class_decomposition(embeds[b], eps0, sigma) for b in good}
    pairs = [(b1, b2) for i, b1 in enumerate(good) for b2 in good[i:]]

    def _one_pair(pair: tuple[int, int]):
        b1, b2 = pair
        return pair_sumset_report(
            embeds[b1], embeds[b2], splits[b1], splits[b2], cfg.eps, eps0, sigma
        )

    workers = _pair_workers()
    if workers > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_one_pair, pairs))
    else:
        reports = [_one_pair(p) for p in pairs]
    by_pair = {(rep.b1, rep.b2): rep for rep in reports}

    pair_rows: list[dict] = []
    for rep in reports:
        pair_rows.append(
            {
                "b1": rep.b1,
                "b2": rep.b2,
                "alpha": rep.alpha,
                "beta": rep.beta,
                "eps0_used": rep.eps0_used,
                "support_fraction": rep.support_fraction,
                "target_fraction": rep.target_fraction,
                "passed": rep.passed,
                "main_fraction": rep.main_fraction,
                "main_target": rep.main_target,
                "main_passed": rep.main_passed,
                "err12_count": rep.error_counts["12"],
                "err21_count": rep.error_counts["21"],
                "err22_count": rep.error_counts["22"],
                "err_count_reference": rep.error_count_reference,
                "err12_l2sq": rep.error_l2sq["12"],
                "err21_l2sq": rep.error_l2sq["21"],
                "err22_l2sq": rep.error_l2sq["22"],
                "f1_max": rep.f1_max,
                "g1_max": rep.g1_max,
                "bohr_size_f": rep.bohr_size_f,
                "bohr_size_g": rep.bohr_size_g,
            }
        )
    checks.append(
        CheckRow(
            name="pair-support-targets",
            kind="report",
            lhs=sum(1 for r in reports if r.passed),
            rhs=len(reports),
            relation="all pairs reach mean density - eps",
            passed=all(r.passed for r in reports) if reports else None,
        )
    )

    # Aggregate pair densities and the residue-level chain.
    agg = aggregate_delta(part, cfg.eps) if good else None
    residue_density: list[dict] = []
    lower_bound = 0.0
    witness_ok: bool | None = None
    if agg is not None:
        lower_bound = agg.lower_bound
        alpha_good = len(good) / mod.totient
        k_formula, k_floor = choose_moment_order(alpha_good)
        k = cfg.k if cfg.k is not None else k_floor
        g_set = SubsetOfZm.from_members(m, np.asarray(good, dtype=np.int64))
        cert = kth_moment(g_set, k, mod)
        r = cert.hist.r
        sums: dict[int, list[float]] = {}
        for b1 in good:
            for b2 in good:
                x = (b1 + b2) % m
                sums.setdefault(x, []).append(
                    (part.delta_b[b1] + part.delta_b[b2]) / 2.0
                )
        gamma: dict[int, float] = {}
        for x, vals in sorted(sums.items()):
            if len(vals) != int(r[x]):
                raise InvariantViolation(
                    f"pair multiplicity mismatch at residue {x}"
                )
            gamma[x] = math.fsum(vals) / len(vals)
            if gamma[x] > agg.delta_x[x] + 1e-12:
                raise InvariantViolation(
                    f"average pair density exceeds its maximum at residue {x}"
                )
        checks.append(
            CheckRow(
                name="gamma-below-delta",
                kind="assert",
                lhs=max(gamma[x] - agg.delta_x[x] for x in gamma),
                rhs=0.0,
                relation="<= (abs 1e-12)",
                passed=True,
            )
        )

        sum_r_gamma = math.fsum(r[x] * gamma[x] for x in sorted(gamma))
        rebracketed = len(good) * sum_delta_good
        gap = _rel_gap(sum_r_gamma, rebracketed)
        if gap > 1e-9:
            raise InvariantViolation(
                f"pair-density re-bracketing misses by relative gap {gap:.3g}"
            )
        checks.append(
            CheckRow(
                name="pair-density-rebracketing",
                kind="assert",
                lhs=sum_r_gamma,
                rhs=rebracketed,
                relation="== (rel 1e-9)",
                passed=True,
            )
        )

        rg_reference = (part.delta / (2.0 * alpha_good)) * len(good) ** 2
        checks.append(
            CheckRow(
                name="pair-density-vs-global",
                kind="report",
                lhs=sum_r_gamma,
                rhs=rg_reference,
                relation=">=",
                passed=sum_r_gamma >= rg_reference,
            )
        )

        dual = k / (k - 1.0)
        t_gamma = math.fsum(gamma[x] ** dual for x in sorted(gamma))
        t_delta = math.fsum(agg.delta_x[x] ** dual for x in sorted(agg.delta_x))
        holder_rhs = cert.s_rb ** (1.0 / k) * t_gamma ** ((k - 1.0) / k)
        if sum_r_gamma > holder_rhs * (1.0 + 1e-9):
            raise InvariantViolation("Hoelder bound fell below the pair sum")
        checks.append(
            CheckRow(
                name="holder-r-gamma",
                kind="assert",
                lhs=sum_r_gamma,
                rhs=holder_rhs,
                relation="<= (rel 1e-9)",
                passed=True,
            )
        )
        if t_gamma > t_delta + 1e-12:
            raise InvariantViolation("dual moment of averages exceeds maxima")
        checks.append(
            CheckRow(
                name="dual-moment-monotone",
                kind="assert",
                lhs=t_gamma,
                rhs=t_delta,
                relation="<= (abs 1e-12)",
                passed=True,
            )
        )
        sum_delta_x = math.fsum(agg.delta_x[x] for x in sorted(agg.delta_x))
        if sum_delta_x < t_delta - 1e-12:
            raise InvariantViolation("power mean domination failed")
        checks.append(
            CheckRow(
                name="power-mean-domination",
                kind="assert",
                lhs=sum_delta_x,
                rhs=t_delta,
                relation=">= (abs 1e-12)",
                passed=True,
            )
        )

        checks.append(
            CheckRow(
                name="good-set-moment-comparator",
                kind="report",
                lhs=cert.s_rb,
                rhs=cert.comparator,
                relation="<=",
                passed=cert.s_rb <= cert.comparator,
            )
        )
        checks.append(
            CheckRow(
                name="good-set-moment-strata",
                kind="assert",
                lhs=cert.s_rb,
                rhs=cert.s_r,
                relation="<= (exact)",
                passed=True,
            )
        )

        # A residue's contribution is certified once the witness pair's exact
        # support count (= |A_1 + A_2|, the convolution never wraps) covers it.
        for x in sorted(agg.delta_x):
            b1, b2 = agg.witness[x]
            key = (min(b1, b2), max(b1, b2))
            rep = by_pair[key]
            contribution = max(agg.delta_x[x] - cfg.eps, 0.0) * part.n / m
            certified = rep.support_count >= contribution - 1e-9
            residue_density.append(
                {
                    "x": x,
                    "r_x": int(r[x]),
                    "gamma_x": gamma[x],
                    "delta_x": agg.delta_x[x],
                    "witness_b1": b1,
                    "witness_b2": b2,
                    "witness_support": rep.support_count,
                    "witness_certified": certified,
                    "contribution": contribution,
                }
            )
        contributing = [r for r in residue_density if r["contribution"] > 0]
        witness_ok = all(r["witness_certified"] for r in contributing)
        checks.append(
            CheckRow(
                name="witness-support-count",
                kind="report",
                lhs=sum(1 for r in contributing if r["witness_certified"]),
                rhs=len(contributing),
                relation="witness support covers each contribution",
                passed=witness_ok,
            )
        )
    else:
        k_formula, k = 0, cfg.k if cfg.k is not None else 3

    # Actual integer sumset, when small enough to enumerate exactly.
    actual_sumset: int | None = None
    sumset_residues: list[dict] = []
    if a_arr.size and cfg.n <= _ACTUAL_SUMSET_MAX_N:
        lo, flags = integer_sumset_flags(a_arr, a_arr)
        actual_sumset = int(np.count_nonzero(flags))
        residues = (np.flatnonzero(flags) + lo) % m
        counts = np.bincount(residues.astype(np.int64), minlength=m)
        for x in np.flatnonzero(counts):
            sumset_residues.append({"x": int(x), "count": int(counts[x])})
        if agg is not None:
            reachable = set(agg.delta_x)
            covered = sum(
                1 for x in reachable if counts[x] > 0
            )
            checks.append(
                CheckRow(
                    name="sumset-covers-good-pairs",
                    kind="report",
                    lhs=covered,
                    rhs=len(reachable),
                    relation="every residue of G+G is hit",
                    passed=covered == len(reachable),
                )
            )

    bound_ok: bool | None = None
    if actual_sumset is not None and agg is not None:
        bound_ok = lower_bound <= actual_sumset
        if witness_ok and not bound_ok:
            raise InvariantViolation(
                f"aggregated bound {lower_bound:.6g} exceeds the sumset size "
                f"{actual_sumset} although every witness passed"
            )
    checks.append(
        CheckRow(
            name="aggregate-bound-vs-sumset",
            kind="assert" if witness_ok else "report",
            lhs=lower_bound,
            rhs=actual_sumset,
            relation="<= (binding when witnesses pass)",
            passed=bound_ok,
        )
    )

    # Empirical constant for the sumset against delta n e^{-x(delta)}.
    exponent_argument: float | None = None
    fitted_constant: float | None = None
    if 0.0 < part.delta < 1.0:
        log_inv = math.log(1.0 / part.delta)
        if log_inv > 1.0:
            exponent_argument = log_inv ** (2.0 / 3.0) * math.log(log_inv) ** (
                1.0 / 3.0
            )
            if actual_sumset is not None:
                fitted_constant = actual_sumset / (
                    part.delta * part.n * math.exp(-exponent_argument)
                )

    summary = {
        "n": cfg.n,
        "w": cfg.w,
        "m": m,
        "phi_m": mod.totient,
        "N": big_n,
        "prime_count": total_p,
        "subset_count": total_a,
        "residual_primes": int(part.residual_primes.size),
        "residual_subset": int(part.residual_a.size),
        "delta": part.delta,
        "good_count": len(good),
        "good_classes": list(good),
        "eps": cfg.eps,
        "sigma": sigma,
        "eps0": eps0,
        "k": k,
        "k_formula": k_formula,
        "lower_bound": lower_bound,
        "actual_sumset": actual_sumset,
        "witness_ok": witness_ok,
        "exponent_argument": exponent_argument,
        "fitted_constant": fitted_constant,
        "checks_passed": None,
    }

    passed_flags = [row.passed for row in checks if row.passed is not None]
    summary["checks_passed"] = sum(1 for p in passed_flags if p)
    summary["checks_total"] = len(passed_flags)

    return FinalReport(
        config=cfg.echo(),
        summary=summary,
        per_class=per_class,
        pair_reports=pair_rows,
        residue_density=residue_density,
        sumset_residues=sumset_residues,
        checks=checks,
    )


@dataclass
class RandomHostReport:
    """Trial-by-trial sumset fractions for random subsets of random hosts."""

    config: dict
    trials: list[dict]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "config": _sanitize(self.config),
            "tables": {
                "summary": _sanitize(self.summary),
                "trials": _sanitize(self.trials),
            },
            "checks": [],
        }

    def to_tables(self) -> list[tuple[str, list[str], list[list]]]:
        header = list(self.trials[0]) if self.trials else []
        return [
            ("config", ["key", "value"], _kv_rows(self.config)),
            ("summary", ["key", "value"], _kv_rows(self.summary)),
            (
                "trials",
                header,
                [[_sanitize(r[h]) for h in header] for r in self.trials],
            ),
        ]


def simulate_random_host(exp: RandomSetExperiment) -> RandomHostReport:
    """Draw hosts by independent inclusion, subsets by seeded shuffle, and
    record |A + A| / N per trial.

    Each trial uses a counter-based generator keyed by (seed, trial), so the
    results do not depend on evaluation order.
    """
    exp.validate()
    rows: list[dict] = []
    fractions: list[float] = []
    for t in range(exp.trials):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([exp.seed, t], dtype=np.uint64))
        )
        host = np.flatnonzero(rng.random(exp.N) < exp.p).astype(np.int64)
        if host.size == 0:
            rows.append(
                {
                    "trial": t,
                    "host_size": 0,
                    "subset_size": 0,
                    "skipped": True,
                    "sumset_size": None,
                    "sumset_fraction": None,
                }
            )
            continue
        target = math.ceil(exp.alpha * host.size)
        subset = np.sort(rng.permutation(host)[:target])
        if exp.N <= 8192:
            s = SubsetOfZm.from_members(exp.N, subset)
            size = sumset(s, s).cardinality
        else:
            size = cyclic_sumset_size(subset, exp.N)
        fraction = size / exp.N
        fractions.append(fraction)
        rows.append(
            {
                "trial": t,
                "host_size": int(host.size),
                "subset_size": int(subset.size),
                "skipped": False,
                "sumset_size": int(size),
                "sumset_fraction": fraction,
            }
        )
    summary = {
        "trials": exp.trials,
        "completed": len(fractions),
        "skipped": exp.trials - len(fractions),
        "mean_fraction": math.fsum(fractions) / len(fractions) if fractions else None,
        "min_fraction": min(fractions) if fractions else None,
        "max_fraction": max(fractions) if fractions else None,
    }
    return RandomHostReport(config=exp.echo(), trials=rows, summary=summary)
