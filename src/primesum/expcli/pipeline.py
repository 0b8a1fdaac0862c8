"""End-to-end pipeline: subset -> partition -> embeddings -> pair sumsets ->
aggregated lower bound -> moment chain, with every identity checked on the way.

Identities that hold for every finite input are asserted (InvariantViolation
on failure) and also recorded as check rows; asymptotic statements are
recorded with their reference values and a pass flag, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InvariantViolation
from ..ntheory import PrimeTable, primorial, sieve_primes
from ..prime_embed import (
    DeltaAggregate,
    EmbeddedClass,
    ResiduePartition,
    aggregate_delta,
    choose_N,
    embed_classes,
    embedding_limit,
    embedding_mass_check,
    pair_sumset_columns,
    partition_and_densities,
    pseudorandom_deficits,
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
from .reports import Columns

__all__ = [
    "CheckRow",
    "FinalReport",
    "RandomHostReport",
    "run_pipeline",
    "simulate_random_host",
]

_ACTUAL_SUMSET_MAX_N = 2_000_000
_MAX_PAIR_WORK = 1_000_000_000


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


@dataclass
class FinalReport:
    """Everything a pipeline run produced; every table is held as its
    columns."""

    config: dict
    summary: dict
    per_class: Columns
    pair_reports: Columns
    residue_density: Columns
    sumset_residues: Columns
    checks: list[CheckRow]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "tables": {
                "summary": self.summary,
                "per_class": self.per_class,
                "pair_reports": self.pair_reports,
                "residue_density": self.residue_density,
                "sumset_residues": self.sumset_residues,
            },
            "checks": Columns.from_rows([vars(row) for row in self.checks]),
        }


def _rel_gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


class _Ledger(list):
    """The check rows of one run, in the order they were recorded.

    ``require`` raises before it records, so an assert row exists only if
    its identity held; ``report`` rows never gate the run.
    """

    def require(self, name, lhs, rhs, relation, ok, message) -> None:
        if not ok:
            raise InvariantViolation(message)
        self.append(CheckRow(name, "assert", lhs, rhs, relation, True))

    def report(self, name, lhs, rhs, relation, passed) -> None:
        self.append(CheckRow(name, "report", lhs, rhs, relation, passed))


def _reconcile_partition(
    ledger: _Ledger, part: ResiduePartition, total_a: int, total_p: int
) -> float:
    """Reconcile the partition exactly against the raw counts, and record the
    density masses; returns the summed density of the good classes."""
    units = part.units
    class_a = sum(part.classes[b][0].size for b in units)
    class_p = sum(part.classes[b][1].size for b in units)
    ledger.require(
        "class-mass-reconciliation",
        class_a + part.residual_a.size,
        total_a,
        "==",
        class_a + part.residual_a.size == total_a,
        "subset classes fail to reconcile with the subset",
    )
    if class_p + part.residual_primes.size != total_p:
        raise InvariantViolation("prime classes fail to reconcile with the primes")

    weighted = math.fsum(part.delta_b[b] * part.classes[b][1].size for b in units)
    gap = _rel_gap(weighted, class_a)
    ledger.require(
        "delta-weighted-count",
        weighted,
        class_a,
        "== (rel 1e-9)",
        gap <= 1e-9,
        f"density-weighted class sizes miss the subset count by {gap:.3g}",
    )

    totient = part.modulus.totient
    sum_delta_units = math.fsum(part.delta_b[b] for b in units)
    ledger.report(
        "unit-density-mass",
        sum_delta_units,
        part.delta * totient,
        ">=",
        sum_delta_units >= part.delta * totient,
    )
    sum_delta_good = math.fsum(part.delta_b[b] for b in sorted(part.good))
    ledger.report(
        "good-density-mass",
        sum_delta_good,
        part.delta * totient / 2.0,
        ">=",
        sum_delta_good >= part.delta * totient / 2.0,
    )
    return sum_delta_good


def _class_rows(
    ledger: _Ledger, part: ResiduePartition, table: PrimeTable
) -> tuple[dict[int, EmbeddedClass], Columns]:
    """Embed every unit class against the run's prime table; returns the
    embeddings by class and the per-class table, one row per class."""
    embeds = embed_classes(part, table)
    units = list(embeds)
    masses = [embedding_mass_check(ec) for ec in embeds.values()]
    deficits = pseudorandom_deficits(list(embeds.values()))
    per_class = Columns(
        b=units,
        prime_count=[int(part.classes[b][1].size) for b in units],
        subset_count=[int(part.classes[b][0].size) for b in units],
        delta_b=[part.delta_b[b] for b in units],
        good=[b in part.good for b in units],
        mass=[mass.mass for mass in masses],
        mass_threshold=[mass.threshold for mass in masses],
        mass_passed=[mass.passed for mass in masses],
        zero_mode_error=[deficit.zero_mode_error for deficit in deficits],
        offpeak_sup=[deficit.offpeak_sup for deficit in deficits],
        offpeak_reference=[deficit.reference_bound for deficit in deficits],
    )
    good_passed = [mass.passed for mass in masses if mass.b in part.good]
    ledger.report(
        "good-class-weight-mass",
        sum(good_passed),
        len(part.good),
        "all good classes reach delta_b/16",
        all(good_passed),
    )
    return embeds, per_class


def _pair_stage(
    ledger: _Ledger,
    cfg: ExperimentConfig,
    embeds: dict[int, EmbeddedClass],
    good: list[int],
    eps0: float,
    sigma: float,
) -> tuple[dict[tuple[int, int], int], Columns]:
    """Bound the sumset of every unordered good pair from the classes'
    splits; returns the exact support count by pair and the pair table, in
    pair order."""
    classes = [embeds[b] for b in good]
    columns = pair_sumset_columns(classes, cfg.eps, eps0, sigma)
    support = dict(zip(zip(columns["b1"], columns["b2"]), columns.pop("support_count")))
    passed = columns["passed"]
    ledger.report(
        "pair-support-targets",
        sum(passed),
        len(passed),
        "all pairs reach mean density - eps",
        all(passed) if passed else None,
    )
    return support, Columns(columns)


def _residue_chain(
    ledger: _Ledger,
    cfg: ExperimentConfig,
    part: ResiduePartition,
    agg: DeltaAggregate,
    support: dict[tuple[int, int], int],
    sum_delta_good: float,
) -> tuple[int, int, Columns, bool]:
    """Check the residue-level chain from the pair densities to the moment
    bound of the good set; returns (k_formula, k, the residue table,
    witness_ok)."""
    mod = part.modulus
    good = sorted(part.good)
    alpha_good = len(good) / mod.totient
    k_formula, k_floor = choose_moment_order(alpha_good)
    k = cfg.k if cfg.k is not None else k_floor
    cert = kth_moment(SubsetOfZm.from_members(mod.m, good), k, mod)
    r_x = cert.hist.r[agg.x]
    mismatch = agg.x[agg.count != r_x]
    if mismatch.size:
        raise InvariantViolation(f"pair multiplicity mismatch at residue {mismatch[0]}")
    over = agg.x[agg.gamma > agg.delta + 1e-12]
    ledger.require(
        "gamma-below-delta",
        float(np.max(agg.gamma - agg.delta)),
        0.0,
        "<= (abs 1e-12)",
        not over.size,
        f"average pair density exceeds its maximum at residue "
        f"{over[0] if over.size else None}",
    )

    gamma, delta = agg.gamma.tolist(), agg.delta.tolist()
    sum_r_gamma = math.fsum((r_x * agg.gamma).tolist())
    rebracketed = len(good) * sum_delta_good
    gap = _rel_gap(sum_r_gamma, rebracketed)
    ledger.require(
        "pair-density-rebracketing",
        sum_r_gamma,
        rebracketed,
        "== (rel 1e-9)",
        gap <= 1e-9,
        f"pair-density re-bracketing misses by relative gap {gap:.3g}",
    )
    rg_reference = (part.delta / (2.0 * alpha_good)) * len(good) ** 2
    ledger.report(
        "pair-density-vs-global",
        sum_r_gamma,
        rg_reference,
        ">=",
        sum_r_gamma >= rg_reference,
    )

    dual = k / (k - 1.0)
    t_gamma = math.fsum(g**dual for g in gamma)
    t_delta = math.fsum(d**dual for d in delta)
    holder_rhs = cert.s_rb ** (1.0 / k) * t_gamma ** ((k - 1.0) / k)
    ledger.require(
        "holder-r-gamma",
        sum_r_gamma,
        holder_rhs,
        "<= (rel 1e-9)",
        sum_r_gamma <= holder_rhs * (1.0 + 1e-9),
        "Hoelder bound fell below the pair sum",
    )
    ledger.require(
        "dual-moment-monotone",
        t_gamma,
        t_delta,
        "<= (abs 1e-12)",
        t_gamma <= t_delta + 1e-12,
        "dual moment of averages exceeds maxima",
    )
    sum_delta = math.fsum(delta)
    ledger.require(
        "power-mean-domination",
        sum_delta,
        t_delta,
        ">= (abs 1e-12)",
        sum_delta >= t_delta - 1e-12,
        "power mean domination failed",
    )
    ledger.report(
        "good-set-moment-comparator",
        cert.s_rb,
        cert.comparator,
        "<=",
        cert.s_rb <= cert.comparator,
    )
    ledger.require(
        "good-set-moment-strata",
        cert.s_rb,
        cert.s_r,
        "<= (exact)",
        cert.s_rb <= cert.s_r,
        "restricted moment exceeds the unit-shift moment",
    )

    # A residue's contribution is certified once the witness pair's exact
    # support count (= |A_1 + A_2|, the convolution never wraps) covers it.
    b1, b2 = agg.witness_b1.tolist(), agg.witness_b2.tolist()
    witness_support = [support[min(pair), max(pair)] for pair in zip(b1, b2)]
    certified = np.array(witness_support) >= agg.contribution - 1e-9
    contributing = certified[agg.contribution > 0]
    witness_ok = bool(contributing.all())
    ledger.report(
        "witness-support-count",
        int(np.count_nonzero(contributing)),
        contributing.size,
        "witness support covers each contribution",
        witness_ok,
    )
    residues = Columns(
        x=agg.x.tolist(),
        r_x=r_x.tolist(),
        gamma_x=gamma,
        delta_x=delta,
        witness_b1=b1,
        witness_b2=b2,
        witness_support=witness_support,
        witness_certified=certified.tolist(),
        contribution=agg.contribution.tolist(),
    )
    return k_formula, k, residues, witness_ok


def _integer_sumset(
    ledger: _Ledger,
    cfg: ExperimentConfig,
    a_arr: np.ndarray,
    m: int,
    agg: DeltaAggregate | None,
) -> tuple[int | None, Columns]:
    """|A + A| over the integers with its count per residue mod m, when
    small enough to enumerate exactly; (None, an empty table) otherwise."""
    if not a_arr.size or cfg.n > _ACTUAL_SUMSET_MAX_N:
        return None, Columns()
    lo, flags = integer_sumset_flags(a_arr, a_arr)
    residues = (np.flatnonzero(flags) + lo) % m
    counts = np.bincount(residues.astype(np.int64), minlength=m)
    if agg is not None:
        covered = int(np.count_nonzero(counts[agg.x]))
        ledger.report(
            "sumset-covers-good-pairs",
            covered,
            agg.x.size,
            "every residue of G+G is hit",
            covered == agg.x.size,
        )
    hit = np.flatnonzero(counts)
    return int(np.count_nonzero(flags)), Columns(x=hit.tolist(), count=counts[hit].tolist())


def _summary(
    cfg: ExperimentConfig,
    part: ResiduePartition,
    ledger: _Ledger,
    *,
    big_n: int,
    total_p: int,
    total_a: int,
    sigma: float,
    eps0: float,
    k: int,
    k_formula: int,
    lower_bound: float,
    actual_sumset: int | None,
    witness_ok: bool | None,
) -> dict:
    """The summary table: the run's sizes and parameters, the bound against
    the sumset, the empirical constant against delta n e^{-x(delta)} and the
    check tally."""
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
    passed_flags = [row.passed for row in ledger if row.passed is not None]
    return {
        "n": cfg.n,
        "w": cfg.w,
        "m": part.modulus.m,
        "phi_m": part.modulus.totient,
        "N": big_n,
        "prime_count": total_p,
        "subset_count": total_a,
        "residual_primes": int(part.residual_primes.size),
        "residual_subset": int(part.residual_a.size),
        "delta": part.delta,
        "good_count": len(part.good),
        "good_classes": sorted(part.good),
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
        "checks_passed": sum(1 for p in passed_flags if p),
        "checks_total": len(passed_flags),
    }


def run_pipeline(cfg: ExperimentConfig) -> FinalReport:
    """Run the chain from the prime subset to the moment bound on |A + A|.

    The stages run in order (partition reconciliation, per-class rows, the
    pair stage, the residue/moment chain, the integer sumset, the summary)
    and record their checks in one ledger; a failing identity raises
    InvariantViolation.  A run whose pair stage would exceed phi^2 N = 10^9
    is refused with ConfigurationError before the sieve.
    """
    cfg.validate()
    ledger = _Ledger()

    # one sieve serves the run; the primes up to n are its prefix
    mod = primorial(cfg.w)
    m = mod.m
    big_n = choose_N(cfg.n, m)
    work = mod.totient**2 * big_n
    if work > _MAX_PAIR_WORK:
        raise ConfigurationError(
            f"pairwise workload phi^2 N = {work} exceeds {_MAX_PAIR_WORK}; "
            "lower w or n"
        )
    table = sieve_primes(embedding_limit(cfg.n, m))
    primes = table.upto(cfg.n)
    a_arr = build_subset(cfg, primes)
    part = partition_and_densities(a_arr, primes, cfg.w, mod)
    ledger.require(
        "embedding-window",
        m * big_n,
        4 * cfg.n,
        "2n < m N <= 4n",
        2 * cfg.n < m * big_n <= 4 * cfg.n,
        f"embedding length {big_n} fell outside its window",
    )
    sigma = cfg.resolved_sigma()
    eps0 = cfg.resolved_eps0(part.delta)
    ledger.report("sigma-vs-eps", sigma, cfg.eps / 10.0, "<", sigma < cfg.eps / 10.0)

    total_a, total_p = int(a_arr.size), len(primes)
    sum_delta_good = _reconcile_partition(ledger, part, total_a, total_p)
    embeds, per_class = _class_rows(ledger, part, table)
    del table, primes  # the embeddings were the last readers of the prime table
    good = sorted(part.good)
    support, pair_table = _pair_stage(ledger, cfg, embeds, good, eps0, sigma)

    agg = aggregate_delta(part, cfg.eps) if good else None
    if agg is not None:
        k_formula, k, residue_density, witness_ok = _residue_chain(
            ledger, cfg, part, agg, support, sum_delta_good
        )
        lower_bound = agg.lower_bound
    else:
        k_formula, k = 0, cfg.k if cfg.k is not None else 3
        residue_density, witness_ok, lower_bound = Columns(), None, 0.0
    actual_sumset, sumset_residues = _integer_sumset(ledger, cfg, a_arr, m, agg)

    # the bound binds only when every witness certified its contribution
    bound_ok: bool | None = None
    if actual_sumset is not None and agg is not None:
        bound_ok = lower_bound <= actual_sumset
        if witness_ok and not bound_ok:
            raise InvariantViolation(
                f"aggregated bound {lower_bound:.6g} exceeds the sumset size "
                f"{actual_sumset} although every witness passed"
            )
    ledger.append(
        CheckRow(
            name="aggregate-bound-vs-sumset",
            kind="assert" if witness_ok else "report",
            lhs=lower_bound,
            rhs=actual_sumset,
            relation="<= (binding when witnesses pass)",
            passed=bound_ok,
        )
    )

    summary = _summary(
        cfg,
        part,
        ledger,
        big_n=big_n,
        total_p=total_p,
        total_a=total_a,
        sigma=sigma,
        eps0=eps0,
        k=k,
        k_formula=k_formula,
        lower_bound=lower_bound,
        actual_sumset=actual_sumset,
        witness_ok=witness_ok,
    )
    return FinalReport(
        config=cfg.echo(),
        summary=summary,
        per_class=per_class,
        pair_reports=pair_table,
        residue_density=residue_density,
        sumset_residues=sumset_residues,
        checks=ledger,
    )


@dataclass
class RandomHostReport:
    """Trial-by-trial sumset fractions for random subsets of random hosts."""

    config: dict
    trials: list[dict]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "tables": {"summary": self.summary, "trials": Columns.from_rows(self.trials)},
            "checks": [],
        }


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
