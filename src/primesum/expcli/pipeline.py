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
    EmbeddedClasses,
    ResiduePartition,
    aggregate_delta,
    choose_N,
    embed_classes,
    embedding_limit,
    pair_sumset_columns,
    partition_and_densities,
)
from ..zm_sumsets import (
    SubsetOfZm,
    choose_moment_order,
    integer_sumset_flags,
    kth_moment,
)
from .config import ExperimentConfig, build_subset
from .reports import Columns

__all__ = ["CheckRow", "FinalReport", "run_pipeline"]

_MAX_PAIR_WORK = 1_000_000_000
# flags read per block when the integer sumset is counted by residue
_RESIDUE_BLOCK = 1 << 20


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
    splits: Columns
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
                "splits": self.splits,
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
    ledger: _Ledger, part: ResiduePartition, total_a: int
) -> float:
    """Reconcile the partition's subset counts exactly against the subset,
    and record the density masses; returns the summed density of the good
    classes.  The partition itself checks that its prime counts cover the
    primes."""
    class_a = sum(a_arr.size for a_arr in part.members)
    ledger.require(
        "class-mass-reconciliation",
        class_a + part.residual_a,
        total_a,
        "==",
        class_a + part.residual_a == total_a,
        "subset classes fail to reconcile with the subset",
    )
    weighted = math.fsum((part.delta_b * part.prime_count).tolist())
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
    sum_delta_units = math.fsum(part.delta_b.tolist())
    ledger.report(
        "unit-density-mass",
        sum_delta_units,
        part.delta * totient,
        ">=",
        sum_delta_units >= part.delta * totient,
    )
    sum_delta_good = math.fsum(part.delta_b[part.good].tolist())
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
) -> tuple[EmbeddedClasses, Columns]:
    """Embed every unit class against the run's prime table; returns the
    embedding and the per-class table, one row per class."""
    emb = embed_classes(part, table)
    threshold = (part.delta_b / 16.0).tolist()
    passed = [mass >= cut for mass, cut in zip(emb.mass, threshold)]
    per_class = Columns(
        b=part.units.tolist(),
        prime_count=part.prime_count.tolist(),
        subset_count=[a_arr.size for a_arr in part.members],
        delta_b=part.delta_b.tolist(),
        good=part.good.tolist(),
        mass=list(emb.mass),
        mass_threshold=threshold,
        mass_passed=passed,
        zero_mode_error=list(emb.zero_mode_error),
        offpeak_sup=list(emb.offpeak_sup),
        offpeak_reference=[emb.offpeak_reference] * len(passed),
    )
    good_passed = [ok for ok, good in zip(passed, per_class["good"]) if good]
    ledger.report(
        "good-class-weight-mass",
        sum(good_passed),
        len(good_passed),
        "all good classes reach delta_b/16",
        all(good_passed),
    )
    return emb, per_class


def _pair_stage(
    ledger: _Ledger,
    cfg: ExperimentConfig,
    part: ResiduePartition,
    emb: EmbeddedClasses,
    eps0: float,
    sigma: float,
) -> tuple[Columns, Columns]:
    """Bound every good pair's sumset; returns the pair and splits tables."""
    pairs, splits = pair_sumset_columns(part, emb, eps0, sigma)
    good = part.units[part.good]
    i, j = np.searchsorted(good, pairs["b1"]), np.searchsorted(good, pairs["b2"])
    delta = part.delta_b[part.good]
    mean = np.zeros(good.size)  # 0 for a class that no pair splits
    mean[np.searchsorted(good, splits["b"])] = splits["mean"]
    # support on the scale of the witness row's max(delta - eps, 0) n / m
    target = ((delta[i] + delta[j]) / 2.0 - cfg.eps) * part.n / part.modulus.m
    main = pairs["main_count"] / emb.f.shape[1]
    for name, passed, relation in (
        ("pair-support-targets", pairs["support_count"] >= target - 1e-9,
         "support_count >= ((delta_b1 + delta_b2)/2 - eps) n/m - 1e-9, "
         "the scale of witness-support-count"),
        ("pair-main-targets", main >= (mean[i] + mean[j]) / 2.0 - 3.0 * sigma,
         "main_count / N >= (mean_1 + mean_2)/2 - 3 sigma, the means of the splits"),
    ):
        n_pass, size = int(np.count_nonzero(passed)), passed.size
        ledger.report(name, n_pass, size, relation, n_pass == size if size else None)
    return Columns(pairs), Columns(splits)


def _residue_chain(
    ledger: _Ledger,
    cfg: ExperimentConfig,
    part: ResiduePartition,
    agg: DeltaAggregate,
    support: np.ndarray,
    sum_delta_good: float,
) -> tuple[int, int, Columns, bool]:
    """Check the residue-level chain from the pair densities to the moment
    bound of the good set, given the pair stage's support counts in pair
    order; returns (k_formula, k, the residue table, witness_ok)."""
    mod = part.modulus
    good = part.units[part.good]
    alpha_good = good.size / mod.totient
    k_formula, k_floor = choose_moment_order(alpha_good)
    k = cfg.k if cfg.k is not None else k_floor
    cert = kth_moment(SubsetOfZm.from_members(mod.m, good), k, mod)
    # the counts leave their narrow dtype before any arithmetic
    r_x = cert.hist[agg.x].astype(np.int64)
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
    rebracketed = good.size * sum_delta_good
    gap = _rel_gap(sum_r_gamma, rebracketed)
    ledger.require(
        "pair-density-rebracketing",
        sum_r_gamma,
        rebracketed,
        "== (rel 1e-9)",
        gap <= 1e-9,
        f"pair-density re-bracketing misses by relative gap {gap:.3g}",
    )
    rg_reference = (part.delta / (2.0 * alpha_good)) * good.size**2
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
    # The pair of good rows i <= j sits at the row-major triangular index
    # i G - i (i - 1) / 2 + j - i, G the number of good classes.
    i, j = np.sort(np.searchsorted(good, [agg.witness_b1, agg.witness_b2]), axis=0)
    witness_support = support[i * good.size - i * (i - 1) // 2 + j - i]
    certified = witness_support >= agg.contribution - 1e-9
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
        witness_b1=agg.witness_b1.tolist(),
        witness_b2=agg.witness_b2.tolist(),
        witness_support=witness_support.tolist(),
        witness_certified=certified.tolist(),
        contribution=agg.contribution.tolist(),
    )
    return k_formula, k, residues, witness_ok


def _integer_sumset(
    ledger: _Ledger, a_arr: np.ndarray, m: int, agg: DeltaAggregate | None
) -> tuple[int | None, Columns]:
    """|A + A| over the integers with its count per residue mod m; (None, an
    empty table) for an empty A.  The residues are counted from the flags in
    blocks of ``_RESIDUE_BLOCK``, so no array of every sum is held."""
    if not a_arr.size:
        return None, Columns()
    lo, flags = integer_sumset_flags(a_arr)
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, flags.size, _RESIDUE_BLOCK):
        sums = np.flatnonzero(flags[start : start + _RESIDUE_BLOCK])
        sums += lo + start
        counts += np.bincount(sums % m, minlength=m)
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
    return int(counts.sum()), Columns(x=hit.tolist(), count=counts[hit].tolist())


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
        "residual_primes": part.residual_primes,
        "residual_subset": part.residual_a,
        "delta": part.delta,
        "good_count": int(np.count_nonzero(part.good)),
        "good_classes": part.units[part.good].tolist(),
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
    sum_delta_good = _reconcile_partition(ledger, part, total_a)
    emb, per_class = _class_rows(ledger, part, table)
    del table, primes  # the embedding was the last reader of the prime table
    pair_table, splits = _pair_stage(ledger, cfg, part, emb, eps0, sigma)
    del emb  # the pair stage was the last reader of the class densities

    agg = aggregate_delta(part, cfg.eps) if part.good.any() else None
    if agg is not None:
        k_formula, k, residue_density, witness_ok = _residue_chain(
            ledger, cfg, part, agg, pair_table["support_count"], sum_delta_good
        )
        lower_bound = agg.lower_bound
    else:
        k_formula, k = 0, cfg.k if cfg.k is not None else 3
        residue_density, witness_ok, lower_bound = Columns(), None, 0.0
    actual_sumset, sumset_residues = _integer_sumset(ledger, a_arr, m, agg)

    # the bound binds only when every witness certified its contribution; a
    # good class implies a nonempty A, so agg comes with |A + A|
    bound_ok = None if agg is None else lower_bound <= actual_sumset
    row = (
        "aggregate-bound-vs-sumset",
        lower_bound,
        actual_sumset,
        "<= (binding when witnesses pass)",
        bound_ok,
    )
    if witness_ok:
        ledger.require(
            *row,
            f"aggregated bound {lower_bound:.6g} exceeds the sumset size "
            f"{actual_sumset} although every witness passed",
        )
    else:
        ledger.report(*row)

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
        splits=splits,
        residue_density=residue_density,
        sumset_residues=sumset_residues,
        checks=ledger,
    )

