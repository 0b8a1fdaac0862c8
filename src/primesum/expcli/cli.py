"""Command-line front end.

Exit codes: 0 on success, 2 on configuration or domain errors, 3 when an
unconditional invariant fails.  All output is deterministic for a fixed
argument vector (no timestamps, no machine identifiers), so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ..errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    SizeLimitError,
)
from ..ntheory import (
    FactoredModulus,
    PrimeTable,
    factorize,
    primorial,
    sieve_primes,
    unit_indicator,
)
from ..prime_embed import (
    embed_class,
    embedding_limit,
    embedding_mass_check,
    partition_and_densities,
    pseudorandom_deficit,
)
from ..zm_sumsets import (
    SubsetOfZm,
    cyclic_sumset_size,
    extremal_construct,
    kth_moment,
    sumset,
    znstar_certificate,
)
from ..zn_spectral import dft, green_decompose
from .config import (
    ExperimentConfig,
    RandomSetExperiment,
    build_subset,
    check_moment_order,
    parse_rule,
)
from .pipeline import run_pipeline, simulate_random_host
from .reports import emit_report

__all__ = ["main", "build_parser", "parse_set_spec"]

# the desk-scale cap the pipeline puts on n, applied to sieve's n and to the
# Z_m commands' m
_MAX_M = 10_000_000


def parse_set_spec(text: str, m: int) -> SubsetOfZm:
    """Build a subset of Z_m from a compact spec string.

    Forms: ``units``; ``units-filter:b0:m0`` (units congruent to b0 mod m0);
    ``list:1,7,13``; ``random:frac:seed`` (seeded shuffle of Z_m);
    ``units-random:frac:seed`` (seeded shuffle of the units).  m must lie
    in [1, 10^7], checked before any array is built.
    """
    if not 1 <= m <= _MAX_M:
        raise ConfigurationError(f"m must lie in [1, {_MAX_M}], got {m}")
    parts = text.strip().split(":")
    kind = parts[0]

    def units() -> np.ndarray:
        return np.flatnonzero(unit_indicator(factorize(m)))

    if kind == "units":
        if len(parts) != 1:
            raise ConfigurationError(f"units takes no parameters, got {text!r}")
        return SubsetOfZm.from_members(m, units())
    if kind == "units-filter":
        if len(parts) != 3:
            raise ConfigurationError(f"units-filter needs b0 and m0, got {text!r}")
        try:
            b0, m0 = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"bad units-filter parameters in {text!r}") from exc
        if not 1 <= m0 < 2**63:
            raise ConfigurationError(f"units-filter needs 1 <= m0 < 2^63, got {m0}")
        pool = units()
        return SubsetOfZm.from_members(m, pool[pool % m0 == b0 % m0])
    if kind == "list":
        if len(parts) != 2:
            raise ConfigurationError(f"list needs members, e.g. list:1,7, got {text!r}")
        try:
            members = sorted({int(v) for v in parts[1].split(",") if v.strip()})
        except ValueError as exc:
            raise ConfigurationError(f"bad member list in {text!r}") from exc
        return SubsetOfZm.from_members(m, members)
    if kind in ("random", "units-random"):
        if len(parts) != 3:
            raise ConfigurationError(f"{kind} needs frac and seed, got {text!r}")
        try:
            frac = float(parts[1])
            seed = int(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"bad parameters in {text!r}") from exc
        if not 0 < frac <= 1:
            raise ConfigurationError(f"frac must lie in (0, 1], got {frac}")
        if not 0 <= seed < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
        pool = units() if kind == "units-random" else np.arange(m, dtype=np.int64)
        size = math.ceil(frac * pool.size)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        )
        chosen = np.sort(rng.permutation(pool)[:size])
        return SubsetOfZm.from_members(m, chosen)
    raise ConfigurationError(f"unknown set spec {kind!r}")


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _cmd_sieve(args) -> int:
    if args.n > _MAX_M:
        raise ConfigurationError(f"n must be at most {_MAX_M}, got {args.n}")
    table = sieve_primes(args.n)
    _print(f"n={args.n} count={table.primes.size} largest={int(table.primes[-1])}")
    return 0


def _config(args) -> ExperimentConfig:
    """The experiment of a command's options; those it lacks keep defaults."""
    fields = ("delta", "eps", "eps0", "sigma", "k", "seed")
    options = {name: getattr(args, name) for name in fields if hasattr(args, name)}
    if hasattr(args, "format"):
        options["output_format"] = args.format
    return ExperimentConfig(n=args.n, w=args.W, rule=parse_rule(args.rule), **options)


def _partition(cfg: ExperimentConfig, table: PrimeTable, mod: FactoredModulus):
    primes = table.upto(cfg.n)
    return partition_and_densities(build_subset(cfg, primes), primes, cfg.w, mod)


def _embedded_class(args):
    """The class of --b, checked first, embedded against one sieve to m N + m."""
    cfg = _config(args)
    cfg.validate()
    mod = primorial(cfg.w)
    m = mod.m
    if not 0 <= args.b < m or math.gcd(args.b, m) != 1:
        raise DomainError(f"{args.b} is not a reduced residue of {m}")
    table = sieve_primes(embedding_limit(cfg.n, m))
    return embed_class(_partition(cfg, table, mod), args.b, table)


def _cmd_partition(args) -> int:
    cfg = _config(args)
    cfg.validate()
    part = _partition(cfg, sieve_primes(cfg.n), primorial(cfg.w))
    mod = part.modulus
    _print(
        f"n={args.n} W={args.W} m={mod.m} phi={mod.totient} "
        f"delta={_fmt(part.delta)} good={','.join(str(b) for b in sorted(part.good))}"
    )
    for b in part.units:
        a_arr, p_arr = part.classes[b]
        _print(
            f"b={b} primes={p_arr.size} subset={a_arr.size} "
            f"delta_b={_fmt(part.delta_b[b])} good={_fmt(b in part.good)}"
        )
    _print(
        f"residual primes={part.residual_primes.size} subset={part.residual_a.size}"
    )
    return 0


def _cmd_spectrum(args) -> int:
    if args.top < 0:
        raise ConfigurationError(f"--top must be nonnegative, got {args.top}")
    ec = _embedded_class(args)
    deficit = pseudorandom_deficit(ec)
    mass = embedding_mass_check(ec)
    _print(
        f"b={ec.b} N={ec.N} zero_mode_error={_fmt(deficit.zero_mode_error)} "
        f"offpeak_sup={_fmt(deficit.offpeak_sup)} "
        f"reference={_fmt(deficit.reference_bound)}"
    )
    _print(
        f"mass={_fmt(mass.mass)} threshold={_fmt(mass.threshold)} "
        f"passed={_fmt(mass.passed)}"
    )
    mags = np.abs(dft(ec.f).coeffs)
    order = np.argsort(-mags, kind="stable")[: args.top]
    for xi in order:
        _print(f"xi={int(xi)} magnitude={_fmt(float(mags[xi]))}")
    return 0


def _cmd_decompose(args) -> int:
    ec = _embedded_class(args)
    decomp = green_decompose(ec.f, args.eps0)
    f2_sup = float(np.max(np.abs(np.fft.fft(decomp.f2) / ec.N)))
    sup_hat = float(np.max(np.abs(dft(ec.f).coeffs)))
    bound = 2.0 * args.eps0 * max(1.0, sup_hat)
    _print(
        f"b={ec.b} N={ec.N} eps0={_fmt(args.eps0)} bohr_size={decomp.bohr.size}"
    )
    _print(f"f_mean={_fmt(ec.f.mean())} f1_mean={_fmt(decomp.f1.mean())}")
    _print(
        f"f2_sup_coeff={_fmt(f2_sup)} bound={_fmt(bound)} "
        f"within={_fmt(f2_sup <= bound + 1e-12)}"
    )
    return 0


def _cmd_sumset(args) -> int:
    b = parse_set_spec(args.set_spec, args.m)
    try:
        size = sumset(b, b).cardinality
    except SizeLimitError:
        # too large for the dual-route count: one certified convolution
        size = cyclic_sumset_size(b.members_array(), args.m)
    _print(
        f"m={args.m} card={b.cardinality} sumset={size} "
        f"fraction={_fmt(size / args.m)}"
    )
    return 0


def _cmd_moments(args) -> int:
    check_moment_order(args.k)
    b = parse_set_spec(args.set_spec, args.m)
    cert = kth_moment(b, args.k, factorize(args.m))
    _print(
        f"m={cert.m} card={cert.card} k={cert.k} alpha={_fmt(cert.alpha)}"
    )
    _print(f"s_rb={cert.s_rb} s_r={cert.s_r}")
    _print(
        f"comparator={_fmt(cert.comparator)} ratio={_fmt(cert.comparator_ratio)}"
    )
    if cert.holder_bound is not None:
        _print(
            f"holder_bound={_fmt(cert.holder_bound)} actual={cert.actual_sumset}"
        )
    return 0


def _cmd_znstar_bound(args) -> int:
    b = parse_set_spec(args.set_spec, args.m)
    report = znstar_certificate(b, factorize(args.m))
    _print(
        f"m={report.m} card={report.card} alpha_units={_fmt(report.alpha_units)} "
        f"alpha_total={report.alpha_total} k={report.k} "
        f"squarefree={_fmt(report.squarefree)}"
    )
    if report.blocks is not None:
        for block in report.blocks:
            _print(
                f"block j={block.j} start={block.start} count={block.count} "
                f"alpha_j={block.alpha_j} selected={_fmt(block.selected)} "
                f"bound={_fmt(block.bound) if block.bound is not None else ''}"
            )
    actual_int = (
        str(report.actual_integer) if report.actual_integer is not None else ""
    )
    _print(
        f"final_bound={_fmt(report.final_bound)} "
        f"actual_cyclic={report.actual_cyclic} actual_integer={actual_int}"
    )
    return 0


def _cmd_extremal(args) -> int:
    built = extremal_construct(args.s, args.t)
    _print(
        f"s={built.s} t={built.t} m={built.m} card={built.set.cardinality} "
        f"predicted_sumset={built.predicted_sumset} "
        f"predicted_alpha={built.predicted_alpha}"
    )
    if built.m <= 1_000_000:
        actual = cyclic_sumset_size(built.set.members_array(), built.m)
        _print(
            f"actual_sumset={actual} matches={_fmt(actual == built.predicted_sumset)}"
        )
    return 0


def _cmd_simulate_random(args) -> int:
    exp = RandomSetExperiment(
        N=args.N,
        p=args.p,
        alpha=args.alpha,
        trials=args.trials,
        seed=args.seed,
        theta=args.theta,
        beta=args.beta,
    )
    _write_report(simulate_random_host(exp), args)
    return 0


def _write_report(report, args) -> bool:
    """Render the report to stdout or to --out; True when it went to a file."""
    text = emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
        return False
    _print(f"wrote {args.format} report to {args.out}")
    return True


def _cmd_pipeline(args) -> int:
    report = run_pipeline(_config(args))
    if _write_report(report, args):
        summary = report.summary
        _print(
            f"checks passed {summary['checks_passed']}/{summary['checks_total']} "
            f"lower_bound={_fmt(summary['lower_bound'])} "
            f"actual={summary['actual_sumset']}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primesum",
        description="Desk-scale experiments on sumsets of dense prime subsets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--W", type=int, required=True)
        p.add_argument("--rule", default="all-primes")
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("sieve", help="count primes up to a bound")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_sieve)

    experiment("partition", _cmd_partition, "residue-class densities of a prime subset")

    p = experiment("spectrum", _cmd_spectrum, "transform profile of one embedded class")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--top", type=int, default=8)

    p = experiment("decompose", _cmd_decompose, "smooth/small split of one class")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--eps0", type=float, required=True)

    p = sub.add_parser("sumset", help="cyclic sumset of a set with itself")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--set-spec", dest="set_spec", required=True)
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("moments", help="representation-function moment certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--set-spec", dest="set_spec", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("znstar-bound", help="sumset lower-bound certificate in Z_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--set-spec", dest="set_spec", required=True)
    p.set_defaults(func=_cmd_znstar_bound)

    p = sub.add_parser("extremal", help="small-doubling construction from primes")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("simulate-random", help="random host/subset sumset trials")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate_random)

    p = experiment("pipeline", _cmd_pipeline, "full partition-to-bound experiment")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
