"""Command-line front end.

Exit codes: 0 on success, 2 on configuration or domain errors, 3 when an
unconditional invariant fails.  All output is deterministic for a fixed
argument vector (no timestamps, no machine identifiers), so repeated runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
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
)
from ..prime_embed import (
    embed_class,
    embedding_limit,
    partition_and_densities,
)
from ..zm_sumsets import (
    SubsetOfZm,
    cyclic_sumset_size,
    kth_moment,
    sumset,
    znstar_certificate,
)
from ..zn_spectral import dft, split_densities
from .config import (
    MAX_N,
    ExperimentConfig,
    build_subset,
    check_moment_order,
    parse_rule,
    seeded_thinning,
)
from .pipeline import run_pipeline
from .reports import write_report

__all__ = ["main", "build_parser", "parse_set_spec"]

def parse_set_spec(text: str, m: int) -> SubsetOfZm:
    """Build a subset of Z_m from a compact spec string.

    Forms: ``units``; ``units-filter:b0:m0`` (units congruent to b0 mod m0);
    ``list:1,7,13``; ``random:frac:seed`` (seeded shuffle of Z_m);
    ``units-random:frac:seed`` (seeded shuffle of the units).  m must lie
    in [1, 10^7], checked before any array is built.
    """
    if not 1 <= m <= MAX_N:
        raise ConfigurationError(f"m must lie in [1, {MAX_N}], got {m}")
    parts = text.strip().split(":")
    kind = parts[0]

    if kind == "units":
        if len(parts) != 1:
            raise ConfigurationError(f"units takes no parameters, got {text!r}")
        return SubsetOfZm.units(m)
    if kind == "units-filter":
        if len(parts) != 3:
            raise ConfigurationError(f"units-filter needs b0 and m0, got {text!r}")
        try:
            b0, m0 = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigurationError(f"bad units-filter parameters in {text!r}") from exc
        if not 1 <= m0 < 2**63:
            raise ConfigurationError(f"units-filter needs 1 <= m0 < 2^63, got {m0}")
        pool = SubsetOfZm.units(m).members_array()
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
        if kind == "units-random":
            pool = SubsetOfZm.units(m).members_array()
        else:
            pool = np.arange(m, dtype=np.int64)
        return SubsetOfZm.from_members(m, seeded_thinning(pool, frac, seed))
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
    if args.n > MAX_N:
        raise ConfigurationError(f"n must be at most {MAX_N}, got {args.n}")
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
    """The class of --b, checked first, embedded against one sieve to
    m N + m, and its density delta_b."""
    cfg = _config(args)
    cfg.validate()
    mod = primorial(cfg.w)
    m = mod.m
    if not 0 <= args.b < m or math.gcd(args.b, m) != 1:
        raise DomainError(f"{args.b} is not a reduced residue of {m}")
    table = sieve_primes(embedding_limit(cfg.n, m))
    part = _partition(cfg, table, mod)
    return embed_class(part, args.b, table), float(part.delta_b[part.row(args.b)])


def _cmd_partition(args) -> int:
    cfg = _config(args)
    cfg.validate()
    part = _partition(cfg, sieve_primes(cfg.n), primorial(cfg.w))
    mod = part.modulus
    good = ",".join(map(str, part.units[part.good].tolist()))
    _print(
        f"n={args.n} W={args.W} m={mod.m} phi={mod.totient} "
        f"delta={_fmt(part.delta)} good={good}"
    )
    counts, densities = part.prime_count.tolist(), part.delta_b.tolist()
    rows = zip(part.units.tolist(), counts, part.members, densities, part.good.tolist())
    for b, count, a_arr, delta_b, is_good in rows:
        _print(
            f"b={b} primes={count} subset={a_arr.size} "
            f"delta_b={_fmt(delta_b)} good={_fmt(is_good)}"
        )
    _print(f"residual primes={part.residual_primes} subset={part.residual_a}")
    return 0


def _cmd_spectrum(args) -> int:
    if args.top < 0:
        raise ConfigurationError(f"--top must be nonnegative, got {args.top}")
    emb, delta_b = _embedded_class(args)
    threshold = delta_b / 16.0
    _print(
        f"b={args.b} N={emb.f.shape[1]} "
        f"zero_mode_error={_fmt(emb.zero_mode_error[0])} "
        f"offpeak_sup={_fmt(emb.offpeak_sup[0])} "
        f"reference={_fmt(emb.offpeak_reference)}"
    )
    _print(
        f"mass={_fmt(emb.mass[0])} threshold={_fmt(threshold)} "
        f"passed={_fmt(emb.mass[0] >= threshold)}"
    )
    mags = np.abs(dft(emb.f)[0])
    order = np.argsort(-mags, kind="stable")[: args.top]
    for xi in order:
        _print(f"xi={int(xi)} magnitude={_fmt(float(mags[xi]))}")
    return 0


def _cmd_decompose(args) -> int:
    emb, _ = _embedded_class(args)
    big_n = emb.f.shape[1]
    (decomp,) = split_densities(emb.f, [args.eps0])
    f2_sup = float(np.max(np.abs(np.fft.fft(emb.f[0] - decomp.f1) / big_n)))
    sup_hat = float(np.max(np.abs(dft(emb.f))))
    bound = 2.0 * args.eps0 * max(1.0, sup_hat)
    _print(
        f"b={args.b} N={big_n} eps0={_fmt(args.eps0)} "
        f"bohr_size={decomp.bohr.size}"
    )
    _print(f"f_mean={_fmt(emb.f[0].mean())} f1_mean={_fmt(decomp.f1.mean())}")
    _print(
        f"f2_sup_coeff={_fmt(f2_sup)} bound={_fmt(bound)} "
        f"within={_fmt(f2_sup <= bound + 1e-12)}"
    )
    return 0


def _cmd_sumset(args) -> int:
    b = parse_set_spec(args.set_spec, args.m)
    try:
        size = sumset(b).cardinality
    except SizeLimitError:
        # too large for the dual-route count: one certified convolution
        size = cyclic_sumset_size(b)
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
    _print(f"holder_bound={_fmt(cert.holder_bound)} actual={cert.actual_sumset}")
    return 0


def _cmd_znstar_bound(args) -> int:
    b = parse_set_spec(args.set_spec, args.m)
    report = znstar_certificate(b, factorize(args.m))
    # |B| / m in lowest terms, as str(Fraction) writes it
    g = math.gcd(report.card, report.m)
    alpha_total = str(report.card // g)
    if report.m != g:
        alpha_total += f"/{report.m // g}"
    _print(
        f"m={report.m} card={report.card} alpha_units={_fmt(report.alpha_units)} "
        f"alpha_total={alpha_total} k={report.k}"
    )
    _print(
        f"final_bound={_fmt(report.final_bound)} actual_cyclic={report.actual_cyclic}"
    )
    return 0


def _write_file(report, output_format: str, path: str) -> None:
    """Write the report to ``path``.  When a write fails part way, a file
    this call created is removed, so no truncated report is left under a new
    name; a path that existed before (a file, a device) is never removed."""
    created = not os.path.lexists(path)
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigurationError(f"cannot write report to {path}: {exc}") from exc
    try:
        with handle:
            write_report(report, output_format, handle)
    except OSError as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise ConfigurationError(f"cannot write report to {path}: {exc}") from exc


def _cmd_pipeline(args) -> int:
    report = run_pipeline(_config(args))
    if args.out is None:
        # looked up now: a caller may have redirected sys.stdout
        try:
            write_report(report, args.format, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            raise ConfigurationError(f"cannot write report to stdout: {exc}") from exc
        return 0
    _write_file(report, args.format, args.out)
    _print(f"wrote {args.format} report to {args.out}")
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
