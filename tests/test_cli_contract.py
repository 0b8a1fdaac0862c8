"""The CLI contract under arbitrary argument vectors: every run of sieve,
partition, spectrum, decompose, pipeline, moments, sumset and znstar-bound
exits 0, 2 or 3 with no traceback, and a rejected request (exit 2) comes
back fast.  A flag that a command does not take exits 2 (decompose given
--sigma), and so does a command that is gone (simulate-random, extremal).

Accepted runs keep n at most 10^4 and m at most 3000; a larger n is drawn
only together with a --W or a --b that must be rejected before anything is
sieved, and a larger m only with a --k that must be rejected before any set
is built, or past the cap on m.
"""

import contextlib
import io
import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from primesum.expcli import cli
from primesum.expcli.cli import main


# flags that the commands once took and now reject
REMOVED_FLAGS = {"decompose": ("--sigma",)}
# commands that are gone, each with an argument vector it once accepted
REMOVED_COMMANDS = {
    "simulate-random": ["--N", "2000", "--p", "0.3", "--alpha", "0.5", "--trials", "3"],
    "extremal": ["--s", "6", "--t", "2"],
}


def mostly(valid, invalid):
    """Draw from ``valid`` three times in four."""
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 0 else valid)


VALID_W = st.sampled_from([2, 3, 5, 7])
# below 2, or a primorial far past 2n for any n the CLI accepts
INVALID_W = st.one_of(st.integers(-5, 1), st.integers(60, 10**15))
SMALL_N = mostly(st.integers(100, 10**4), st.integers(-10, 99))
LARGE_N = st.integers(10**4 + 1, 10**15)
ODD_FLOATS = st.sampled_from(
    [0.0, -1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]
)
UNIT_FLOATS = mostly(st.floats(min_value=1e-6, max_value=1.0), ODD_FLOATS)
FLOATS = mostly(st.floats(min_value=1e-6, max_value=30.0), ODD_FLOATS)
RULES = mostly(
    st.sampled_from(["all-primes", "random-thinning", "residue-filter:1:4"]),
    st.sampled_from(
        [
            "residue-filter:0:4",
            "residue-filter:5:4",
            "residue-filter:1:100000000000000000000",
            "residue-filter:x:4",
            "no-such-rule",
        ]
    ),
)
K = mostly(st.integers(2, 40), st.integers(max_value=10**12))
INVALID_K = st.one_of(st.integers(max_value=1), st.integers(33, 10**12))
SET_SPECS = mostly(
    st.sampled_from(
        ["units", "units-random:0.3:1", "random:0.2:5", "list:1,7,13", "units-filter:1:4"]
    ),
    st.sampled_from(["units-filter:0:2", "list:1,x", "random:2:1", "no-such-spec"]),
)
SEED = mostly(st.integers(0, 9), st.integers(-2, 2**70))
# invalid values are not positive or lie past the cap of 10^7 on m


def small_or_invalid(top: int, cap: int):
    return mostly(
        st.integers(1, top), st.integers(-10, 0) | st.integers(cap + 1, 10**15)
    )


SET_M = small_or_invalid(3000, 10**7)


def primorial_of(w: int) -> int:
    return math.prod(p for p in range(2, w + 1) if all(p % q for q in range(2, p)))


def units_and_others(w: int) -> tuple[list[int], list[int]]:
    """The reduced residues of the primorial of w, and a few other values."""
    m = primorial_of(w)
    units = [b for b in range(m) if math.gcd(b, m) == 1]
    return units, [b for b in range(-3, m + 3) if b not in units]


def removed_flags(draw, command: str) -> list[str]:
    """Each flag of REMOVED_FLAGS that the command once took, one time in
    four, with a value."""
    out = []
    for flag in REMOVED_FLAGS.get(command, ()):
        if draw(mostly(st.just(False), st.just(True))):
            out += [flag, repr(draw(FLOATS))]
    return out


@st.composite
def argv(draw) -> list[str]:
    command = draw(
        st.sampled_from(
            [
                "sieve",
                "partition",
                "spectrum",
                "decompose",
                "pipeline",
                "moments",
                "sumset",
                "znstar-bound",
                *REMOVED_COMMANDS,
            ]
        )
    )
    if command in REMOVED_COMMANDS:
        return [command, *REMOVED_COMMANDS[command]]
    if command == "sieve":
        n = draw(mostly(SMALL_N, st.integers(10**7 + 1, 10**15)))
        return ["sieve", "--n", str(n)]
    if command == "moments":
        # a large m comes with an invalid --k
        large = draw(mostly(st.just(False), st.just(True)))
        m = draw(
            st.integers(3001, 10**15)
            if large
            else mostly(st.integers(1, 3000), st.integers(-10, 0))
        )
        k = draw(INVALID_K if large else K)
        return ["moments", "--m", str(m), "--set-spec", draw(SET_SPECS), "--k", str(k)]
    if command in ("sumset", "znstar-bound"):
        return [command, "--m", str(draw(SET_M)), "--set-spec", draw(SET_SPECS)]
    has_b = command in ("spectrum", "decompose")
    large = draw(mostly(st.just(False), st.just(True)))
    # a large n comes with an invalid --W, or with an invalid --b
    bad_b = has_b and large and draw(st.booleans())
    w = draw(VALID_W if bad_b or not large else INVALID_W)
    n = draw(LARGE_N if large else SMALL_N)
    out = [command, "--n", str(n), "--W", str(w), "--rule", draw(RULES)]
    if has_b:
        units, others = units_and_others(w) if w in (2, 3, 5, 7) else ([1], [0])
        valid_b, invalid_b = st.sampled_from(units), st.sampled_from(others)
        out += ["--b", str(draw(invalid_b if bad_b else mostly(valid_b, invalid_b)))]
    if command == "spectrum":
        top = mostly(st.integers(1, 20), st.integers(-3, 10**20))
        out += ["--top", str(draw(top))]
    if command == "decompose":
        out += ["--eps0", repr(draw(UNIT_FLOATS))]
    out += removed_flags(draw, command)
    if command == "pipeline":
        for flag, values in (
            ("--delta", UNIT_FLOATS),
            ("--eps", UNIT_FLOATS),
            ("--eps0", UNIT_FLOATS),
            ("--sigma", FLOATS),
            ("--k", K),
            ("--seed", SEED),
        ):
            if draw(st.booleans()):
                out += [flag, repr(draw(values))]
        formats = mostly(st.sampled_from(["json", "csv"]), st.just("xml"))
        out += ["--format", draw(formats)]
    return out


@settings(max_examples=200)
@given(argv())
def test_exit_codes_and_fast_rejections(args):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if args[0] in REMOVED_COMMANDS or any(
        flag in args for flag in REMOVED_FLAGS.get(args[0], ())
    ):
        assert code == 2, (args, code)
    if code == 2:
        assert elapsed < 0.5, (args, elapsed)


def test_moments_rejects_an_overflowing_order_before_building_the_set():
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["moments", "--m", "30030", "--set-spec", "units", "--k", "1000"])
    assert code == 2
    assert "k must lie in [2, 32]" in err.getvalue()
    assert time.perf_counter() - start < 0.5


def test_spectrum_rejects_a_negative_top_before_sieving(monkeypatch):
    # the slice order[:top] would print all but the last |top| frequencies
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(cli, "sieve_primes", no_sieve)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["spectrum", "--n", "1000", "--W", "3", "--b", "1", "--top", "-3"])
    assert code == 2
    assert time.perf_counter() - start < 0.5
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in err.getvalue()


def test_a_sumset_too_large_for_two_routes_states_the_limit():
    # the dual-route count that znstar-bound and moments run is capped at
    # |B| m = 2*10^9: 92,160 units of 510510 fold onto Z_255255, as do those
    # of the odd 255255 itself, and 92,160 * 255,255 passes the cap
    for args in (
        ["znstar-bound", "--m", "510510", "--set-spec", "units"],
        ["moments", "--m", "255255", "--set-spec", "units", "--k", "3"],
    ):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        assert code == 2, err.getvalue()
        assert time.perf_counter() - start < 0.5
        message = err.getvalue()
        assert message.startswith("error: ") and "exceeds 2,000,000,000" in message
        assert "cyclic_sumset_size" not in message
