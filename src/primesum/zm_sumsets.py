"""Cyclic and integer sumsets, representation-function moments, and the
moment-method lower-bound certificate over the unit group of a squarefree
modulus.

Three sums are formed, each of one set: A + A over the integers
(``integer_sumset_flags``), B + B over Z_m for B in the unit group
(``sumset``, ``rep_histogram``, ``cyclic_sumset_size``), and the unit-shift
counts R of B + Z_m^* (``capital_R``), which the moment bound compares
against.  So every sumset kernel takes one set, and R's is the only
convolution of two different indicators.

A subset of Z_m holds its membership indicator: a read-only bool array of
length m.  Counting is exact throughout: representation numbers come from
integer convolutions, and moments are accumulated as Python integers.  Cyclic
and integer sumsets alike count pairwise sums through one rule:
``np.bincount`` (the sparse route) while the pairs number at most the
butterflies of the real FFT it replaces, and that float FFT beyond; the FFT
result must pass a distance-to-integer certificate before rounding.  Every
padded transform, and every cost estimate, takes the smallest 5-smooth length
that holds the linear convolution (``smooth_length``).  An integer sumset's
FFT splits the set by residue mod 30: each class is a 0/1 row over the
positions a // 30, about span/60 long, all rows take one stacked transform,
the class pairs whose residues add to one s share one inverse, and the
rounded counts must add up to |A|^2.  A cyclic convolution over
Z_m runs that FFT as one cyclic transform of length m when m = prod p^e makes
it the cheaper one, m sum p e below 2 L log2 L for the padded length
L >= 2m - 1 (primorials and 10^6, say), and as the padded linear transform
folded onto Z_m otherwise (a prime m, say); one function, ``_cyclic_route``,
picks the route of every cyclic convolution.  The sparse route reduces the
pair sums mod m before counting them.  Kernels over all of Z_m
read the modulus's prime structure: strided passes over the prime powers for
the unit group and the gcd layers, and a Moebius count factored one prime at
a time.  The unit-shift counts R that the Moebius count checks multiply the
forward spectrum in place by the unit indicator's transform in closed form
(a product of Ramanujan sums).

An even squarefree m = 2n runs the moment certificate on Z_n.  Members and
units are odd, so every count of the certificate vanishes on the odd
residues, and the even residues are Z_n by x -> x mod n (CRT); one helper
pair, ``_fold_half`` and ``_lift_half``, moves counts between the two and
states the argument.  ``capital_R`` runs first, its transform over Z_n and
its Moebius check over all of Z_m, so R over Z_510510 costs one transform
pair at length 255255 while little else is held.  Then B and the checked R
fold onto Z_n, where r_B (both routes), the gcd layers and the three
histograms of the moments are counted; the layer of d | n stands for that
of 2d, and r_B is lifted back onto Z_m for the certificate's ``hist``.

Every count of the certificate lies in [0, |B|]: r_B(x), R(x), each partial
Moebius count, and each count of a convolution of a set with a larger one.
Each is held in the narrowest unsigned dtype that holds its bound,
``np.min_scalar_type(|B|)`` (uint8 up to 255, uint16 up to 65535), and so is
the gcd layer of each residue; no int64 array of length m is built, and the
consumers widen the counts before any arithmetic.  The float results are
rounded block by block, and the histograms of the moments count block by
block, so their intp keys are block-sized.  numpy's sparse ``bincount``
still returns one intp array of length m, which is narrowed as it is added
in.  One ``kth_moment`` over Z_510510 peaks at about 10 traced bytes per
residue with 461 members and 19 with 1,844, and over Z_9699690 with 166
members at about 8.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvariantViolation, SizeLimitError
from .ntheory import FactoredModulus, factorize, unit_indicator
from .zn_spectral import block_rows, smooth_length

__all__ = [
    "SubsetOfZm",
    "MomentCertificate",
    "ZnStarReport",
    "sumset",
    "integer_sumset_flags",
    "cyclic_sumset_size",
    "rep_histogram",
    "capital_R",
    "kth_moment",
    "choose_moment_order",
    "znstar_certificate",
]

_BITMASK_WORK = 2_000_000_000
_SPAN_LIMIT = 200_000_000
# The integer sumset convolves the residue classes of its inputs mod 30.
_SPLIT_MODULUS = 30


@dataclass(frozen=True, eq=False)
class SubsetOfZm:
    """A subset of Z_m held as its membership indicator.

    ``indicator`` is a bool array of length m, True exactly at the members;
    the set makes it read-only.  Two sets are equal only when they are the
    same object.
    """

    m: int
    indicator: np.ndarray

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"modulus must be >= 1, got {self.m}")
        if self.indicator.dtype != bool or self.indicator.shape != (self.m,):
            raise DomainError(
                f"indicator must be a bool array of length {self.m}, got "
                f"{self.indicator.dtype} of shape {self.indicator.shape}"
            )
        self.indicator.setflags(write=False)

    @staticmethod
    def from_members(m: int, members) -> "SubsetOfZm":
        """The subset holding the given integers, each of which must lie in
        [0, m); a member too large for int64 is reported, never wrapped."""
        if m < 1:
            raise DomainError(f"modulus must be >= 1, got {m}")
        try:
            values = np.asarray(members, dtype=np.int64)
        except OverflowError as exc:
            raise DomainError(f"a member lies outside Z_{m}") from exc
        outside = (values < 0) | (values >= m)
        if outside.any():
            raise DomainError(f"member {int(values[outside][0])} outside Z_{m}")
        flags = np.zeros(m, dtype=bool)
        flags[values] = True
        return SubsetOfZm(m=m, indicator=flags)

    @staticmethod
    def units(m: int) -> "SubsetOfZm":
        """The unit group Z_m^* as a subset."""
        if m < 1:
            raise DomainError(f"modulus must be >= 1, got {m}")
        return SubsetOfZm(m=m, indicator=unit_indicator(factorize(m)))

    @cached_property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.indicator))

    @cached_property
    def _members(self) -> np.ndarray:
        members = np.flatnonzero(self.indicator).astype(np.int64, copy=False)
        members.setflags(write=False)
        return members

    def members_array(self) -> np.ndarray:
        """The members ascending, as a read-only int64 array."""
        return self._members


def _convolve_int_exact(a: np.ndarray, b, nfft: int, *, dtype) -> np.ndarray:
    """Exact convolution of nonnegative integer vectors by a float FFT of
    length nfft >= max(la, lb): the cyclic convolution mod nfft of the inputs
    zero-padded to nfft, in min(la + lb - 1, nfft) entries of ``dtype``,
    which must hold every count.  An nfft of at least la + lb - 1 gives the
    linear convolution, and an nfft equal to both lengths the cyclic one.

    The output must sit within 0.25 of integers before being rounded.  A
    self-convolution (``b is a``) takes one forward transform and squares it.
    A callable b multiplies the real half spectrum at nfft of a, in place,
    by that of the vector to convolve with: a cyclic convolution of a of
    length nfft.  When a is nfft long, the inverse runs into a's float copy.
    """
    la = int(a.size)
    lb = nfft if callable(b) else int(b.size)
    if la == 0 or lb == 0:
        return np.zeros(0, dtype=dtype)
    n = min(la + lb - 1, nfft)
    buf = a.astype(np.float64)
    spec = np.fft.rfft(buf, nfft)
    if la != nfft:
        buf = None
    if b is a:
        spec *= spec
    elif callable(b):
        b(spec)
    else:
        spec *= np.fft.rfft(b.astype(np.float64), nfft)
    conv = np.fft.irfft(spec, nfft, out=buf)
    del spec
    return _certified_round(conv[:n], dtype)


def _certified_round(conv: np.ndarray, dtype) -> np.ndarray:
    """The float convolution ``conv`` rounded to counts of ``dtype``, once
    every entry sits within 0.25 of an integer that ``dtype`` holds;
    ``conv`` is overwritten.

    Each row is rounded in blocks of ``block_rows(1)`` points, and each
    block must pass the certificate, so no rounded float copy of the whole
    of ``conv`` is made.  The caller picks the narrowest unsigned dtype
    that holds the counts' bound (``np.min_scalar_type``): 1, 2 or 4 bytes
    per count where int64 took 8.  A count outside that range fails too,
    rather than wrapping in the cast.
    """
    out = np.empty(conv.shape, dtype=dtype)
    info = np.iinfo(dtype)
    size = block_rows(1)
    for row, counts in zip(np.atleast_2d(conv), np.atleast_2d(out)):
        for lo in range(0, row.size, size):
            part = row[lo : lo + size]
            rounded = np.rint(part)
            part -= rounded
            err = float(np.max(np.abs(part, out=part)))
            if err >= 0.25:
                raise InvariantViolation(
                    "float convolution failed the exactness certificate "
                    f"(deviation {err:.3g})"
                )
            low, high = float(rounded.min()), float(rounded.max())
            if low < info.min or high > info.max:
                raise InvariantViolation(
                    f"float convolution has a count in [{low:.0f}, {high:.0f}] "
                    f"outside {info.dtype}"
                )
            counts[lo : lo + size] = rounded
    return out


def _fft_pays(pairs: int, nfft: int) -> bool:
    """Whether the pairs outnumber (nfft/2) log2(nfft/2), the butterflies of
    the complex transform of half length that a real FFT of length nfft
    runs, log2 rounded down."""
    half = nfft // 2
    return pairs > half * (half.bit_length() - 1)


def _cyclic_route(pairs: int, m: int) -> int:
    """How a cyclic convolution over Z_m whose inputs make this many pairs
    runs: 0 to count the pairs one by one, m for one cyclic transform of
    length m, or the padded length L = ``smooth_length(2m - 1)`` of a linear
    transform to fold onto Z_m.

    The pairs are counted one by one while they number at most the
    butterflies of a real FFT at L (``_fft_pays``).  Length m = prod p^e is
    taken when it costs less than L: m sum p e, a radix-p pass costing about
    p operations per point, against 2 L log2 L.
    """
    nfft = smooth_length(2 * m - 1)
    if not _fft_pays(pairs, nfft):
        return 0
    work = m * sum(p * e for p, e in factorize(m).primes)
    return m if work < 2 * nfft * (nfft.bit_length() - 1) else nfft


def _pair_sums(a: np.ndarray, b: np.ndarray, limit: int, m: int = 0):
    """The sums y + z over the nonzero entries a[y] and b[z], reduced mod m
    when m > 0, in flat chunks of at most ``limit`` sums; ``limit`` must be
    at least the nonzero entries of either input.  An empty indicator gives
    one empty chunk."""
    x = np.flatnonzero(a)
    small, big = sorted((x, x if b is a else np.flatnonzero(b)), key=len)
    rows = limit // max(1, big.size)
    for i in range(0, max(1, small.size), rows):
        sums = small[i : i + rows, None] + big
        if m:
            sums %= m
        yield sums.ravel()


def _cyclic_int_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution of two 0/1 indicators of one length m: the
    count of pairs (y, z) with a[y] = b[z] = 1 and y + z = x mod m, held in
    the narrowest unsigned dtype that holds the smaller set's size, which
    bounds every count.

    ``_cyclic_route`` picks the route.  Pair by pair, the sums are reduced
    mod m and counted by ``np.bincount``, in chunks of at most 2m - 1 sums
    (``_pair_sums``); each chunk's intp counts are narrowed as they are
    added in.  Otherwise the certified FFT convolves the indicators: as one
    cyclic transform of length m, or at the padded length, whose linear
    counts over [0, 2m - 1) fold onto Z_m into a fresh array, so no view
    keeps the linear buffer alive.
    """
    m = int(a.size)
    card_a = int(np.count_nonzero(a))
    card_b = card_a if b is a else int(np.count_nonzero(b))
    dtype = np.min_scalar_type(min(card_a, card_b))
    nfft = _cyclic_route(card_a * card_b, m)
    if not nfft:
        chunks = _pair_sums(a, b, 2 * m - 1, m)
        counts = np.bincount(next(chunks), minlength=m).astype(dtype)
        for sums in chunks:
            np.add(counts, np.bincount(sums, minlength=m), out=counts, casting="unsafe")
        return counts
    if nfft == m:
        return _convolve_int_exact(a, b, m, dtype=dtype)
    linear = _convolve_int_exact(a, b, nfft, dtype=dtype)
    counts = linear[:m].copy()
    counts[: m - 1] += linear[m:]
    return counts


def _cyclic_support(b: SubsetOfZm) -> np.ndarray:
    """The packed little-endian bits of B + B = {x + y mod m : x, y in B},
    one in-place OR per member.

    Laid twice end to end, B's indicator from position m - x on is B
    shifted cyclically by x.  Packed, with a zero byte after it, eight copies
    of that doubled string, shifted by 0 to 7 bits, start every such window
    at a byte boundary.
    """
    m = b.m
    size = (m + 7) // 8
    laid = np.zeros(8 * (2 * size + 1), dtype=bool)
    laid[:m] = laid[m : 2 * m] = b.indicator
    twice = np.packbits(laid, bitorder="little")
    copies = [twice[:-1]] + [
        (twice[:-1] >> r) | (twice[1:] << (8 - r)) for r in range(1, 8)
    ]
    support = np.zeros(size, dtype=np.uint8)
    for x in b.members_array().tolist():
        start = m - x
        support |= copies[start % 8][start // 8 : start // 8 + size]
    # the last byte's bits past m belong to the next period
    support[-1] &= 0xFF >> (-m % 8)
    return support


def _sumset_counts(b: SubsetOfZm) -> np.ndarray:
    """Exact counts r[x] = #{(y, z) in B x B : y + z = x mod m}, with the
    support computed two independent ways.

    Shifted copies of B's indicator, one per member, and the support of the
    exact integer self-convolution of the indicator must agree bit for bit.
    """
    m = b.m
    if b.cardinality * m > _BITMASK_WORK:
        raise SizeLimitError(
            f"sumset of {b.cardinality} members over Z_{m} too large to count "
            f"two ways: |B| m = {b.cardinality * m:,} exceeds {_BITMASK_WORK:,}"
        )
    shifted = _cyclic_support(b)
    counts = _cyclic_int_convolution(b.indicator, b.indicator)
    if not np.array_equal(np.packbits(counts > 0, bitorder="little"), shifted):
        raise InvariantViolation("sumset routes disagree")
    return counts


def sumset(b: SubsetOfZm) -> SubsetOfZm:
    """The cyclic sumset B + B = {x + y mod m : x, y in B}, computed two
    independent ways (``_sumset_counts``)."""
    return SubsetOfZm(m=b.m, indicator=_sumset_counts(b) > 0)


def cyclic_sumset_size(b: SubsetOfZm) -> int:
    """|B + B mod m| by certified integer convolution alone.

    Single-route fast path for large m where the dual-route ``sumset``
    would be too expensive; the convolution of the indicator with itself is
    still exact (pairwise sums counted by bincount, or a certified FFT).
    """
    return int(np.count_nonzero(_cyclic_int_convolution(b.indicator, b.indicator)))


def _split_sumset_flags(a: np.ndarray, card: int) -> tuple[int, np.ndarray]:
    """``integer_sumset_flags`` by one certified self-convolution of the
    residue classes of ``a`` mod m0 = ``_SPLIT_MODULUS``.

    Each nonempty class becomes a 0/1 row over the positions a // m0, about
    span / (2 m0) long, and all rows take one stacked rfft at the 5-smooth
    length that holds their linear convolution.  A sum y + z whose residues
    add to s (0 <= s <= 2 m0 - 2) sits at m0 (t + 2 q0) + s, where t indexes
    the inverse of the summed spectrum products of the class pairs i <= j
    with that s, the pairs i < j doubled.  The inverses run stacked, in
    blocks of ``block_rows``, and each block is rounded under the 0.25
    certificate into the narrowest unsigned dtype that holds |A|, which
    bounds every count.  The rounded counts must add up to |A|^2, the
    ordered pairs of members, ``card`` being the distinct members.
    """
    m0 = _SPLIT_MODULUS
    pairs = card * card
    dtype = np.min_scalar_type(card)
    # one 0/1 row per nonempty class over the positions a // m0 - q0
    q0 = int(a[0]) // m0
    residues, classes = np.unique(a % m0, return_inverse=True)
    position = a // m0 - q0
    rows = np.zeros((residues.size, int(position[-1]) + 1))
    rows[classes, position] = 1.0
    length = 2 * rows.shape[1] - 1
    nfft = smooth_length(length)
    spectra = np.fft.rfft(rows, nfft)
    del rows
    # the class pairs i <= j by the sum s of their residues
    res = residues.tolist()
    plan: dict[int, list[tuple[int, int]]] = {}
    for x, r1 in enumerate(res):
        for y in range(x, len(res)):
            plan.setdefault(r1 + res[y], []).append((x, y))
    sums = sorted(plan)

    # row t + s // m0, column s % m0 stands for the integer m0 (t + 2 q0) + s
    grid = np.zeros((length + 1, m0), dtype=bool)
    total = 0
    size = block_rows(nfft)
    product = np.empty(spectra.shape[1], dtype=spectra.dtype)
    for lo in range(0, len(sums), size):
        block = sums[lo : lo + size]
        spec = np.zeros((len(block), spectra.shape[1]), dtype=spectra.dtype)
        for row, s in zip(spec, block):
            for x, y in plan[s]:
                np.multiply(spectra[x], spectra[y], out=product)
                if x < y:
                    product *= 2
                row += product
        counts = _certified_round(np.fft.irfft(spec, nfft)[:, :length], dtype)
        del spec
        total += int(counts.sum(dtype=np.int64))
        for row, s in zip(counts, block):
            grid[s // m0 : s // m0 + length, s % m0] |= row > 0
    if total != pairs:
        raise InvariantViolation(
            f"split convolution counts sum to {total}, expected |A|^2 = {pairs}"
        )
    lo = 2 * int(a[0])
    start = lo - 2 * m0 * q0
    return lo, grid.ravel()[start : start + 2 * (int(a[-1]) - int(a[0])) + 1]


def integer_sumset_flags(a: np.ndarray) -> tuple[int, np.ndarray]:
    """Indicator of A + A = {x + y : x, y in A} over the integers.

    Returns (offset, flags) where flags[i] marks membership of offset + i.
    The input must be a sorted integer array.  While the pairs number at
    most the butterflies of a real FFT at the 5-smooth length that holds the
    span (``_fft_pays``), their sums are marked in the flags directly, in
    chunks of at most span sums; beyond that the flags are the support of
    the certified self-convolution of A's residue classes mod 30
    (``_split_sumset_flags``), whose counts must sum to |A|^2.
    """
    if a.size == 0:
        return 0, np.zeros(0, dtype=bool)
    lo = 2 * int(a[0])
    span = 2 * int(a[-1]) - lo + 1
    if span > _SPAN_LIMIT:
        raise SizeLimitError(f"integer sumset span {span} too large")
    card = int(np.count_nonzero(np.diff(a))) + 1  # the distinct members
    if _fft_pays(card * card, smooth_length(span)):
        return _split_sumset_flags(a, card)
    members = np.zeros(int(a[-1] - a[0]) + 1, dtype=bool)
    members[a - a[0]] = True
    flags = np.zeros(span, dtype=bool)
    for sums in _pair_sums(members, members, span):
        flags[sums] = True
    return lo, flags


def rep_histogram(b: SubsetOfZm) -> np.ndarray:
    """Read-only counts r[x] of the ordered pairs of members summing to x mod
    m, exact, in the narrowest unsigned dtype that holds |B|; their support
    passes the same dual-route check as ``sumset``, and they must add up to
    |B|^2, summed in int64."""
    r = _sumset_counts(b)
    total = int(r.sum(dtype=np.int64))
    if total != b.cardinality**2:
        raise InvariantViolation(
            f"representation counts sum to {total}, expected {b.cardinality ** 2}"
        )
    r.setflags(write=False)
    return r


def _all_units(b: SubsetOfZm) -> bool:
    return bool(np.all(np.gcd(b.members_array(), b.m) == 1))


def _power_sums(counts: np.ndarray, k: int) -> list[int]:
    """Exact sums of c * v**k over each row of a histogram counts[.., v] = c,
    one Python-int term per nonzero count."""
    counts = np.atleast_2d(counts)
    powers = [v**k for v in range(counts.shape[1])]
    sums = [0] * counts.shape[0]
    rows, values = np.nonzero(counts)
    for row, v, c in zip(rows.tolist(), values.tolist(), counts[rows, values].tolist()):
        sums[row] += c * powers[v]
    return sums


def _histogram(
    values: np.ndarray, top: int, layer: np.ndarray | None = None, layers: int = 1
) -> np.ndarray:
    """The int64 counts of (layer[x], values[x]) over x, as a (layers, top)
    table whose row j counts the values in layer j; without ``layer``, one
    row.  The values lie in [0, top).

    ``np.bincount`` takes one block of ``block_rows(1)`` entries at a time,
    so its intp copy of the keys is block-sized, whatever the dtype of the
    values.
    """
    counts = np.zeros(layers * top, dtype=np.int64)
    size = block_rows(1)
    for lo in range(0, values.size, size):
        keys = values[lo : lo + size]
        if layer is not None:
            keys = np.multiply(layer[lo : lo + size], top, dtype=np.intp) + keys
        counts += np.bincount(keys, minlength=layers * top)
    return counts.reshape(layers, top)


def _power_sum(values: np.ndarray, k: int) -> int:
    """Exact sum of v**k over nonnegative integers, one term per distinct value."""
    return _power_sums(_histogram(values, int(values.max(initial=0)) + 1), k)[0]


def _apply_unit_spectrum(mod: FactoredModulus, spec: np.ndarray) -> None:
    """Multiply a real half spectrum at m, in place, by rfft(u) of the unit
    indicator u of Z_m, m squarefree, in closed form.  Entry xi of rfft(u)
    is the Ramanujan sum c_m(xi), the product over p | m of p - 1 when p | xi
    and -1 otherwise: the sign (-1)^omega, then one strided pass per prime
    multiplies the multiples of p by 1 - p, as ``unit_indicator`` makes u.
    Every factor is an integer that float64 holds exactly."""
    if len(mod.prime_divisors) % 2:
        np.negative(spec, out=spec)
    for p in mod.prime_divisors:
        spec[::p] *= 1 - p


def _unit_convolution(h: np.ndarray, mod: FactoredModulus) -> np.ndarray:
    """Exact cyclic convolution of a 0/1 indicator h over Z_m, m squarefree,
    with the unit indicator of Z_m, counted in the narrowest unsigned dtype
    that holds |h|.  Where ``_cyclic_route`` picks one transform of length
    m, the closed-form unit spectrum multiplies h's spectrum in place and
    leaves one transform pair; elsewhere ``_cyclic_int_convolution`` runs
    with the unit indicator itself."""
    m = mod.m
    card = int(np.count_nonzero(h))
    if _cyclic_route(card * mod.totient, m) == m:
        times_units = functools.partial(_apply_unit_spectrum, mod)
        return _convolve_int_exact(h, times_units, m, dtype=np.min_scalar_type(card))
    return _cyclic_int_convolution(h, unit_indicator(mod))


def _fold_half(values: np.ndarray) -> np.ndarray:
    """Counts over Z_m, m = 2n with n odd, moved onto Z_n by x -> x mod n:
    entry y of the result is values[y] + values[y + n], in values' dtype.
    The inverse is ``_lift_half``.

    This pair runs the moment certificate of an even squarefree m on Z_n.
    The members of B and the units of Z_m are odd, so every count of the
    certificate (r_B, R and their gcd layers) vanishes on the odd residues.
    The even residues map one to one onto Z_n (CRT: an even x is fixed by x
    mod n), and a sum of two odd residues is x mod m exactly when it is x
    mod n.  So B mod n has |B| members, the units of Z_m fold onto those of
    Z_n, and r_B(x) and R(x) at an even x are the counts over Z_n at x mod
    n.  Of y and y + n, one is even and one is odd, so the fold is
    injective on counts that vanish on the odd residues: it must keep every
    nonzero entry apart, which for B's indicator says that B mod n keeps
    |B| members.
    """
    n = values.size // 2
    folded = values[:n] + values[n:]
    kept, nonzero = int(np.count_nonzero(folded)), int(np.count_nonzero(values))
    if kept != nonzero:
        raise InvariantViolation(
            f"folding Z_{values.size} onto Z_{n} merged entries: {nonzero} "
            f"nonzero, {kept} after the fold"
        )
    return folded


def _lift_half(counts: np.ndarray) -> np.ndarray:
    """Counts over Z_n, n odd, on Z_2n: counts[x mod n] at every even x and
    0 at every odd x, the inverse of ``_fold_half``."""
    lifted = np.tile(counts, 2)
    lifted[1::2] = 0
    return lifted


def capital_R(b: SubsetOfZm, mod: FactoredModulus) -> np.ndarray:
    """R[x] = |{(member, unit) : member + unit = x mod m}|, two ways, held
    in the narrowest unsigned dtype that holds |B|, which bounds every count
    (2 bytes per residue for 256 <= |B| < 65536).

    The unit-shift convolution of B with the unit indicator must agree exactly
    with the Moebius count R[x] = sum over b in B of the product over p | m
    of (1 - [x = b mod p]): the members avoiding x modulo every prime divisor.

    The convolution is a certified float FFT (or pair by pair, for few
    pairs).  An even m = 2n runs it over Z_n: B folds onto B mod n, and the
    convolution of B mod n with the units of Z_n is lifted back onto the
    even residues of Z_m (``_fold_half``, ``_lift_half``).  Over the odd
    modulus the unit indicator's transform is the Ramanujan sum in closed
    form, multiplied into B's spectrum in place, so where length m (or n)
    pays the route is one rfft and one irfft; elsewhere the unit indicator
    is transformed with B at the padded length.

    The Moebius count runs over all of Z_m with every prime, 2 included.
    The product is applied to the indicator h of B one prime at a time.  Laid
    out as p rows of length m/p, the p entries of a column are the p residues
    mod p of one residue mod m/p (CRT), so the factor for p maps h to its
    column sums minus h.  These omega passes expand to the inclusion-exclusion
    sum over squarefree d | m of mu(d) #{b in B : b = x mod d}.  Every
    partial count, column sums included, lies in [0, |B|], so the passes run
    in the counts' narrow dtype.
    Requires a squarefree modulus and members inside the unit group.
    """
    if mod.m != b.m:
        raise DomainError(f"modulus mismatch: set over Z_{b.m}, factored {mod.m}")
    if not mod.squarefree:
        raise DomainError(f"modulus must be squarefree, got {mod.m}")
    if not _all_units(b):
        raise DomainError("members must lie in the unit group")
    h = b.indicator
    if mod.m % 2:
        r_route = _unit_convolution(h, mod)
    else:
        r_route = _lift_half(_unit_convolution(_fold_half(h), factorize(mod.m // 2)))
    # a copy of h turns into the Moebius count in place, one prime at a time;
    # every partial count, column sums included, lies in [0, |B|]
    dtype = np.min_scalar_type(b.cardinality)
    h = h.astype(dtype)
    for p in mod.prime_divisors:
        columns = h.reshape(p, -1)
        np.subtract(columns.sum(axis=0, dtype=dtype), columns, out=columns)
    if not np.array_equal(r_route, h):
        raise InvariantViolation("unit-shift and Moebius counts disagree")
    return r_route


def _gcd_layers(mod: FactoredModulus) -> tuple[list[int], np.ndarray]:
    """The divisors of m ascending, and for each x in Z_m the position of
    gcd(x, m) among them, in the narrowest unsigned dtype that holds it.

    gcd(x, m) = prod p^min(v_p(x), e) is written in mixed radix over the
    exponents: one strided pass per prime power p^i dividing m adds p's place
    value at the multiples of p^i, so no gcd is evaluated, and a rank table
    maps each code to its divisor's position."""
    divisors = mod.divisors()
    dtype = np.min_scalar_type(len(divisors) - 1)
    code = np.zeros(mod.m, dtype=dtype)
    codes = {1: 0}
    place = 1
    for p, e in mod.primes:
        for i in range(1, e + 1):
            code[:: p**i] += place
        codes = {d * p**i: c + i * place for d, c in codes.items() for i in range(e + 1)}
        place *= e + 1
    rank = np.empty(len(divisors), dtype=dtype)
    rank[[codes[d] for d in divisors]] = np.arange(len(divisors))
    return divisors, rank[code]


@dataclass(frozen=True)
class MomentCertificate:
    """k-th moments of the representation counts with their stratification.

    ``s_rb`` is sum r_B(x)^k; ``s_r`` the same for the unit-shift counts R,
    which dominate pointwise; ``stratified`` reassembles ``s_r`` exactly over
    the gcd layers, keyed by every divisor d of m ascending, the moment of R
    over {x : gcd(x, m) = d}.  The comparator is the structure-independent
    reference |B|^k phi(m)^k / m^(k-1) / alpha^2.  ``hist`` holds the counts
    r_B over all of Z_m, read-only, in the narrowest unsigned dtype that
    holds |B|; for an even m they are counted over Z_{m/2} and lifted.
    """

    m: int
    k: int
    card: int
    alpha: float
    s_rb: int
    s_r: int
    stratified: dict[int, int]
    comparator: float
    comparator_ratio: float
    holder_bound: float
    actual_sumset: int
    hist: np.ndarray


def kth_moment(b: SubsetOfZm, k: int, mod: FactoredModulus) -> MomentCertificate:
    """Exact moment certificate of order k >= 2 for a subset of the unit group.

    All counts are Python integers (no overflow at any size); the chain
    s_rb <= s_r = sum of strata is verified exactly, and the Hoelder bound
    |B+B| >= |B|^(2k/(k-1)) / s_rb^(1/(k-1)) is checked against the true
    sumset in exact integers, as |B+B|^(k-1) s_rb >= |B|^(2k), before its
    float value is reported.

    ``capital_R`` runs first, over all of Z_m, while little else is held.
    An even m = 2n then runs the rest over Z_n (``_fold_half``): the checked
    R and B fold onto Z_n, where r_B, the gcd layers and the histograms of
    the moments are counted.  The layer of d | n in Z_n is that of 2d in
    Z_m, and the layers of the odd divisors of m hold no count, so their
    moments are 0; r_B is lifted back onto Z_m for ``hist``.
    """
    if k < 2:
        raise DomainError(f"moment order must be >= 2, got {k}")
    if b.cardinality == 0:
        raise DomainError("certificate refused for the empty set")

    # capital_R checks the modulus and the members
    big_r = capital_R(b, mod)
    even = mod.m % 2 == 0
    if even:
        big_r = _fold_half(big_r)
        half_mod = factorize(mod.m // 2)
        half = SubsetOfZm(m=half_mod.m, indicator=_fold_half(b.indicator))
    else:
        half_mod, half = mod, b
    hist = rep_histogram(half)
    s_rb = _power_sum(hist, k)
    if np.any(big_r < hist):
        raise InvariantViolation("unit-shift counts fail to dominate pointwise")
    divisors, layer = _gcd_layers(half_mod)
    # one histogram of (gcd layer, R[x]), row j for the layer of divisors[j];
    # R <= |B| bounds it by 2^omega (|B| + 1) bins
    binned = _histogram(big_r, int(big_r.max()) + 1, layer, len(divisors))
    stratified = dict.fromkeys(mod.divisors(), 0)
    step = 2 if even else 1
    stratified.update(zip((step * d for d in divisors), _power_sums(binned, k)))
    s_r = _power_sum(big_r, k)
    if sum(stratified.values()) != s_r:
        raise InvariantViolation("stratified moments fail to reassemble the total")
    if s_rb > s_r:
        raise InvariantViolation("restricted moment exceeds the unit-shift moment")

    card = b.cardinality
    alpha = card / mod.totient
    comparator = (
        float(card) ** k * float(mod.totient) ** k / float(mod.m) ** (k - 1) / alpha**2
    )
    ratio = float(s_rb) / comparator if comparator > 0 else math.inf

    actual = int(np.count_nonzero(hist))
    if actual ** (k - 1) * s_rb < card ** (2 * k):
        raise InvariantViolation(
            f"power-mean bound exceeds the true sumset size ({actual})"
        )
    if even:
        hist = _lift_half(hist)
        hist.setflags(write=False)
    holder_bound = math.exp((2.0 * k * math.log(card) - math.log(s_rb)) / (k - 1))
    return MomentCertificate(
        m=mod.m,
        k=k,
        card=card,
        alpha=alpha,
        s_rb=s_rb,
        s_r=s_r,
        stratified=stratified,
        comparator=comparator,
        comparator_ratio=ratio,
        holder_bound=holder_bound,
        actual_sumset=actual,
        hist=hist,
    )


def choose_moment_order(alpha: float) -> tuple[int, int]:
    """Moment order from the density: floor((log(1/a) / loglog(1/a))^(1/3)),
    clamped below by 3.  Returns (raw formula value, clamped order).

    Densities too close to 1 make the inner logarithm nonpositive; the raw
    value is then reported as 0 and the clamp applies.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"density must lie in (0, 1], got {alpha}")
    raw = 0
    big_l = math.log(1.0 / alpha) if alpha < 1 else 0.0
    if big_l > 1.0:
        inner = math.log(big_l)
        if inner > 0:
            raw = int(math.floor((big_l / inner) ** (1.0 / 3.0)))
    return raw, max(3, raw)


@dataclass(frozen=True)
class ZnStarReport:
    """Lower-bound certificate for a subset B of the unit group of a
    squarefree modulus: the Hoelder bound of its moment certificate, at the
    order ``choose_moment_order`` picks for the density of B in the units,
    next to the true cyclic sumset size."""

    m: int
    card: int
    alpha_units: float
    k: int
    final_bound: float
    actual_cyclic: int


def znstar_certificate(b: SubsetOfZm, mod: FactoredModulus) -> ZnStarReport:
    """Lower-bound certificate for |B+B| when B sits inside Z_m^*, m
    squarefree."""
    if b.cardinality == 0:
        raise DomainError("certificate refused for the empty set")
    if mod.m != b.m:
        raise DomainError(f"modulus mismatch: set over Z_{b.m}, factored {mod.m}")
    if not _all_units(b):
        raise DomainError("members must lie in the unit group")

    alpha_units = b.cardinality / mod.totient
    k = choose_moment_order(alpha_units)[1]
    cert = kth_moment(b, k, mod)
    return ZnStarReport(
        m=mod.m,
        card=b.cardinality,
        alpha_units=alpha_units,
        k=k,
        final_bound=cert.holder_bound,
        actual_cyclic=cert.actual_sumset,
    )
