"""Per-layer metrics derived from the spans of one traced verification.

Conventions: ``_s`` is the summed busy time of a function's spans, ``_self_s``
subtracts the part of each span covered by its child spans, ``_calls`` and
other counts repeat exactly for a fixed input.  Transforms are attributed to
the layer of the span that called them.  ``METRICS`` is the one table of
what each metric reads: a metric is absent when one of its sources was not
found to wrap.
"""

from __future__ import annotations

import statistics

from oracle import largest_prime_factor
from spans import INT_SUMSET


class _Spans:
    def __init__(self, spans: list[tuple], traced_verify_s: float) -> None:
        self.spans = spans
        self.verify_s = traced_verify_s
        self.by_name: dict[str, list[int]] = {}
        self.children: dict[int, list[int]] = {}
        for i, (name, _start, _end, parent, _detail) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            self.children.setdefault(parent, []).append(i)

    def of(self, source) -> list[int]:
        """The spans of a source: a span name, or a pattern of which only
        outermost matches count, so a helper calling another counts once."""
        if isinstance(source, str):
            return self.by_name.get(source, [])
        return [
            i
            for i, (name, _start, _end, parent, _detail) in enumerate(self.spans)
            if source.match(name) and not (parent >= 0 and source.match(self.spans[parent][0]))
        ]

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def covered(self, i: int) -> float:
        """Length of the union of i's child spans."""
        total, reach = 0.0, float("-inf")
        for c in sorted(self.children.get(i, ()), key=lambda c: self.spans[c][1]):
            start, end = self.spans[c][1], self.spans[c][2]
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total

    def ffts_under(self, layers: tuple[str, ...]) -> list[int]:
        return [
            i
            for i, span in enumerate(self.spans)
            if span[0].startswith("numpy.fft.")
            and span[3] >= 0
            and self.spans[span[3]][0].split(".", 1)[0] in layers
        ]


def _indices(s: _Spans, sources) -> list[int]:
    return [i for source in sources for i in s.of(source)]


def _calls(s, sources):
    return len(_indices(s, sources))


def _busy(s, sources):
    return sum(s.dur(i) for i in _indices(s, sources))


def _self(s, sources):
    return sum(s.dur(i) - s.covered(i) for i in _indices(s, sources))


def _detail_max(s, sources):
    return max((s.spans[i][4] for i in _indices(s, sources)), default=None)


def _detail_sum(s, sources):
    return sum(s.spans[i][4] for i in _indices(s, sources))


def _ms(s, sources) -> list[float]:
    return sorted(1e3 * s.dur(i) for i in _indices(s, sources))


def _p50_ms(s, sources):
    ms = _ms(s, sources)
    return statistics.median(ms) if ms else None


def _p99_ms(s, sources):
    """Reported only with at least ten samples beyond it."""
    ms = _ms(s, sources)
    p99 = int(0.99 * len(ms))
    return ms[p99] if len(ms) - p99 > 10 else None


def _share(s, sources):
    return _busy(s, sources) / s.verify_s


def _nontrivial_frac(s, sources):
    sizes = [s.spans[i][4] for i in _indices(s, sources)]
    return sum(1 for size in sizes if size > 1) / len(sizes) if sizes else None


def _children_frac(s, sources):
    return sum(s.covered(i) for i in _indices(s, sources)) / s.verify_s


_SPECTRAL = ("prime_embed", "zn_spectral")


def _fft_calls(*layers):
    return lambda s, _sources: len(s.ffts_under(layers))


def _fft_points(s, _sources):
    return sum(s.spans[i][4] for i in s.ffts_under(_SPECTRAL))


def _fft_s(s, _sources):
    return sum(s.dur(i) for i in s.ffts_under(_SPECTRAL))


def _fft_len_max_prime_factor(s, _sources):
    lengths = {s.spans[i][4] for i in s.ffts_under(_SPECTRAL)}
    return max((largest_prime_factor(n) for n in lengths), default=None)


SIEVE = "ntheory.sieve_primes"
EMBED = "prime_embed.embed_class"
PAIR = "prime_embed.pair_sumset_report"
DECOMPOSE = "zn_spectral.green_decompose"
SUMSET = "zm_sumsets.sumset"
REP_HISTOGRAM = "zm_sumsets.rep_histogram"
KTH_MOMENT = "zm_sumsets.kth_moment"
RENDER = "expcli.emit_report"

# Metric -> (how it is computed from the spans, the span names or name
# patterns it reads).  The numpy.fft wrappers are always installed, so the
# transform metrics read no other source.
METRICS = {
    "ntheory.sieve_calls": (_calls, [SIEVE]),
    "ntheory.sieve_s": (_busy, [SIEVE]),
    "ntheory.sieve_limit_max": (_detail_max, [SIEVE]),
    "ntheory.primorial_s": (_busy, ["ntheory.primorial"]),
    "prime_embed.partition_s": (_busy, ["prime_embed.partition_and_densities"]),
    "prime_embed.embed_calls": (_calls, [EMBED]),
    "prime_embed.embed_s": (_busy, [EMBED]),
    "prime_embed.class_checks_s": (
        _busy, ["prime_embed.embedding_mass_check", "prime_embed.pseudorandom_deficit"]
    ),
    "prime_embed.pair_calls": (_calls, [PAIR]),
    "prime_embed.pair_s": (_busy, [PAIR]),
    "prime_embed.pair_self_s": (_self, [PAIR]),
    "prime_embed.pair_p50_ms": (_p50_ms, [PAIR]),
    "prime_embed.pair_p99_ms": (_p99_ms, [PAIR]),
    "prime_embed.pair_share": (_share, [PAIR]),
    "prime_embed.aggregate_s": (_busy, ["prime_embed.aggregate_delta"]),
    "zn_spectral.decompose_calls": (_calls, [DECOMPOSE]),
    "zn_spectral.decompose_s": (_busy, [DECOMPOSE]),
    "zn_spectral.decompose_self_s": (_self, [DECOMPOSE]),
    "zn_spectral.large_spectrum_s": (_busy, ["zn_spectral.large_spectrum"]),
    "zn_spectral.bohr_s": (_busy, ["zn_spectral.bohr_set"]),
    "zn_spectral.proof_quantities_s": (_busy, ["zn_spectral.convolution_proof_quantities"]),
    "zn_spectral.positive_support_s": (_busy, ["zn_spectral.positive_support"]),
    "zn_spectral.dft_s": (_busy, ["zn_spectral.dft"]),
    "zn_spectral.fft_calls": (_fft_calls(*_SPECTRAL), []),
    "zn_spectral.fft_points": (_fft_points, []),
    "zn_spectral.fft_s": (_fft_s, []),
    "zn_spectral.fft_len_max_prime_factor": (_fft_len_max_prime_factor, []),
    "zn_spectral.bohr_nontrivial_frac": (_nontrivial_frac, [DECOMPOSE]),
    "zm_sumsets.sumset_calls": (_calls, [SUMSET]),
    "zm_sumsets.sumset_s": (_busy, [SUMSET]),
    "zm_sumsets.rep_histogram_calls": (_calls, [REP_HISTOGRAM]),
    "zm_sumsets.rep_histogram_s": (_busy, [REP_HISTOGRAM]),
    "zm_sumsets.capital_R_s": (_busy, ["zm_sumsets.capital_R"]),
    "zm_sumsets.kth_moment_s": (_busy, [KTH_MOMENT]),
    "zm_sumsets.kth_moment_self_s": (_self, [KTH_MOMENT]),
    "zm_sumsets.znstar_s": (_busy, ["zm_sumsets.znstar_certificate"]),
    "zm_sumsets.int_sumset_s": (_busy, [INT_SUMSET]),
    "zm_sumsets.fft_calls": (_fft_calls("zm_sumsets"), []),
    "expcli.validate_s": (_busy, ["expcli.ExperimentConfig.validate"]),
    "expcli.pipeline_self_s": (_self, ["expcli.run_pipeline"]),
    "expcli.render_s": (_busy, [RENDER]),
    "expcli.render_bytes": (_detail_sum, [RENDER]),
    "traced_verify_s": (lambda s, _sources: s.verify_s, []),
    "top_children_frac": (_children_frac, ["expcli.main"]),
}


def _found(source, wrapped) -> bool:
    if isinstance(source, str):
        return source in wrapped
    return any(source.match(name) for name in wrapped)


def absent_targets(wrapped) -> list[str]:
    """The sources the metrics read that were not found to wrap."""
    return sorted({
        source if isinstance(source, str) else source.pattern
        for _compute, sources in METRICS.values()
        for source in sources
        if not _found(source, wrapped)
    })


def absent_metrics(wrapped) -> list[str]:
    """The metrics with a source that was not found to wrap."""
    return [
        metric
        for metric, (_compute, sources) in METRICS.items()
        if not all(_found(source, wrapped) for source in sources)
    ]


def layer_metrics(spans: list[tuple], traced_verify_s: float, wrapped) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead_frac`` for one verification.

    A value is None where a source is absent or the workload gives it no
    samples (no transforms, no decompositions, too few pairs for a p99).
    """
    s = _Spans(spans, traced_verify_s)
    absent = set(absent_metrics(wrapped))
    return {
        metric: None if metric in absent else compute(s, sources)
        for metric, (compute, sources) in METRICS.items()
    }
