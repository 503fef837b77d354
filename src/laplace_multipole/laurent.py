"""Placeholder names for the benchmark tracer.

bench/tracing.py looks up ``gamma_laurent`` and ``reciprocal_gamma_laurent``
by name; the library no longer has a Laurent/Gamma layer and calls neither.
Both names go together with those ``TRACED`` entries.
"""


def gamma_laurent(*args, **kwargs):
    raise NotImplementedError("the Laurent/Gamma layer has been removed")


def reciprocal_gamma_laurent(*args, **kwargs):
    raise NotImplementedError("the Laurent/Gamma layer has been removed")
