"""Reference algorithms that the library no longer runs, kept as referees
for the fast paths that replaced them."""

from valdetect.coeffmod import (
    howell_form,
    quotient_span,
    span_contains,
)
from valdetect.errors import LevelMismatch


def submodule_contains(module, gens, x) -> bool:
    """Exact membership of x in the span of gens inside the presented module:
    q(x) against the Howell form of the q-images of gens, so the relations
    enter only through the module's cached Smith data."""
    if len(x) != module.rank:
        raise LevelMismatch("vector width does not match module rank")
    return span_contains(quotient_span(module, gens), module.quotient(x),
                         module.level.ell, module.level.n)


def cyclic_contains_by_howell(v, x, ell, n) -> bool:
    """x in <v> in (Z/l^n)^k through the Howell form of the one row v."""
    return span_contains(howell_form([v], ell, n, len(v)), x, ell, n)
