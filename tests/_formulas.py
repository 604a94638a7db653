"""Formulas named by the finite structure whose induced copy they state,
for the tests that build witnesses and stream watches by hand."""

from limitlab.catalog import canonical_fragment, parse_structure
from limitlab.sigma1 import FormulaWitness


def embeds(expr):
    """`embeds("chain(4)")`: the statement that the named finite structure
    occurs as an induced substructure."""
    structure = parse_structure(expr) if isinstance(expr, str) else expr
    size = structure.size()
    if size is None:
        raise ValueError("embed targets must be finite: %s" % structure.key())
    return FormulaWitness(
        (canonical_fragment(structure, size),), (structure.key(),)
    )
