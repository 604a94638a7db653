"""The decisive rewrite applied to a whole hypothesis sequence, for
checking `DecisiveTransform` and its step rule against plain lists."""

from limitlab.learners import _decisive_step


def decisive_stream(hypotheses):
    out = []
    seen = set()
    prev_in = None
    for s, h in enumerate(hypotheses):
        prev_out = out[-1] if out else None
        out.append(_decisive_step(h, prev_in, seen, prev_out, s == 0))
        seen.add(h)
        prev_in = h
    return out
