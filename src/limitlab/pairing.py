"""Cantor pairing helpers shared by learners and reductions."""

import math


def pair(a, b):
    """Cantor pairing: pair(0,0)=0, pair(1,0)=1, bijective on N x N."""
    return (a + b) * (a + b + 1) // 2 + b


def unpair(n):
    """Inverse of pair: n lies on diagonal w = a + b, the largest w with
    w * (w + 1) / 2 <= n."""
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def triple(s, i, j):
    return pair(s, pair(i, j))
