"""Tape ops that training does not use, kept to build test losses.

Each records one node through autodiff's own machinery, so its value and
gradient bits are those the op had in the module: neg, log_sigmoid, sub,
reduce_sum, and the point-to-box distance as one node over the program's
_distance and _distance_grads.
"""

import numpy as np

from time2box import autodiff as ad


def neg(a):
    return ad._op("neg", (ad.wrap(a),), lambda x: -x, lambda g, *_: (-g,))


def log_sigmoid(a):
    def vjp(g, _, x):
        return (g * ad.log_sigmoid_slope(x),)

    return ad._op("log_sigmoid", (ad.wrap(a),), ad.log_sigmoid_value, vjp)


def sub(a, b):
    return ad._op(
        "sub",
        (ad.wrap(a), ad.wrap(b)),
        lambda x, y: x - y,
        lambda g, _, x, y: (ad._unbroadcast(g, x.shape), ad._unbroadcast(-g, y.shape)),
    )


def reduce_sum(a, axis=None):
    """Sum over all elements or over the last axis."""

    def vjp(g, _, x):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return ad._op("sum", (ad.wrap(a),), lambda x: np.sum(x, axis=axis), vjp)


def box_distance(point, center, offset, alpha: float):
    """alpha*inside + outside of points to boxes over the last axis, as one
    node. Its parents are listed once per contribution of
    ad._distance_grads, in that order, so backward adds them onto the
    running sums as the primitive ops did."""
    point, center, offset = ad.wrap(point), ad.wrap(center), ad.wrap(offset)
    value, saved = ad._distance(point.value, center.value, offset.value, alpha)
    tape = ad._tape_of(point, center, offset)
    if tape is None:
        return ad.Node(value, "box_distance")
    parents = (point,) * 3 + (center,) * 3 + (offset,) * 2
    return ad.Node(value, "box_distance", parents, tape, lambda g, *_: ad._distance_grads(g, saved))
