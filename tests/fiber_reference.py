"""Reference fiber enumeration for the tests, in plain Python.

This is the body `toric.fiber_enumerate` had before it became the one-image
case of the array builder `toric._fibers_of`.  The tests of the builder and
of the sweep's fiber enumeration compare against it.
"""
from reeslab.core import Monomial
from reeslab.toric import compositions


def reference_fiber(spec, image):
    """Members of the fiber of `image`, sorted by `Monomial.sort_key`: for
    each composition of the T-degree over the Rees variables, the ground
    remainder, when it is non-negative."""
    if image.ambient != (spec.nground, 1):
        raise ValueError(f"image ambient {image.ambient}, expected {(spec.nground, 1)}")
    members = []
    for beta in compositions(image.rees[0], spec.nrees):
        ground = list(image.ground)
        for j, bj in enumerate(beta):
            if bj:
                for i, e in enumerate(spec.gens[j].ground):
                    ground[i] -= bj * e
        if all(g >= 0 for g in ground):
            members.append(Monomial(tuple(ground), beta))
    members.sort(key=Monomial.sort_key)
    return tuple(members)
