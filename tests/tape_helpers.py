"""Taped primitives that only the tests use: readouts of complex nodes."""

import numpy as np

from brolip.tape import Var


def t_conj(a: Var) -> Var:
    return a.tape._append("conj", np.conj(a.value), (a.idx,),
                          lambda g: (np.conj(g),))


def t_real(a: Var) -> Var:
    return a.tape._append("real", np.ascontiguousarray(a.value.real), (a.idx,),
                          lambda g: (g.astype(np.complex128),))
